package worker

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/stix"
)

// member is one attribute of a hand-written cluster revision.
type member struct {
	typ, value, comment string
	toIDS               bool
	at                  time.Time
}

// revision builds a revision of the cluster uuid stamped at ts, each
// member a fresh attribute (new attribute UUIDs every revision, as
// correlate.ToMISP composes them).
func revision(uuid string, ts time.Time, tags []string, members []member) *misp.Event {
	e := misp.NewEvent("cluster "+uuid[:8], ts)
	e.UUID = uuid
	for _, tag := range tags {
		e.AddTag(tag)
	}
	for _, m := range members {
		a := e.AddAttribute(m.typ, "Other", m.value, m.at)
		a.Comment, a.ToIDS = m.comment, m.toIDS
	}
	return e
}

// v4Re finds version-4 UUIDs, the identifiers drawn from a random source.
var v4Re = regexp.MustCompile(`[0-9a-f]{8}-[0-9a-f]{4}-4[0-9a-f]{3}-[89ab][0-9a-f]{3}-[0-9a-f]{12}`)

// canonicalJSON encodes v with random identifiers blanked. wall also
// blanks the STIX timestamps, which a revision without an event timestamp
// takes from the wall clock at conversion.
func canonicalJSON(t *testing.T, v any, wall bool) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	s := v4Re.ReplaceAllString(string(raw), "v4")
	if wall {
		s = regexp.MustCompile(`"\d{4}-\d\d-\d\dT[0-9:.]+Z"`).ReplaceAllString(s, `"wall"`)
	}
	return s
}

// sdoJSON encodes objects as the TAXII server shares them.
func sdoJSON(t *testing.T, objs []stix.Object) []json.RawMessage {
	t.Helper()
	out := make([]json.RawMessage, len(objs))
	for i, obj := range objs {
		raw, err := stix.Marshal(obj)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = raw
	}
	return out
}

// TestRecordsScoreAsAFreshAnalyzer: an Analyzer that keeps records scores
// every revision of a stream exactly as an Analyzer that has seen none of
// it — outcome, score, the stored event, the rIoCs with their stamps and
// breakdowns, and the shared objects — while clusters grow and merge,
// the clock crosses every timeliness bucket edge (and steps back), the
// infrastructure gains alarms and internal IoCs, a products: text lands
// after a member that is not a vulnerability, and members or events come
// without timestamps. Conversion never sets valid_until, so its edge is
// pinned by the heuristic package's TestEvaluateHoldsUntilTheNextEdge.
func TestRecordsScoreAsAFreshAnalyzer(t *testing.T) {
	collector, err := infra.NewCollector(infra.PaperInventory())
	if err != nil {
		t.Fatal(err)
	}
	t0 := evalTime
	clk := clock.NewFake(t0)
	engine := heuristic.NewEngine(heuristic.WithInfrastructure(collector), heuristic.WithClock(clk))
	keptRIoCs := &riocCollector{}
	kept := NewAnalyzer(engine, collector, clk, keptRIoCs.add)

	scored := 0
	check := func(step string, me *misp.Event) {
		t.Helper()
		freshRIoCs := &riocCollector{}
		fresh := NewAnalyzer(engine, collector, clk, freshRIoCs.add)
		a, b := me.Clone(), me.Clone()
		before := keptRIoCs.len()
		resA, errA := kept.Score(a)
		resB, errB := fresh.Score(b)
		if fmt.Sprint(errA) != fmt.Sprint(errB) || resA.Outcome != resB.Outcome || resA.Score != resB.Score {
			t.Fatalf("%s: kept %v/%v/%v, fresh %v/%v/%v", step,
				resA.Outcome, resA.Score, errA, resB.Outcome, resB.Score, errB)
		}
		wall := me.Timestamp.IsZero()
		if ga, gb := canonicalJSON(t, a, wall), canonicalJSON(t, b, wall); ga != gb {
			t.Fatalf("%s: stored events differ:\nkept  %s\nfresh %s", step, ga, gb)
		}
		keptRIoCs.mu.Lock()
		got := append([]heuristic.RIoC(nil), keptRIoCs.items[before:]...)
		keptRIoCs.mu.Unlock()
		if !reflect.DeepEqual(got, freshRIoCs.items) {
			t.Fatalf("%s: rIoCs differ:\nkept  %+v\nfresh %+v", step, got, freshRIoCs.items)
		}
		sa, errA := kept.Enriched(a)
		sb, errB := fresh.Enriched(b)
		if fmt.Sprint(errA) != fmt.Sprint(errB) {
			t.Fatalf("%s: shared objects: kept %v, fresh %v", step, errA, errB)
		}
		if ga, gb := canonicalJSON(t, sdoJSON(t, sa), wall), canonicalJSON(t, sdoJSON(t, sb), wall); ga != gb {
			t.Fatalf("%s: shared objects differ:\nkept  %s\nfresh %s", step, ga, gb)
		}
		if resA.Outcome == Enriched {
			scored++
		}
	}

	const clusterA, clusterB, clusterC = "7c1d3b0e-0a3c-4f3a-9b5e-0d6f1b2c3d4a",
		"5e2f4a1b-6c7d-4e8f-9a0b-1c2d3e4f5a6b", "9a8b7c6d-5e4f-4a3b-8c1d-0e9f8a7b6c5d"
	ip := member{typ: "ip-dst", value: "198.51.100.7", comment: "sources: feed-a", toIDS: true, at: t0.Add(-time.Hour)}
	struts := member{typ: "vulnerability", value: "CVE-2017-9805", comment: "Apache Struts REST plugin XStream RCE", at: t0}
	vector := member{typ: "cvss-vector", value: "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H", at: t0}
	domain := member{typ: "domain", value: "evil.example", comment: "apache struts dropper", toIDS: true, at: t0}
	url := member{typ: "url", value: "http://x.example/a", toIDS: true, at: t0.Add(-48 * time.Hour)}
	storm := member{typ: "vulnerability", value: "CVE-2018-8008", comment: "Path traversal in a stream processor", at: t0.Add(-3 * 24 * time.Hour)}
	link := member{typ: "link", value: "https://cve.mitre.example/CVE-2018-8008", at: t0}
	products := member{typ: "text", value: "products:apache struts,apache", at: t0}
	osDebian := member{typ: "text", value: "os:debian", at: t0}
	hash := member{typ: "md5", value: "d41d8cd98f00b204e9800998ecf8427e", toIDS: true, at: t0}
	zk := member{typ: "vulnerability", value: "CVE-2019-0201", comment: "Apache ZooKeeper getACL disclosure", at: t0}
	undated := member{typ: "hostname", value: "c2.example", comment: "apache struts c2", toIDS: true}

	a := []member{ip, struts, vector, domain}
	check("A first revision", revision(clusterA, clk.Now(), nil, a))
	a = append(a, url, storm, link)
	check("A grown", revision(clusterA, clk.Now(), nil, a))
	// products: after the domain, a member that is not a vulnerability:
	// it decorates storm, the most recent vulnerability.
	a = append(a, products)
	check("A products after an indicator", revision(clusterA, clk.Now(), nil, a))
	// B is indicators only: its top score is an indicator's, which its
	// labels move.
	b := []member{hash, {typ: "domain", value: "b.example", toIDS: true, at: t0}}
	check("B first revision", revision(clusterB, clk.Now(), nil, b))
	check("B labelled", revision(clusterB, clk.Now(), []string{"caisp:label=\"campaign-y\""}, b))
	check("B under TLP", revision(clusterB, clk.Now(), []string{"caisp:label=\"campaign-y\"", "tlp:amber"}, b))
	// B merges into A: A carries B's members, B's record is forgotten.
	a = append(a, b...)
	kept.Forget(clusterB)
	check("A absorbs B", revision(clusterA, clk.Now(), nil, a))
	a = append(a, zk, osDebian)
	check("A grows a decorated vulnerability", revision(clusterA, clk.Now(), nil, a))

	if _, err := collector.AddAlarm(infra.Alarm{NodeID: "node4", Severity: infra.SeverityHigh,
		Description: "struts exploit attempt", Application: "apache struts", At: t0}); err != nil {
		t.Fatal(err)
	}
	check("A after an alarm", revision(clusterA, clk.Now(), nil, a))
	check("A unchanged", revision(clusterA, clk.Now(), nil, a))
	if _, err := collector.AddInternalIoC("198.51.100.7", normalize.CategoryScanner, "ids", t0); err != nil {
		t.Fatal(err)
	}
	check("A after an internal IoC", revision(clusterA, clk.Now(), nil, a))

	// A member without a timestamp converts at the event's, which moves
	// with every revision.
	a = append(a, undated)
	check("A with an undated member", revision(clusterA, clk.Now().Add(-48*time.Hour), nil, a))
	check("A undated, event stamped now", revision(clusterA, clk.Now(), nil, a))
	clk.Advance(time.Minute)
	check("A undated, later", revision(clusterA, clk.Now(), nil, a))
	// A member's comment changes (a second source reported it).
	a[0].comment = "apache struts scanner | sources: feed-a, feed-b"
	check("A with a member re-sourced", revision(clusterA, clk.Now(), nil, a))
	// Without an event timestamp either, it converts at the wall clock,
	// which the key covers as it covers the event timestamp.
	c := []member{undated, {typ: "vulnerability", value: "CVE-2017-5638", comment: "Apache Struts Jakarta RCE"}, products}
	check("C undated event", revision(clusterC, time.Time{}, nil, c))
	check("C undated event again", revision(clusterC, time.Time{}, nil, c))

	// Every recency (24 h, 7 d, 30 d, 365 d) and valid_from (7 d, 30 d,
	// 365 d) edge of the members stamped t0, t0-1h, t0-48h and t0-3d: the
	// last instant inside a bucket, then the first outside.
	var edges []time.Time
	for _, at := range []time.Time{t0, t0.Add(-time.Hour), t0.Add(-48 * time.Hour), t0.Add(-3 * 24 * time.Hour)} {
		for _, d := range []time.Duration{24 * time.Hour, 7 * 24 * time.Hour, 30 * 24 * time.Hour, 365 * 24 * time.Hour} {
			edges = append(edges, at.Add(d))
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].Before(edges[j]) })
	for _, edge := range edges {
		for _, at := range []time.Time{edge, edge.Add(time.Nanosecond)} {
			if d := at.Sub(clk.Now()); d > 0 {
				clk.Advance(d)
			}
			check("A at "+at.Format(time.RFC3339Nano), revision(clusterA, clk.Now(), nil, a))
		}
	}
	// The clock steps back: scores taken later than now are not reused.
	clk.Advance(-400 * 24 * time.Hour)
	check("A after the clock stepped back", revision(clusterA, clk.Now(), nil, a))
	check("A again", revision(clusterA, clk.Now(), nil, a))

	converted, reused := kept.Blocks()
	if reused == 0 || converted == 0 || scored == 0 {
		t.Fatalf("kept analyzer: %d blocks converted, %d reused, %d revisions enriched", converted, reused, scored)
	}
	t.Logf("kept analyzer: %d blocks converted, %d reused", converted, reused)
}

// TestRecordSetCapsFIFO: the record set holds at most
// maxRecords UUIDs and evicts the oldest first; a replaced
// record keeps its place, and UUIDs put and forgotten over and over
// leave it bounded.
func TestRecordSetCapsFIFO(t *testing.T) {
	s := recordSet{byUUID: make(map[string]*record)}
	id := func(i int) string { return fmt.Sprintf("uuid-%d", i) }
	for i := 0; i < maxRecords; i++ {
		s.put(id(i), &record{})
	}
	s.put(id(0), &record{gen: 1}) // replaced: still the oldest
	s.put(id(maxRecords), &record{})
	if s.len() != maxRecords || s.byUUID[id(0)] != nil || s.byUUID[id(1)] == nil {
		t.Fatalf("over the cap: %d records, uuid-0 held %v, uuid-1 held %v",
			s.len(), s.byUUID[id(0)] != nil, s.byUUID[id(1)] != nil)
	}
	for i := 0; i < 3*maxRecords; i++ {
		u := fmt.Sprintf("churn-%d", i)
		s.put(u, &record{})
		if i%2 == 0 {
			s.forget(u)
		}
	}
	if s.len() > maxRecords || len(s.ring) > maxRecords {
		t.Fatalf("after churn: %d records, %d ring entries", s.len(), len(s.ring))
	}
}

// TestLookupOfChangedBlocksIsLinear: a revision whose every block
// changed misses every lookup, and one whose blocks came back in reverse
// order misses the block after each hit; through the call's index either
// compares O(blocks) keys, where a scan of the record per miss compared
// O(blocks²).
func TestLookupOfChangedBlocksIsLinear(t *testing.T) {
	const n = 2000
	r := &record{blocks: make([]blockRecord, n)}
	for i := range r.blocks {
		r.blocks[i] = blockRecord{key: uint64(i), until: math.MaxInt64}
	}
	now := time.Unix(0, 0)
	var changed blockIndex
	p := 0
	for i := 0; i < n; i++ {
		if b := r.lookup(uint64(n+i), now, &p, &changed); b != nil {
			t.Fatalf("changed block %d found %+v", i, b)
		}
	}
	if changed.probes > n {
		t.Errorf("%d changed blocks compared %d keys, want at most %d", n, changed.probes, n)
	}
	var reversed blockIndex
	p = 0
	for i := n - 1; i >= 0; i-- {
		if b := r.lookup(uint64(i), now, &p, &reversed); b == nil || b.key != uint64(i) {
			t.Fatalf("block %d found %+v", i, b)
		}
	}
	if reversed.probes > 2*n {
		t.Errorf("%d reversed blocks compared %d keys, want at most %d", n, reversed.probes, 2*n)
	}
}

// TestLookupFindsAsAScan: with repeated keys and any starting block,
// lookup finds the block a scan of the record from there, round to it,
// finds first.
func TestLookupFindsAsAScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	now := time.Unix(0, 0)
	for trial := 0; trial < 200; trial++ {
		r := &record{blocks: make([]blockRecord, 1+rng.Intn(12))}
		for i := range r.blocks {
			r.blocks[i] = blockRecord{key: uint64(rng.Intn(5)), until: math.MaxInt64}
		}
		var ix blockIndex
		for q := 0; q < 20; q++ {
			key, start := uint64(rng.Intn(6)), rng.Intn(len(r.blocks)+1)
			want := -1
			for k := range r.blocks {
				if i := (start + k) % len(r.blocks); r.blocks[i].key == key {
					want = i
					break
				}
			}
			p := start
			b := r.lookup(key, now, &p, &ix)
			if want < 0 && b != nil || want >= 0 && (b != &r.blocks[want] || p != want+1) {
				t.Fatalf("keys %v: lookup(%d) from %d = %p, next %d; want block %d", r.blocks, key, start, b, p, want)
			}
		}
	}
}

// TestSingleBlockRevisionsKeepNoRecord: a revision of one block keeps no
// record and drops the one its cluster had.
func TestSingleBlockRevisionsKeepNoRecord(t *testing.T) {
	collector, err := infra.NewCollector(infra.PaperInventory())
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewFake(evalTime)
	a := NewAnalyzer(heuristic.NewEngine(heuristic.WithInfrastructure(collector), heuristic.WithClock(clk)),
		collector, clk, func(heuristic.RIoC) {})
	const uuid = "7c1d3b0e-0a3c-4f3a-9b5e-0d6f1b2c3d4a"
	one := []member{{typ: "domain", value: "a.example", toIDS: true, at: evalTime}}
	two := append(one, member{typ: "domain", value: "b.example", toIDS: true, at: evalTime})
	for _, step := range []struct {
		members []member
		records int
	}{{one, 0}, {two, 1}, {one, 0}} {
		if _, err := a.Score(revision(uuid, evalTime, nil, step.members)); err != nil {
			t.Fatal(err)
		}
		if got := a.Records(); got != step.records {
			t.Fatalf("%d members: %d records, want %d", len(step.members), got, step.records)
		}
	}
}

// TestRecordsUnderConcurrentScores: Score, Forget and Records from
// several goroutines at once, on shared and distinct UUIDs (run with
// -race). Every revision still scores as a fresh Analyzer scores it.
func TestRecordsUnderConcurrentScores(t *testing.T) {
	collector, err := infra.NewCollector(infra.PaperInventory())
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewFake(evalTime)
	engine := heuristic.NewEngine(heuristic.WithInfrastructure(collector), heuristic.WithClock(clk))
	a := NewAnalyzer(engine, collector, clk, func(heuristic.RIoC) {})
	uuids := []string{"7c1d3b0e-0a3c-4f3a-9b5e-0d6f1b2c3d4a", "5e2f4a1b-6c7d-4e8f-9a0b-1c2d3e4f5a6b"}
	members := func(n int) []member {
		out := []member{{typ: "vulnerability", value: "CVE-2017-9805", comment: "Apache Struts RCE", at: evalTime}}
		for i := 0; i < n; i++ {
			out = append(out, member{typ: "domain", value: fmt.Sprintf("d%d.example", i), toIDS: true, at: evalTime})
		}
		return out
	}
	want := make([]float64, 8)
	for n := range want {
		res, err := NewAnalyzer(engine, collector, clk, func(heuristic.RIoC) {}).Score(revision(uuids[0], evalTime, nil, members(n)))
		if err != nil {
			t.Fatal(err)
		}
		want[n] = res.Score
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := range want {
				uuid := uuids[(g+n)%len(uuids)]
				res, err := a.Score(revision(uuid, evalTime, nil, members(n)))
				if err != nil || res.Score != want[n] {
					t.Errorf("goroutine %d, %d members: score %v, %v; want %v", g, n, res.Score, err, want[n])
				}
				if n%3 == 0 {
					a.Forget(uuid)
				}
				a.Records()
			}
		}(g)
	}
	wg.Wait()
}
