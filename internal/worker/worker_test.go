package worker

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/correlate"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/tip"
)

var evalTime = time.Date(2018, 6, 1, 12, 0, 0, 0, time.UTC)

// tipRig is a TIP (the "MISP instance") that workers (the "heuristic
// component") reach only over its REST API, as in the paper's deployment.
type tipRig struct {
	store   *storage.Store
	service *tip.Service
}

func newTIP(t *testing.T) *tipRig {
	t.Helper()
	store, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return &tipRig{store: store, service: tip.NewService(store, tip.WithName("misp-instance"))}
}

// await blocks until cond holds of the TIP, re-checking at each commit.
func (r *tipRig) await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		committed := r.store.Committed() // before the read: see Store.Committed
		if cond() {
			return
		}
		select {
		case <-committed:
		case <-deadline:
			t.Fatalf("never: %s", what)
		}
	}
}

// eiocs reports how many of the uuids the TIP holds as eIoCs.
func (r *tipRig) eiocs(uuids []string) int {
	n := 0
	for _, uuid := range uuids {
		if me, err := r.service.GetEvent(uuid); err == nil && me.HasTag("caisp:eioc") {
			n++
		}
	}
	return n
}

// runningWorker is a Worker running against the rig's API through its own
// listener, which records the cursor of each change-log read the worker
// makes.
type runningWorker struct {
	*Worker
	riocs *riocCollector
	stop  func()

	mu      sync.Mutex
	read    uint64        // the highest cursor the worker has read after
	changed chan struct{} // closed and replaced at each read
}

// start runs a worker on the rig; cursor is its Config.Cursor.
func (r *tipRig) start(t *testing.T, cursor string) *runningWorker {
	t.Helper()
	rw := &runningWorker{riocs: &riocCollector{}, changed: make(chan struct{})}
	api := tip.NewAPI(r.service, "worker-key")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/events/changes" {
			after, _ := strconv.ParseUint(req.URL.Query().Get("after"), 10, 64)
			rw.mu.Lock()
			rw.read = max(rw.read, after)
			close(rw.changed)
			rw.changed = make(chan struct{})
			rw.mu.Unlock()
		}
		api.ServeHTTP(w, req)
	}))
	collector, err := infra.NewCollector(infra.PaperInventory())
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(Config{
		TIP:       tip.NewClient(srv.URL, "worker-key"),
		Cursor:    cursor,
		Collector: collector,
		RIoCSink:  rw.riocs.add,
		Clock:     clock.NewFake(evalTime),
	})
	if err != nil {
		t.Fatal(err)
	}
	rw.Worker = w
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	var once sync.Once
	rw.stop = func() {
		once.Do(func() {
			cancel()
			<-done
			srv.Close()
		})
	}
	t.Cleanup(rw.stop)
	return rw
}

// caughtUp blocks until the worker has handled everything the TIP has
// committed so far: it reads after a sequence only once it has handled
// every page up to it.
func (rw *runningWorker) caughtUp(t *testing.T, r *tipRig) {
	t.Helper()
	head := r.store.Seq()
	deadline := time.After(10 * time.Second)
	for {
		rw.mu.Lock()
		read, changed := rw.read, rw.changed
		rw.mu.Unlock()
		if read >= head {
			return
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatalf("worker read up to %d of %d", read, head)
		}
	}
}

type riocCollector struct {
	mu    sync.Mutex
	items []heuristic.RIoC
}

func (c *riocCollector) add(r heuristic.RIoC) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items = append(c.items, r)
}

func (c *riocCollector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

func (c *riocCollector) first() heuristic.RIoC {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.items[0]
}

// strutsCIoC builds the use-case cIoC as the input module would store it.
func strutsCIoC(t *testing.T) *misp.Event { return cveCIoC(t, "CVE-2017-9805") }

// cveCIoC builds the cIoC of one advisory with the use case's context.
func cveCIoC(t *testing.T, cve string) *misp.Event {
	t.Helper()
	e, err := normalize.New(cve, normalize.CategoryVulnExploit, "vuln-advisories", normalize.SourceOSINT,
		time.Date(2017, 9, 13, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	e.Context = map[string]string{
		"description": "Apache Struts REST plugin XStream RCE",
		"cvss-vector": "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H",
		"products":    "apache struts,apache",
		"os":          "debian",
		"published":   "2017-09-13",
		"references":  "https://capec.mitre.example/248,https://cve.mitre.example/" + cve,
	}
	ciocs := correlate.New().Correlate([]normalize.Event{e})
	if len(ciocs) != 1 {
		t.Fatalf("ciocs = %d", len(ciocs))
	}
	me, err := correlate.ToMISP(&ciocs[0], evalTime)
	if err != nil {
		t.Fatal(err)
	}
	return me
}

// scoreAttributes counts the base threat-score attributes of an event.
func scoreAttributes(me *misp.Event) int {
	n := 0
	for _, a := range me.Attributes {
		if strings.HasPrefix(a.Value, heuristic.ScorePrefix) {
			n++
		}
	}
	return n
}

func TestDistributedHeuristicComponent(t *testing.T) {
	rig := newTIP(t)
	w := rig.start(t, "")

	// The "MISP instance" stores a cIoC; the remote worker reads it from
	// the change log, scores it and writes the eIoC back over the REST API.
	cioc := strutsCIoC(t)
	if _, err := rig.service.AddEvent(cioc); err != nil {
		t.Fatal(err)
	}
	rig.await(t, "the cIoC became an eIoC", func() bool { return rig.eiocs([]string{cioc.UUID}) == 1 })
	w.caughtUp(t, rig)

	// The rIoC reproduces the paper's use case.
	if w.riocs.len() != 1 {
		t.Fatalf("riocs = %d", w.riocs.len())
	}
	r := w.riocs.first()
	if r.CVE != "CVE-2017-9805" || r.ThreatScore != 2.7407 {
		t.Fatalf("rIoC = %+v", r)
	}
	if len(r.NodeIDs) != 1 || r.NodeIDs[0] != "node4" {
		t.Fatalf("nodes = %v", r.NodeIDs)
	}

	// The stored event became an eIoC with the threat-score attribute.
	stored, err := rig.service.GetEvent(cioc.UUID)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range stored.Attributes {
		if strings.HasPrefix(a.Value, "threat-score:2.7407") {
			found = true
		}
	}
	if !found {
		t.Fatalf("threat-score attribute missing: %+v", stored.Attributes)
	}

	// The write-back is itself a revision in the change log (an eIoC): it
	// must not loop back into the analyzer.
	st := w.Stats()
	if st.Enriched != 1 || st.Failures != 0 || st.Received != 2 || st.Skipped != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWorkerSkipsNonCIoCs(t *testing.T) {
	rig := newTIP(t)
	w := rig.start(t, "")
	plain := misp.NewEvent("infrastructure data", evalTime)
	plain.AddAttribute("ip-dst", "Network activity", "10.0.0.14", evalTime)
	if _, err := rig.service.AddEvent(plain); err != nil {
		t.Fatal(err)
	}
	w.caughtUp(t, rig)
	st := w.Stats()
	if st.Received != 1 || st.Skipped != 1 || st.Enriched != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestWorkerIdempotentPerUUID: a worker that reads the change log again
// from the start finds the scored revision, not the cIoC it replaced, and
// scores nothing twice.
func TestWorkerIdempotentPerUUID(t *testing.T) {
	rig := newTIP(t)
	first := rig.start(t, "")
	cioc := strutsCIoC(t)
	if _, err := rig.service.AddEvent(cioc); err != nil {
		t.Fatal(err)
	}
	rig.await(t, "the cIoC became an eIoC", func() bool { return rig.eiocs([]string{cioc.UUID}) == 1 })
	first.caughtUp(t, rig)
	first.stop()

	again := rig.start(t, "")
	again.caughtUp(t, rig)
	if st := again.Stats(); st.Received != 1 || st.Enriched != 0 {
		t.Fatalf("second reading of the log: %+v", st)
	}
	stored, err := rig.service.GetEvent(cioc.UUID)
	if err != nil || scoreAttributes(stored) != 1 {
		t.Fatalf("stored revision: %v, %d score attributes", err, scoreAttributes(stored))
	}
}

// TestWorkerResumesFromCursorFile: a worker cancelled after its first
// enrichment and restarted on the same cursor file enriches what was
// posted while it was down, and what it had not reached, so every cIoC
// ends up an eIoC with one score.
func TestWorkerResumesFromCursorFile(t *testing.T) {
	rig := newTIP(t)
	cursor := filepath.Join(t.TempDir(), "cursor.json")
	post := func(cves ...string) (uuids []string) {
		for _, cve := range cves {
			me := cveCIoC(t, cve)
			if _, err := rig.service.AddEvent(me); err != nil {
				t.Fatal(err)
			}
			uuids = append(uuids, me.UUID)
		}
		return uuids
	}

	uuids := post("CVE-2017-9805", "CVE-2017-5638", "CVE-2018-11776", "CVE-2017-12611")
	first := rig.start(t, cursor)
	rig.await(t, "a first enrichment", func() bool { return rig.eiocs(uuids) >= 1 })
	first.stop()

	uuids = append(uuids, post("CVE-2016-3081", "CVE-2016-4438", "CVE-2019-0230")...)
	rig.start(t, cursor)
	rig.await(t, "every cIoC enriched", func() bool { return rig.eiocs(uuids) == len(uuids) })
	for _, uuid := range uuids {
		stored, err := rig.service.GetEvent(uuid)
		if err != nil || scoreAttributes(stored) != 1 {
			t.Fatalf("%s: %v, %d score attributes", uuid, err, scoreAttributes(stored))
		}
	}
}

// TestScoreStoresNothing: Score turns a composed cluster into its eIoC in
// place and leaves storing it to the caller. It keeps no memory of what
// it scored: a revision given again is scored again, pushing its rIoC
// again. A cluster of free-text members is Unscorable.
func TestScoreStoresNothing(t *testing.T) {
	collector, err := infra.NewCollector(infra.PaperInventory())
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewFake(evalTime)
	riocs := &riocCollector{}
	a := NewAnalyzer(heuristic.NewEngine(heuristic.WithInfrastructure(collector), heuristic.WithClock(clk)),
		collector, clk, riocs.add)

	me := strutsCIoC(t)
	for i := 0; i < 2; i++ {
		res, err := a.Score(me)
		if err != nil || res.Outcome != Enriched || res.Score != 2.7407 {
			t.Fatalf("score %d: %+v, %v", i, res, err)
		}
	}
	if !me.HasTag("caisp:eioc") || riocs.len() != 2 {
		t.Fatalf("eioc tag %v, %d rIoCs pushed, want the tag and one rIoC per Score", me.HasTag("caisp:eioc"), riocs.len())
	}
	if scoreAttributes(me) != 1 {
		t.Fatalf("%d score attributes after two scores, want the one upserted", scoreAttributes(me))
	}

	e, err := normalize.New("opaque-token", normalize.CategoryMalwareDomain, "t", normalize.SourceOSINT, evalTime)
	if err != nil {
		t.Fatal(err)
	}
	text, err := correlate.ToMISP(&correlate.New().Correlate([]normalize.Event{e})[0], evalTime)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := a.Score(text); err != nil || res.Outcome != Unscorable || text.HasTag("caisp:eioc") {
		t.Fatalf("free-text cluster: %+v, %v", res, err)
	}
}

// TestWorkerRescoresGrownCluster: a grown revision of a scored cluster —
// same stable UUID, new content hash — replaces the eIoC in the change
// log and is scored again, and the stored eIoC carries one base score,
// not two.
func TestWorkerRescoresGrownCluster(t *testing.T) {
	rig := newTIP(t)
	w := rig.start(t, "")
	corr := correlate.NewIncremental()
	revise := func(cve string) *misp.Event {
		e, err := normalize.New(cve, normalize.CategoryVulnExploit, "vuln-advisories", normalize.SourceOSINT,
			time.Date(2017, 9, 13, 0, 0, 0, 0, time.UTC))
		if err != nil {
			t.Fatal(err)
		}
		e.Context = map[string]string{
			"campaign":    "op-struts-wave",
			"products":    "apache struts,apache",
			"os":          "debian",
			"cvss-vector": "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H",
		}
		delta := corr.Add([]normalize.Event{e})
		ciocs := append(delta.New, delta.Updated...)
		if len(ciocs) != 1 {
			t.Fatalf("delta = %+v", delta)
		}
		me, err := correlate.ToMISP(&ciocs[0], evalTime)
		if err != nil {
			t.Fatal(err)
		}
		return me
	}

	first := revise("CVE-2017-9805")
	if _, err := rig.service.AddEvent(first); err != nil {
		t.Fatal(err)
	}
	rig.await(t, "the first revision scored", func() bool { return rig.eiocs([]string{first.UUID}) == 1 })

	grown := revise("CVE-2017-5638")
	if grown.UUID != first.UUID || correlate.ClusterContentOf(grown) == correlate.ClusterContentOf(first) {
		t.Fatalf("second revision %s/%s is not a grown %s", grown.UUID, correlate.ClusterContentOf(grown), first.UUID)
	}
	if _, err := rig.service.AddEvent(grown); err != nil {
		t.Fatal(err)
	}
	rig.await(t, "the grown revision scored", func() bool {
		stored, err := rig.service.GetEvent(first.UUID)
		return err == nil && stored.HasTag("caisp:eioc") &&
			correlate.ClusterContentOf(stored) == correlate.ClusterContentOf(grown)
	})
	w.caughtUp(t, rig)
	if st := w.Stats(); st.Enriched != 2 {
		t.Fatalf("stats = %+v", st)
	}

	stored, err := rig.service.GetEvent(first.UUID)
	if err != nil {
		t.Fatal(err)
	}
	if scores := scoreAttributes(stored); scores != 1 {
		t.Fatalf("stored revision has %d score attributes: %+v", scores, stored.Attributes)
	}
}

func TestNewValidation(t *testing.T) {
	collector, err := infra.NewCollector(infra.PaperInventory())
	if err != nil {
		t.Fatal(err)
	}
	client := tip.NewClient("http://127.0.0.1:1", "")
	if _, err := New(Config{Collector: collector}); err == nil {
		t.Fatal("missing client accepted")
	}
	if _, err := New(Config{TIP: client}); err == nil {
		t.Fatal("missing collector accepted")
	}
	if _, err := New(Config{TIP: client, Collector: collector, Cursor: t.TempDir()}); err == nil {
		t.Fatal("unreadable cursor file accepted")
	}
}
