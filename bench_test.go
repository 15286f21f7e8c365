// Benchmarks regenerating the paper's artifacts (one per table and figure)
// plus the cost of the design choices called out in DESIGN.md: the
// deduplicator, the secondary indexes in the event store, and
// points-derived versus static feature weighting.
package caisp_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/core"
	"github.com/caisplatform/caisp/internal/correlate"
	"github.com/caisplatform/caisp/internal/dedup"
	"github.com/caisplatform/caisp/internal/experiments"
	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/feedgen"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/stix"
	"github.com/caisplatform/caisp/internal/stixpattern"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/tip"
	"github.com/caisplatform/caisp/internal/worker"
)

// --- Table I: static threat-score computation ----------------------------

func BenchmarkTableIStaticScore(b *testing.B) {
	values := []float64{3, 4, 3, 1, 5}
	weights := []float64{0.10, 0.25, 0.40, 0.15, 0.10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := heuristic.StaticScore(values, weights); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table II: heuristic registry construction ---------------------------

func BenchmarkTableIIRegistry(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := len(heuristic.DefaultHeuristics()); got != 6 {
			b.Fatalf("heuristics = %d", got)
		}
	}
}

// --- Table III: inventory matching (the §IV rule) ------------------------

func BenchmarkTableIIIInventoryMatch(b *testing.B) {
	inv := infra.PaperInventory()
	terms := []string{"apache struts", "apache"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !inv.Match(terms).Matched() {
			b.Fatal("no match")
		}
	}
}

// --- Table IV/V: full heuristic evaluation of the use-case IoC -----------

func BenchmarkTableVUseCaseEvaluation(b *testing.B) {
	collector, err := infra.NewCollector(infra.PaperInventory())
	if err != nil {
		b.Fatal(err)
	}
	engine := heuristic.NewEngine(
		heuristic.WithInfrastructure(collector),
		heuristic.WithClock(clock.NewFake(experiments.EvalTime)),
	)
	ioc := experiments.UseCaseIoC()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := engine.Evaluate(ioc)
		if err != nil {
			b.Fatal(err)
		}
		if res.Score != 2.7407 {
			b.Fatalf("TS = %v", res.Score)
		}
	}
}

// --- Fig. 2: dashboard topology assembly ---------------------------------

func BenchmarkFig2Topology(b *testing.B) {
	s, err := experiments.NewScenario()
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	dash := s.Platform.Dashboard()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if topo := dash.BuildTopology(); len(topo.Nodes) != 4 {
			b.Fatal("bad topology")
		}
	}
}

// --- Fig. 3/4: reduction of an enriched IoC into an rIoC -----------------

func BenchmarkFig4Reduce(b *testing.B) {
	collector, err := infra.NewCollector(infra.PaperInventory())
	if err != nil {
		b.Fatal(err)
	}
	engine := heuristic.NewEngine(
		heuristic.WithInfrastructure(collector),
		heuristic.WithClock(clock.NewFake(experiments.EvalTime)),
	)
	ioc := experiments.UseCaseIoC()
	res, err := engine.Evaluate(ioc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := heuristic.Reduce(ioc, res, collector, experiments.EvalTime)
		if err != nil || r == nil {
			b.Fatal(err)
		}
	}
}

// --- X2: the full pipeline (feeds → dashboard) ---------------------------

func BenchmarkPipelineRunBatch(b *testing.B) {
	for _, items := range []int{50, 200} {
		b.Run(fmt.Sprintf("items=%d", items), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				gen := feedgen.New(feedgen.Config{
					Seed: int64(i), Items: items,
					DuplicationRate: 0.2, OverlapRate: 0.15,
				})
				feeds, err := gen.Feeds(time.Hour)
				if err != nil {
					b.Fatal(err)
				}
				p, err := core.New(core.Config{
					Feeds: feeds,
					Clock: clock.NewFake(experiments.EvalTime),
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := p.RunBatch(context.Background()); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				p.Close()
			}
		})
	}
}

// --- X15: ingest cost on a growing store ---------------------------------

// roundFetcher serves the document of the current round once, then
// reports notModified until the benchmark installs the next one.
type roundFetcher struct{ doc []byte }

func (f *roundFetcher) Fetch(context.Context) ([]byte, bool, error) {
	if f.doc == nil {
		return nil, true, nil
	}
	doc := f.doc
	f.doc = nil
	return doc, false, nil
}

// BenchmarkIngestGrowingStore runs many RunBatch rounds of fresh feedgen
// documents through ONE platform and reports the cost per collected record
// in the first and in the last tenth of the rounds. Every other pipeline
// benchmark here builds a fresh platform per iteration and therefore
// cannot see cost that grows with what the TIP already holds; here
// last/first (last-ns/record over first-ns/record) is that growth.
// B/record is the heap allocated per collected record over the whole run;
// converted/blocks the share of the analyzer's conversion blocks that
// were converted and scored rather than reused from a cluster's record;
// carried/members the share of the revisions' members copied from the
// cluster's revision before rather than rendered.
func BenchmarkIngestGrowingStore(b *testing.B) {
	const (
		rounds = 40
		tenth  = rounds / 10
		items  = 50
	)
	var firstNs, lastNs, firstRecs, lastRecs, bytes, recs, converted, blocks, carried, members float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		docs := make([]map[string][]byte, rounds)
		for r := range docs {
			var err error
			docs[r], err = feedgen.New(feedgen.Config{
				Seed: int64(i)*1_000_003 + int64(r), Items: items,
				DuplicationRate: 0.2, OverlapRate: 0.15, DefangRate: 0.3,
			}).Documents()
			if err != nil {
				b.Fatal(err)
			}
		}
		feeds, err := feedgen.New(feedgen.Config{Seed: 1, Items: 1}).Feeds(time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		fetchers := make([]*roundFetcher, len(feeds))
		for j := range feeds {
			fetchers[j] = &roundFetcher{}
			feeds[j].Fetcher = fetchers[j]
		}
		p, err := core.New(core.Config{Feeds: feeds, Clock: clock.NewFake(experiments.EvalTime)})
		if err != nil {
			b.Fatal(err)
		}
		// One standing pattern, so the subscription stage projects every
		// admitted revision instead of short-circuiting on an empty set.
		if _, err := p.Subscriptions().Register("bench", "[x-caisp:threat-score > 4.5]"); err != nil {
			b.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()
		for r := 0; r < rounds; r++ {
			for j := range feeds {
				fetchers[j].doc = docs[r][feeds[j].Name]
			}
			collected := p.Stats().EventsCollected
			start := time.Now()
			if err := p.RunBatch(context.Background()); err != nil {
				b.Fatal(err)
			}
			ns := float64(time.Since(start))
			n := float64(p.Stats().EventsCollected - collected)
			switch {
			case r < tenth:
				firstNs, firstRecs = firstNs+ns, firstRecs+n
			case r >= rounds-tenth:
				lastNs, lastRecs = lastNs+ns, lastRecs+n
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		bytes += float64(after.TotalAlloc - before.TotalAlloc)
		recs += float64(p.Stats().EventsCollected)
		c, r := analyzerBlocks(b, p)
		converted, blocks = converted+c, blocks+c+r
		m, k := p.Members()
		members, carried = members+float64(m), carried+float64(k)
		p.Close()
	}
	b.ReportMetric(firstNs/firstRecs, "first-ns/record")
	b.ReportMetric(lastNs/lastRecs, "last-ns/record")
	b.ReportMetric((lastNs/lastRecs)/(firstNs/firstRecs), "last/first")
	b.ReportMetric(bytes/recs, "B/record")
	b.ReportMetric(converted/blocks, "converted/blocks")
	b.ReportMetric(carried/members, "carried/members")
}

// analyzerBlocks reads the platform's caisp_analyzer_blocks_total.
func analyzerBlocks(b *testing.B, p *core.Platform) (converted, reused float64) {
	var sb strings.Builder
	if err := p.Metrics().WritePrometheus(&sb); err != nil {
		b.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, _ := strconv.ParseFloat(value, 64)
		switch name {
		case `caisp_analyzer_blocks_total{outcome="converted"}`:
			converted = v
		case `caisp_analyzer_blocks_total{outcome="reused"}`:
			reused = v
		}
	}
	return converted, reused
}

// --- X1: deduplication throughput ----------------------------------------

// BenchmarkDedupOffer offers 10k events carrying 2k distinct IDs.
func BenchmarkDedupOffer(b *testing.B) {
	events := make([]normalize.Event, 10000)
	for i := range events {
		e, err := normalize.New(fmt.Sprintf("host-%d.example", i%2000),
			normalize.CategoryMalwareDomain, "bench", normalize.SourceOSINT, experiments.EvalTime)
		if err != nil {
			b.Fatal(err)
		}
		events[i] = e
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := dedup.New()
		for _, e := range events {
			d.Offer(e)
		}
		if got := d.Stats().Unique; got != 2000 {
			b.Fatalf("unique = %d", got)
		}
	}
}

// --- Secondary indexes in the event store --------------------------------

// BenchmarkStoreSearch looks up one attribute value among 2k events.
func BenchmarkStoreSearch(b *testing.B) {
	store, err := storage.Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	now := experiments.EvalTime
	for i := 0; i < 2000; i++ {
		e := misp.NewEvent(fmt.Sprintf("evt-%d", i), now)
		e.AddAttribute("domain", "Network activity", fmt.Sprintf("h%d.example", i), now)
		if err := putOne(store, e); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits, err := store.SearchValue(fmt.Sprintf("h%d.example", i%2000))
		if err != nil || len(hits) != 1 {
			b.Fatalf("hits=%d err=%v", len(hits), err)
		}
	}
}

// --- Ablation: points-derived vs static weighting ------------------------

func BenchmarkAblationWeightingPoints(b *testing.B) {
	engine := heuristic.NewEngine(heuristic.WithClock(clock.NewFake(experiments.EvalTime)))
	ioc := experiments.UseCaseIoC()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Evaluate(ioc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWeightingStatic(b *testing.B) {
	values := []float64{3, 1, 2, 1, 2, 1, 0, 5, 4}
	weights := []float64{8, 8, 12, 8, 4, 4, 4, 23, 17}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	for i := range weights {
		weights[i] /= sum
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := heuristic.StaticScore(values, weights); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate microbenchmarks -------------------------------------------

func BenchmarkSTIXPatternParse(b *testing.B) {
	const pattern = "[domain-name:value = 'evil.example' OR ipv4-addr:value = '203.0.113.7'] WITHIN 300 SECONDS"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := stixpattern.Parse(pattern); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSTIXPatternMatch(b *testing.B) {
	p, err := stixpattern.Parse("[domain-name:value = 'evil.example' OR ipv4-addr:value = '203.0.113.7']")
	if err != nil {
		b.Fatal(err)
	}
	obs := []stixpattern.Observation{{
		Fields: map[string][]string{"ipv4-addr:value": {"203.0.113.7"}},
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := p.Match(obs)
		if err != nil || !ok {
			b.Fatal("no match")
		}
	}
}

func BenchmarkCorrelate(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("events=%d", n), func(b *testing.B) {
			events := make([]normalize.Event, 0, n)
			for i := 0; i < n; i++ {
				value := fmt.Sprintf("host-%d.example", i/3) // ~3 events per host cluster
				if i%3 == 1 {
					value = "http://" + value + "/path"
				}
				e, err := normalize.New(value, normalize.CategoryMalwareDomain,
					"bench", normalize.SourceOSINT, experiments.EvalTime)
				if err != nil {
					b.Fatal(err)
				}
				events = append(events, e)
			}
			c := correlate.New()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := c.Correlate(events); len(got) == 0 {
					b.Fatal("no clusters")
				}
			}
		})
	}
}

func BenchmarkSTIXBundleRoundTrip(b *testing.B) {
	bundle := stix.NewBundle()
	for i := 0; i < 50; i++ {
		v := stix.NewVulnerability(stix.NewID(stix.TypeVulnerability), fmt.Sprintf("CVE-2020-%04d", i), "bench", experiments.EvalTime)
		v.SetExtra("x_caisp_threat_score", 2.5)
		bundle.Add(v)
	}
	data, err := bundle.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		back, err := stix.ParseBundle(data)
		if err != nil || len(back.Objects) != 50 {
			b.Fatal(err)
		}
	}
}

func BenchmarkMISPToSTIX(b *testing.B) {
	e := misp.NewEvent("bench", experiments.EvalTime)
	e.AddAttribute("vulnerability", "External analysis", "CVE-2017-9805", experiments.EvalTime)
	e.AddAttribute("domain", "Network activity", "evil.example", experiments.EvalTime)
	e.AddAttribute("ip-dst", "Network activity", "203.0.113.7", experiments.EvalTime)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := misp.ToSTIX(e); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Distributed heuristic component throughput ---------------------------

func BenchmarkWorkerAnalyze(b *testing.B) {
	store, err := storage.Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	service := tip.NewService(store)
	api := httptest.NewServer(tip.NewAPI(service, ""))
	defer api.Close()
	collector, err := infra.NewCollector(infra.PaperInventory())
	if err != nil {
		b.Fatal(err)
	}
	client := tip.NewClient(api.URL, "")
	clk := clock.NewFake(experiments.EvalTime)
	analyzer := worker.NewAnalyzer(
		heuristic.NewEngine(heuristic.WithInfrastructure(collector), heuristic.WithClock(clk)),
		collector, clk, func(heuristic.RIoC) {})
	event, err := normalize.New("CVE-2017-9805", normalize.CategoryVulnExploit,
		"bench", normalize.SourceOSINT, experiments.EvalTime.AddDate(0, -3, 0))
	if err != nil {
		b.Fatal(err)
	}
	event.Context = map[string]string{
		"cvss-vector": "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H",
		"products":    "apache struts,apache",
		"os":          "debian",
	}
	ciocs := correlate.New().Correlate([]normalize.Event{event})
	me, err := correlate.ToMISP(&ciocs[0], experiments.EvalTime)
	if err != nil {
		b.Fatal(err)
	}
	// Score mutates the event (score attribute, eIoC tag); decode a fresh
	// copy per iteration, mirroring the worker's real receive path.
	wire, err := misp.MarshalWrapped(me)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh, err := misp.UnmarshalWrapped(wire)
		if err != nil {
			b.Fatal(err)
		}
		if res, err := analyzer.Score(fresh); err != nil || res.Outcome != worker.Enriched {
			b.Fatal(res.Outcome, err)
		}
		if _, err := client.AddEvent(context.Background(), fresh); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel ingestion pipeline ------------------------------------------

// latencyFetcher simulates a network feed: every fetch costs a fixed
// round-trip delay before the document is returned.
type latencyFetcher struct {
	data  []byte
	delay time.Duration
}

func (f *latencyFetcher) Fetch(ctx context.Context) ([]byte, bool, error) {
	select {
	case <-time.After(f.delay):
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	return f.data, false, nil
}

// latencyFeeds builds n independent OSINT feeds, each behind a simulated
// network round trip, each carrying its own slice of indicators.
func latencyFeeds(n, itemsPerFeed int, delay time.Duration) []feed.Feed {
	feeds := make([]feed.Feed, 0, n)
	for i := 0; i < n; i++ {
		var doc []byte
		for j := 0; j < itemsPerFeed; j++ {
			doc = append(doc, fmt.Sprintf("bench-%d-%d.example\n", i, j)...)
		}
		feeds = append(feeds, feed.Feed{
			Name:     fmt.Sprintf("bench-feed-%d", i),
			Category: normalize.CategoryMalwareDomain,
			Fetcher:  &latencyFetcher{data: doc, delay: delay},
			Parser:   feed.PlaintextParser{},
			Interval: time.Hour,
		})
	}
	return feeds
}

// benchmarkPipeline measures one full collect→store→analyze pass over 16
// feeds sitting behind a 2 ms simulated round trip each. Serial polls and
// analyzes one at a time; parallel uses the bounded feed worker pool and
// the analyzer pool.
func benchmarkPipeline(b *testing.B, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := core.New(core.Config{
			Feeds:           latencyFeeds(16, 20, 2*time.Millisecond),
			Clock:           clock.NewFake(experiments.EvalTime),
			AnalyzerPool:    workers,
			FeedConcurrency: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := p.RunBatch(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if st := p.Stats(); st.EventsUnique != 320 || st.CIoCs == 0 {
			b.Fatalf("pipeline accounting off: %+v", st)
		}
		p.Close()
	}
}

func BenchmarkPipelineSerial(b *testing.B)   { benchmarkPipeline(b, 1) }
func BenchmarkPipelineParallel(b *testing.B) { benchmarkPipeline(b, 8) }

// --- Group-commit storage: PutBatch vs one-event puts ---------------------

// putOne stores e alone, as a one-event PutBatch.
func putOne(s *storage.Store, e *misp.Event) error {
	_, err := s.PutBatch([]*misp.Event{e}, nil)
	return err
}

func storeBenchEvents(b *testing.B, n int) []*misp.Event {
	b.Helper()
	events := make([]*misp.Event, n)
	for i := range events {
		e := misp.NewEvent(fmt.Sprintf("evt-%d", i), experiments.EvalTime)
		e.AddAttribute("domain", "Network activity", fmt.Sprintf("h%d.example", i), experiments.EvalTime)
		e.AddTag("caisp:cioc")
		events[i] = e
	}
	return events
}

// The durable (fsync-per-commit) configuration is where group commit
// pays: one-event puts fsync once per event, PutBatch once per batch.
func BenchmarkPutSerialSync(b *testing.B) {
	store, err := storage.Open(b.TempDir(), storage.WithSync(true))
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	events := storeBenchEvents(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := putOne(store, events[i]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutBatchSync(b *testing.B) {
	const batchSize = 64
	store, err := storage.Open(b.TempDir(), storage.WithSync(true))
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	events := storeBenchEvents(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for lo := 0; lo < len(events); lo += batchSize {
		hi := lo + batchSize
		if hi > len(events) {
			hi = len(events)
		}
		if _, err := store.PutBatch(events[lo:hi], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Memory-only variants isolate the encode/copy savings from fsync.
func BenchmarkPutSerialMemory(b *testing.B) {
	store, err := storage.Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	events := storeBenchEvents(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := putOne(store, events[i]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutBatchMemory(b *testing.B) {
	const batchSize = 64
	store, err := storage.Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	events := storeBenchEvents(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for lo := 0; lo < len(events); lo += batchSize {
		hi := lo + batchSize
		if hi > len(events) {
			hi = len(events)
		}
		if _, err := store.PutBatch(events[lo:hi], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Event copy: hand-written Clone vs the old JSON round trip ------------

func cloneBenchEvent() *misp.Event {
	e := misp.NewEvent("clone bench", experiments.EvalTime)
	e.AddAttribute("vulnerability", "External analysis", "CVE-2017-9805", experiments.EvalTime)
	e.AddAttribute("domain", "Network activity", "evil.example", experiments.EvalTime)
	e.AddAttribute("ip-dst", "Network activity", "203.0.113.7", experiments.EvalTime)
	o := e.AddObject("vulnerability", "vulnerability")
	o.AddAttribute("cvss-string", "External analysis",
		"CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H", experiments.EvalTime)
	e.AddTag("caisp:cioc")
	e.AddTag("tlp:amber")
	return e
}

func BenchmarkEventClone(b *testing.B) {
	e := cloneBenchEvent()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if cp := e.Clone(); cp.UUID != e.UUID {
			b.Fatal("bad clone")
		}
	}
}

func BenchmarkEventCloneJSON(b *testing.B) {
	e := cloneBenchEvent()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := json.Marshal(e)
		if err != nil {
			b.Fatal(err)
		}
		var cp misp.Event
		if err := json.Unmarshal(data, &cp); err != nil {
			b.Fatal(err)
		}
		if cp.UUID != e.UUID {
			b.Fatal("bad copy")
		}
	}
}

// --- X6: snapshot-isolated read path --------------------------------------
//
// The BenchmarkRead* suite measures the copy-free snapshot read path
// under sustained ingest. Run via `make bench-read`.

// readBenchEvent builds a realistically sized event (3 loose attributes,
// one object, 2 tags — like the use-case cIoC).
func readBenchEvent(i int, ts time.Time) *misp.Event {
	e := misp.NewEvent(fmt.Sprintf("read-%d", i), ts)
	e.AddAttribute("domain", "Network activity", fmt.Sprintf("r%d.example", i), ts)
	e.AddAttribute("ip-dst", "Network activity", fmt.Sprintf("203.0.%d.%d", i/250%250, i%250), ts)
	e.AddAttribute("vulnerability", "External analysis", fmt.Sprintf("CVE-2019-%04d", i%10000), ts)
	o := e.AddObject("vulnerability", "vulnerability")
	o.AddAttribute("cvss-string", "External analysis",
		"CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H", ts)
	e.AddTag("caisp:cioc")
	e.AddTag("tlp:amber")
	return e
}

const readBenchStoreSize = 5000

func seedReadStore(b *testing.B) *storage.Store {
	b.Helper()
	store, err := storage.Open("")
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]*misp.Event, 0, 250)
	for i := 0; i < readBenchStoreSize; i++ {
		batch = append(batch, readBenchEvent(i, experiments.EvalTime.Add(time.Duration(i)*time.Second)))
		if len(batch) == cap(batch) {
			if _, err := store.PutBatch(batch, nil); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	return store
}

// startIngest keeps committing fresh 64-event batches until stopped —
// the sustained write load the readers contend with.
func startIngest(b *testing.B, store *storage.Store) (stop func()) {
	b.Helper()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 1 << 20
		old := experiments.EvalTime.Add(-24 * time.Hour)
		for {
			select {
			case <-done:
				return
			default:
			}
			batch := make([]*misp.Event, 64)
			for j := range batch {
				batch[j] = readBenchEvent(i, old)
				i++
			}
			if _, err := store.PutBatch(batch, nil); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

func BenchmarkReadSearchUnderIngest(b *testing.B) {
	store := seedReadStore(b)
	defer store.Close()
	stop := startIngest(b, store)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			hits, err := store.SearchValue(fmt.Sprintf("r%d.example", i%readBenchStoreSize))
			if err != nil || len(hits) != 1 {
				b.Fatalf("hits=%d err=%v", len(hits), err)
			}
			i++
		}
	})
	b.StopTimer()
	stop()
}

// BenchmarkSearchTypeTag times tip.Service.Search by type and by tag on a
// 20 000-event store (a mesh.catchup pass), for a key one event in 20
// carries (caisp:eioc, sha256) and for one every event carries.
func BenchmarkSearchTypeTag(b *testing.B) {
	const size = 20000
	store, err := storage.Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	svc := tip.NewService(store)
	batch := make([]*misp.Event, 0, 500)
	for i := 0; i < size; i++ {
		ts := experiments.EvalTime.Add(time.Duration(i) * time.Second)
		e := readBenchEvent(i, ts)
		if i%20 == 0 {
			e.AddTag("caisp:eioc")
			e.AddAttribute("sha256", "Payload delivery", fmt.Sprintf("%064x", i), ts)
		}
		if batch = append(batch, e); len(batch) == cap(batch) {
			if _, err := svc.AddEvents(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	for _, bc := range []struct {
		name string
		q    tip.SearchQuery
		hits int
	}{
		{"tag=caisp:eioc", tip.SearchQuery{Tag: "caisp:eioc"}, size / 20},
		{"type=sha256", tip.SearchQuery{Type: "sha256"}, size / 20},
		{"tag=caisp:cioc", tip.SearchQuery{Tag: "caisp:cioc"}, size},
		{"type=domain", tip.SearchQuery{Type: "domain"}, size},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if hits, err := svc.Search(bc.q); err != nil || len(hits) != bc.hits {
					b.Fatalf("hits=%d err=%v", len(hits), err)
				}
			}
		})
	}
}

func BenchmarkReadGet(b *testing.B) {
	store := seedReadStore(b)
	defer store.Close()
	uuids := make([]string, 0, readBenchStoreSize)
	all, err := store.All()
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range all {
		uuids = append(uuids, e.UUID)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := store.Get(uuids[i%len(uuids)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// Encode-once publishing: the cached wire encoding vs a fresh marshal per
// publish/GET.
func BenchmarkReadWrappedJSONCached(b *testing.B) {
	store, err := storage.Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	e := cloneBenchEvent()
	if err := putOne(store, e); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := store.WrappedJSON(e.UUID)
		if err != nil || len(data) == 0 {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadWrappedJSONMarshalBaseline(b *testing.B) {
	e := cloneBenchEvent()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := misp.MarshalWrapped(e)
		if err != nil || len(data) == 0 {
			b.Fatal(err)
		}
	}
}

// --- X7: pause-free durability --------------------------------------------
//
// Write-tail latency during checkpoints and recovery speed after them.
// Each BenchmarkDurabilityPut* variant measures per-operation latency
// percentiles for Put (or PutBatch) against a ≥50k-event store while a
// compaction loop runs concurrently. BenchmarkDurabilityOpenRecoveryParallel
// measures cold Open on the same store (decode across GOMAXPROCS
// workers). Run via `make bench-durability`.

const durabilityStoreSize = 50000

// seedDurabilityStore fills a store with durabilityStoreSize events in
// group-committed batches.
func seedDurabilityStore(b *testing.B, store *storage.Store) {
	b.Helper()
	batch := make([]*misp.Event, 0, 500)
	for i := 0; i < durabilityStoreSize; i++ {
		batch = append(batch, readBenchEvent(i, experiments.EvalTime.Add(time.Duration(i)*time.Second)))
		if len(batch) == cap(batch) {
			if _, err := store.PutBatch(batch, nil); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
}

// reportLatencyPercentiles attaches p50/p99/max per-op latency metrics to
// the benchmark result — the stall profile ns/op alone averages away.
func reportLatencyPercentiles(b *testing.B, lats []time.Duration) {
	b.Helper()
	if len(lats) == 0 {
		return
	}
	sorted := append([]time.Duration(nil), lats...)
	slices.Sort(sorted)
	b.ReportMetric(float64(sorted[len(sorted)*50/100]), "p50-ns")
	b.ReportMetric(float64(sorted[len(sorted)*99/100]), "p99-ns")
	b.ReportMetric(float64(sorted[len(sorted)*999/1000]), "p999-ns")
	b.ReportMetric(float64(sorted[len(sorted)-1]), "max-ns")
}

// durabilityBenchEvents builds n write-load events whose timestamps
// continue the seeded store's monotonic range, matching real ingest
// (fresh indicators arrive newest-last, appending to the time index).
func durabilityBenchEvents(b *testing.B, n int) []*misp.Event {
	b.Helper()
	events := make([]*misp.Event, n)
	for i := range events {
		events[i] = readBenchEvent(durabilityStoreSize+i,
			experiments.EvalTime.Add(time.Duration(durabilityStoreSize+i)*time.Second))
	}
	return events
}

// startCompactLoop runs checkpoints concurrently with the measured
// writes: a compaction every 20 ms, mirroring a threshold-triggered
// background compactor rather than a disk-saturating busy loop. The
// returned stop function reports how many snapshots completed so runs
// that never overlapped a checkpoint are detectable.
func startCompactLoop(b *testing.B, store *storage.Store, mode string) (stop func()) {
	b.Helper()
	if mode == "steady" {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				if err := store.Compact(); err != nil {
					b.Error(err)
					return
				}
				select {
				case <-done:
					return
				case <-time.After(20 * time.Millisecond):
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		b.ReportMetric(float64(store.Durability().Compactions), "compactions")
	}
}

// benchmarkDurabilityPut measures one-event put latency against a seeded
// store. mode selects the concurrent checkpoint activity: "steady" (no
// compaction) or "compact" (the streaming off-lock Compact looping in
// the background).
func benchmarkDurabilityPut(b *testing.B, mode string) {
	store, err := storage.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	seedDurabilityStore(b, store)

	stop := startCompactLoop(b, store, mode)
	events := durabilityBenchEvents(b, b.N)
	lats := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if err := putOne(store, events[i]); err != nil {
			b.Fatal(err)
		}
		lats[i] = time.Since(t0)
	}
	b.StopTimer()
	stop()
	reportLatencyPercentiles(b, lats)
}

func BenchmarkDurabilityPutSteady(b *testing.B)          { benchmarkDurabilityPut(b, "steady") }
func BenchmarkDurabilityPutUnderCompaction(b *testing.B) { benchmarkDurabilityPut(b, "compact") }

// benchmarkDurabilityPutBatch is the batch analogue: per-batch (64
// events) commit latency, optionally with the compactor racing it.
func benchmarkDurabilityPutBatch(b *testing.B, mode string) {
	const batchSize = 64
	store, err := storage.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	seedDurabilityStore(b, store)

	stop := startCompactLoop(b, store, mode)
	events := durabilityBenchEvents(b, b.N*batchSize)
	lats := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := store.PutBatch(events[i*batchSize:(i+1)*batchSize], nil); err != nil {
			b.Fatal(err)
		}
		lats[i] = time.Since(t0)
	}
	b.StopTimer()
	stop()
	reportLatencyPercentiles(b, lats)
}

func BenchmarkDurabilityPutBatchSteady(b *testing.B) { benchmarkDurabilityPutBatch(b, "steady") }
func BenchmarkDurabilityPutBatchUnderCompaction(b *testing.B) {
	benchmarkDurabilityPutBatch(b, "compact")
}

// BenchmarkDurabilityOpenRecoveryParallel measures cold recovery of a
// 50k-event store — a streamed snapshot plus a 5k-operation WAL tail —
// decoded across GOMAXPROCS workers.
func BenchmarkDurabilityOpenRecoveryParallel(b *testing.B) {
	dir := b.TempDir()
	store, err := storage.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	seedDurabilityStore(b, store)
	if err := store.Compact(); err != nil {
		b.Fatal(err)
	}
	tail := durabilityBenchEvents(b, 5000)
	for len(tail) > 0 {
		n := min(500, len(tail))
		if _, err := store.PutBatch(tail[:n], nil); err != nil {
			b.Fatal(err)
		}
		tail = tail[n:]
	}
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := storage.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != durabilityStoreSize+5000 {
			b.Fatalf("recovered %d events", s.Len())
		}
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// --- X8: incremental cross-batch correlation -------------------------------
//
// The streaming correlator folds each flush into a persistent cluster
// index in amortized O(keys-in-batch) instead of re-correlating the full
// event history on every flush. Run via `make bench-correlate`.

// streamBenchEvents builds n malware-domain events starting at index
// base. In the merge-heavy shape hosts share one of 64 registered
// domains, so flushes continuously grow and merge existing clusters; in
// the singleton-heavy shape every host is unique and flushes mostly open
// fresh clusters.
func streamBenchEvents(b *testing.B, base, n int, mergeHeavy bool) []normalize.Event {
	b.Helper()
	events := make([]normalize.Event, 0, n)
	for i := base; i < base+n; i++ {
		var v string
		if mergeHeavy {
			v = fmt.Sprintf("s%d.camp%d.example", i, i%64)
		} else {
			v = fmt.Sprintf("host-%d.unique-%d.example", i, i)
		}
		e, err := normalize.New(v, normalize.CategoryMalwareDomain,
			"bench", normalize.SourceOSINT,
			experiments.EvalTime.Add(time.Duration(i)*time.Second))
		if err != nil {
			b.Fatal(err)
		}
		events = append(events, e)
	}
	return events
}

const correlateFlushSize = 256

// BenchmarkCorrelateStream drives a whole stream through the correlator
// in flush-sized batches across stream sizes and cluster shapes. ns/op
// is the cost of the full stream; the events/s metric makes the scaling
// comparable across sizes (it stays ~flat).
func BenchmarkCorrelateStream(b *testing.B) {
	shapes := []struct {
		name       string
		mergeHeavy bool
	}{
		{"merge-heavy", true},
		{"singleton-heavy", false},
	}
	for _, shape := range shapes {
		for _, n := range []int{1000, 10000, 50000} {
			name := fmt.Sprintf("%s/events=%d", shape.name, n)
			b.Run(name, func(b *testing.B) {
				events := streamBenchEvents(b, 0, n, shape.mergeHeavy)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					inc := correlate.NewIncremental()
					b.StartTimer()
					clusters := 0
					for lo := 0; lo < len(events); lo += correlateFlushSize {
						hi := min(lo+correlateFlushSize, len(events))
						d := inc.Add(events[lo:hi])
						clusters += len(d.New) - len(d.Removed)
					}
					if clusters == 0 {
						b.Fatal("no clusters")
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}

// BenchmarkCorrelateFlush isolates the per-flush cost: one 256-event
// flush of fresh indicators folded into a correlator that already holds
// `preload` clustered events. The acceptance bar is that the
// 50k-preloaded flush stays within ~2× of the empty-correlator flush —
// per-flush work must not scale with the stored history. (A flush that
// grows an existing cluster additionally pays O(members) to compose that
// cluster's MISP edit; that is output-size cost, not history cost, so
// the measured flushes are singleton batches.)
func BenchmarkCorrelateFlush(b *testing.B) {
	for _, preload := range []int{0, 50000} {
		b.Run(fmt.Sprintf("preload=%d", preload), func(b *testing.B) {
			inc := correlate.NewIncremental()
			pre := streamBenchEvents(b, 0, preload, true)
			for lo := 0; lo < len(pre); lo += correlateFlushSize {
				hi := min(lo+correlateFlushSize, len(pre))
				inc.Add(pre[lo:hi])
			}
			fresh := streamBenchEvents(b, preload, b.N*correlateFlushSize, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := inc.Add(fresh[i*correlateFlushSize : (i+1)*correlateFlushSize])
				if d.Empty() {
					b.Fatal("empty delta")
				}
			}
		})
	}
}
