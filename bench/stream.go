package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/caisplatform/caisp/internal/bus"
	"github.com/caisplatform/caisp/internal/core"
	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/mesh"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/tip"
)

// pacedDoc is one scheduled feed document of stream.paced.
type pacedDoc struct {
	feed    int           // index into the feed definitions
	due     time.Duration // offset from the schedule's start
	data    []byte
	records []record
}

// pacedInput is everything stream.paced generates from the seed: the
// document schedule, what each document offers, and the patterns.
type pacedInput struct {
	defs     []feed.Feed
	docs     []pacedDoc // ascending due
	patterns []string
	// firstDue maps an indicator value to the due offset of the first
	// document that carries it: freshness is timed from there.
	firstDue map[string]time.Duration
	// watched maps a pattern to the values whose arrival makes it fire
	// (equality and IN patterns only), restricted to values the
	// documents carry with the matching type.
	watched map[string][]string
	offered int
}

// pacedSchedule builds the input: each feed has one document due in
// every DocEvery period, for the warm-up plus the measured duration. The
// offset inside the period follows a low-discrepancy sequence (multiples
// of the golden ratio, modulo one), so a run's arrivals cover every
// phase of the platform's poll and flush timers evenly: a fixed grid
// samples whichever phases the timers drift through, and random offsets
// sample them unevenly, and either makes the median depend on luck. The
// schedule is the same for every seed; the seed decides the content.
func pacedSchedule(cfg runConfig) (*pacedInput, error) {
	sz := cfg.Sizes
	in := &pacedInput{firstDue: map[string]time.Duration{}, watched: map[string][]string{}}
	var err error
	if in.defs, err = feedDefs(sz.Poll); err != nil {
		return nil, err
	}
	total := sz.StreamWarm + time.Duration(cfg.Seconds*float64(time.Second))
	perFeed := int(total / sz.DocEvery)
	const phi = 0.6180339887498949
	for k := 0; k < perFeed; k++ {
		docs, err := documents(cfg.Seed, k, sz.StreamItems)
		if err != nil {
			return nil, err
		}
		for fi, def := range in.defs {
			recs, bad, err := parseDocument(def, docs[def.Name])
			if err != nil {
				return nil, err
			}
			if bad > 0 {
				return nil, fmt.Errorf("generated document %s/%d has %d malformed records", def.Name, k, bad)
			}
			in.docs = append(in.docs, pacedDoc{
				feed: fi, due: time.Duration(k)*sz.DocEvery + time.Duration(frac(phi*float64(k*len(in.defs)+fi+1))*float64(sz.DocEvery)),
				data: docs[def.Name], records: recs,
			})
			in.offered += len(recs)
		}
	}
	sort.SliceStable(in.docs, func(i, j int) bool { return in.docs[i].due < in.docs[j].due })

	typeOf := map[string]normalize.IoCType{}
	var domains []string
	for _, d := range in.docs {
		for _, r := range d.records {
			if _, ok := in.firstDue[r.Value]; !ok {
				in.firstDue[r.Value] = d.due
				typeOf[r.Value] = r.Type
				if r.Type == normalize.TypeDomain {
					domains = append(domains, r.Value)
				}
			}
		}
	}
	in.patterns = patternList(cfg.Seed, sz.Patterns, sample(cfg.Seed, domains, sz.Patterns*88/100/4))
	for _, p := range in.patterns {
		var typ normalize.IoCType
		switch {
		case strings.HasPrefix(p, "[domain-name:value = "):
			typ = normalize.TypeDomain
		case strings.HasPrefix(p, "[ipv4-addr:value IN "):
			typ = normalize.TypeIPv4
		default:
			continue
		}
		for _, v := range quoted(p) {
			if typeOf[v] == typ {
				in.watched[p] = append(in.watched[p], v)
			}
		}
	}
	return in, nil
}

func frac(x float64) float64 { return x - math.Floor(x) }

// quoted returns the single-quoted literals of a pattern.
func quoted(p string) []string {
	var out []string
	for {
		i := strings.IndexByte(p, '\'')
		if i < 0 {
			return out
		}
		j := strings.IndexByte(p[i+1:], '\'')
		if j < 0 {
			return out
		}
		out = append(out, p[i+1:i+1+j])
		p = p[i+j+2:]
	}
}

// pulls times every page the peer's engine pulls: a mesh.Remote around
// the real tip.Client.
type pulls struct {
	client *tip.Client
	rec    *recorder

	mu    sync.Mutex
	calls []pullCall
}

type pullCall struct {
	start, end time.Time
	entries    int
}

func (p *pulls) ChangesPage(ctx context.Context, after uint64, limit int) ([]*misp.Event, uint64, bool, error) {
	return p.client.ChangesPage(ctx, after, limit)
}

// Changes implements mesh.DeletionRemote.
func (p *pulls) Changes(ctx context.Context, after uint64, limit int) ([]storage.Change, uint64, bool, error) {
	start := time.Now()
	p.mu.Lock()
	n := len(p.calls)
	p.mu.Unlock()
	s := p.rec.begin("mesh.pull", -1, n)
	changes, next, more, err := p.client.Changes(ctx, after, limit)
	p.rec.end(s)
	p.mu.Lock()
	p.calls = append(p.calls, pullCall{start: start, end: time.Now(), entries: len(changes)})
	p.mu.Unlock()
	return changes, next, more, err
}

func (p *pulls) snapshot() []pullCall {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls[:len(p.calls):len(p.calls)]
}

// streamEnv is stream.paced's system under test: a durable platform in
// streaming mode, its three sinks, and one in-process partner TIP
// pulling the platform's REST API.
type streamEnv struct {
	cfg   runConfig
	in    *pacedInput
	p     *core.Platform
	dir   string
	fetch []*docFetcher

	srv    *loopback // dashboard + /ws/matches
	api    *loopback // the platform's TIP REST API
	dash   *wsSink
	match  *wsSink
	cancel context.CancelFunc

	peerReg    *obs.Registry
	peerStore  *storage.Store
	peerBroker *bus.Broker
	peerSvc    *tip.Service
	peerBus    *busCapture
	engine     *mesh.Engine
	pulls      *pulls

	start time.Time // schedule origin
	gen   openLoop
	genWG sync.WaitGroup
}

func bootStream(ctx context.Context, cfg runConfig, rec *recorder) (*streamEnv, error) {
	e := &streamEnv{cfg: cfg}
	var err error
	if e.in, err = pacedSchedule(cfg); err != nil {
		return nil, err
	}
	if e.dir, err = scratchDir(cfg.OutDir, cfg.Workload); err != nil {
		return nil, err
	}
	for i := range e.in.defs {
		f := &docFetcher{}
		e.fetch = append(e.fetch, f)
		e.in.defs[i].Fetcher = f
	}
	logger := quietLogger()
	if e.p, err = core.New(core.Config{DataDir: e.dir, Feeds: e.in.defs, Logger: logger}); err != nil {
		e.close()
		return nil, err
	}
	if err = registerPatterns(e.p.Subscriptions(), e.in.patterns); err != nil {
		e.close()
		return nil, err
	}
	if e.srv, err = serve(e.p.Dashboard()); err != nil {
		e.close()
		return nil, err
	}
	if e.api, err = serve(tip.NewAPI(e.p.TIP(), "")); err != nil {
		e.close()
		return nil, err
	}
	if e.dash, e.match, err = dialSinks(e.srv); err != nil {
		e.close()
		return nil, err
	}

	e.peerReg = obs.NewRegistry()
	if e.peerStore, err = storage.Open("", storage.WithMetrics(e.peerReg)); err != nil {
		e.close()
		return nil, err
	}
	// The partner's bus is where arrivals are observed. Its buffer holds a
	// whole import page, so the capture cannot lose one to drop-oldest.
	e.peerBroker = bus.NewBroker(bus.WithBuffer(1 << 16))
	e.peerSvc = tip.NewService(e.peerStore, tip.WithBroker(e.peerBroker), tip.WithLogger(logger),
		tip.WithName("partner"), tip.WithProvenance(obs.NewProvTable(obs.DefaultProvCap)))
	e.peerBus = captureBus(e.peerBroker, tip.TopicEventPrefix)
	e.pulls = &pulls{client: tip.NewClient(e.api.url(), ""), rec: rec}
	e.engine, err = mesh.New(e.peerSvc, []mesh.Peer{{Name: "platform", Remote: e.pulls}}, nil,
		mesh.WithInterval(cfg.Sizes.Poll), mesh.WithLogger(logger), mesh.WithMetrics(e.peerReg),
		mesh.WithProvenance("partner", e.peerSvc.Provenance()))
	if err != nil {
		e.close()
		return nil, err
	}

	var runCtx context.Context
	runCtx, e.cancel = context.WithCancel(ctx)
	if err = e.p.Start(runCtx, cfg.Sizes.Poll); err != nil {
		e.close()
		return nil, err
	}
	e.engine.Start()

	// The generator publishes each document into its feed's fetcher at
	// its due time, whatever the platform is doing: an open loop.
	e.start = time.Now().Add(20 * time.Millisecond)
	e.gen = openLoop{start: e.start}
	for _, d := range e.in.docs {
		e.gen.offsets = append(e.gen.offsets, d.due)
	}
	e.genWG.Add(1)
	go func() {
		defer e.genWG.Done()
		e.gen.run(runCtx, func(i int, _ time.Time) {
			d := &e.in.docs[i]
			s := rec.begin("bench.publish_doc", -1, i)
			e.fetch[d.feed].push(d.data)
			rec.end(s)
		})
	}()
	return e, nil
}

// close stops every goroutine and removes the data directory; it is
// safe on a partly booted environment.
func (e *streamEnv) close() {
	if e.cancel != nil {
		e.cancel()
		e.genWG.Wait()
	}
	if e.engine != nil {
		e.engine.Close()
	}
	if e.dash != nil {
		e.dash.close()
		e.match.close()
	}
	for _, l := range []*loopback{e.srv, e.api} {
		if l != nil {
			l.close()
		}
	}
	if e.p != nil {
		_ = e.p.Close()
	}
	if e.peerBroker != nil {
		e.peerBroker.Close()
		e.peerBus.close()
	}
	if e.peerStore != nil {
		_ = e.peerStore.Close()
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}

func (e *streamEnv) backlog() int {
	n := 0
	for _, f := range e.fetch {
		n += f.backlog()
	}
	return n
}

func (e *streamEnv) benchBytes() int {
	total := e.peerBus.arenaBytes()
	for _, s := range []*wsSink{e.dash, e.match} {
		for _, f := range s.snapshot() {
			total += cap(f.payload) + 48
		}
	}
	for _, d := range e.in.docs {
		total += cap(d.data) + len(d.records)*96
	}
	return total
}

// arrival is one delivery at a sink with the indicator values it shows.
type arrival struct {
	at     time.Time
	values []string
}

// freshness times each indicator value from the due time of the first
// document that carried it to its first appearance at a sink. Only
// values first due at or after from (the end of warm-up) are sampled.
// It returns the samples and the set of values the sink has shown.
func (e *streamEnv) freshness(arrivals []arrival, from time.Duration) ([]float64, map[string]bool) {
	seen := map[string]bool{}
	var samples []float64
	for _, a := range arrivals {
		for _, v := range a.values {
			due, ok := e.in.firstDue[v]
			if !ok || seen[v] {
				continue
			}
			at := e.start.Add(due)
			if a.at.Before(at) {
				continue
			}
			seen[v] = true
			if due >= from {
				samples = append(samples, ms(a.at.Sub(at)))
			}
		}
	}
	return samples, seen
}

func (e *streamEnv) dashArrivals() []arrival {
	var out []arrival
	for _, f := range e.dash.snapshot() {
		var ev struct {
			Kind string `json:"kind"`
			RIoC *struct {
				CVE string `json:"cve"`
			} `json:"rioc"`
		}
		if json.Unmarshal(f.payload, &ev) == nil && ev.Kind == "rioc" && ev.RIoC != nil && ev.RIoC.CVE != "" {
			out = append(out, arrival{at: f.at, values: []string{ev.RIoC.CVE}})
		}
	}
	return out
}

func (e *streamEnv) matchArrivals() []arrival {
	var out []arrival
	for _, f := range e.match.snapshot() {
		var fr struct {
			Kind    string `json:"kind"`
			Matches []struct {
				Pattern string `json:"pattern"`
			} `json:"matches"`
		}
		if json.Unmarshal(f.payload, &fr) != nil || fr.Kind != "match" {
			continue
		}
		a := arrival{at: f.at}
		for _, m := range fr.Matches {
			a.values = append(a.values, e.in.watched[m.Pattern]...)
		}
		out = append(out, a)
	}
	return out
}

func busArrivals(msgs []busMsg) ([]arrival, error) {
	out := make([]arrival, 0, len(msgs))
	for _, m := range msgs {
		me, err := misp.UnmarshalWrapped(m.payload)
		if err != nil {
			return nil, err
		}
		a := arrival{at: m.at}
		for i := range me.Attributes {
			a.values = append(a.values, me.Attributes[i].Value)
		}
		out = append(out, a)
	}
	return out, nil
}

// quiesce waits until the platform has collected every offered record
// and the counters that feed the sinks stop moving.
func (e *streamEnv) quiesce() {
	deadline := time.Now().Add(sinkTimeout)
	var last [5]int
	stable := 0
	for time.Now().Before(deadline) {
		st := e.p.Stats()
		cur := [5]int{st.EventsCollected, st.EIoCs + st.Unscorable, e.dash.count(), e.match.count(), e.peerBus.count()}
		if cur == last && st.EventsCollected >= e.in.offered && e.backlog() == 0 &&
			st.CIoCs+st.ClusterEdits-st.EIoCs-st.Unscorable <= st.ClusterMerges {
			if stable++; stable >= 4 {
				return
			}
		} else {
			stable = 0
		}
		last = cur
		time.Sleep(e.cfg.Sizes.Poll)
	}
}

func runStream(ctx context.Context, cfg runConfig) (*runResult, error) {
	res := newResult(cfg)
	g := &gate{}
	sz := cfg.Sizes
	var rec *recorder
	if cfg.Traced {
		rec = newRecorder()
	}

	var (
		env    *streamEnv
		setups []float64
		err    error
	)
	repeats := sz.SetupRepeats
	if cfg.Traced {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if env != nil {
			env.close()
		}
		begin := time.Now()
		if env, err = bootStream(ctx, cfg, rec); err != nil {
			return nil, err
		}
		// Warm-up is part of set-up: the measured window opens once the
		// first StreamWarm of the schedule has played.
		time.Sleep(time.Until(env.start.Add(sz.StreamWarm)))
		setups = append(setups, time.Since(begin).Seconds())
	}
	defer env.close()

	window := time.Duration(cfg.Seconds * float64(time.Second))
	openAt := time.Now()
	before := env.p.Stats()
	time.Sleep(time.Until(env.start.Add(sz.StreamWarm + window)))
	after := env.p.Stats()
	measured := time.Since(openAt)
	env.genWG.Wait()
	// A document is fetched by the next poll; one still queued two polls
	// after the window closed means the collector is falling behind.
	time.Sleep(2 * sz.Poll)
	backlogAtEnd := env.backlog()
	env.quiesce()
	heap := 0.0
	if !cfg.Traced {
		heap = liveHeapMB(env.benchBytes())
	}

	// Stop streaming (the final flush lands what is pending), then let the
	// partner pull to the platform's head so the two stores can be compared.
	env.p.Stop()
	st := env.p.Stats()
	env.dash.waitFor(1+st.RIoCs, sinkTimeout)
	if _, err := env.engine.SyncOnce(ctx); err != nil {
		return nil, fmt.Errorf("final sync: %w", err)
	}

	lost := env.in.offered - st.EventsCollected
	if lost < 0 {
		lost = -lost
	}
	g.ops(int64(env.in.offered), int64(lost), "feed records lost")
	g.require(len(env.gen.lateMs) == len(env.in.docs), "generator published %d of %d documents", len(env.gen.lateMs), len(env.in.docs))
	g.require(backlogAtEnd == 0 && env.backlog() == 0, "documents still queued when the window closed: %d", backlogAtEnd)
	g.require(st.EventsCollected == st.EventsUnique+st.Duplicates,
		"collected %d != unique %d + duplicates %d", st.EventsCollected, st.EventsUnique, st.Duplicates)
	// In streaming mode a cluster merged away between its flush and its
	// analysis is skipped, so the balance may be short by up to the merges.
	unanalyzed := st.CIoCs + st.ClusterEdits - st.EIoCs - st.Unscorable
	g.require(unanalyzed >= 0 && unanalyzed <= st.ClusterMerges,
		"ciocs %d + cluster_edits %d vs eiocs %d + unscorable %d: off by %d with %d merges",
		st.CIoCs, st.ClusterEdits, st.EIoCs, st.Unscorable, unanalyzed, st.ClusterMerges)
	g.require(st.StoreFailures == 0, "store failures %d", st.StoreFailures)
	gotRIoC := env.dash.count() - 1
	g.ops(int64(st.RIoCs), int64(max(st.RIoCs-gotRIoC, 0)), "rIoC frames not delivered")
	g.require(gotRIoC <= st.RIoCs, "dashboard client received %d rIoC frames, platform pushed %d", gotRIoC, st.RIoCs)
	g.require(st.BusDropped == 0 && env.peerBus.dropped() == 0,
		"bus dropped %d (partner capture %d)", st.BusDropped, env.peerBus.dropped())
	g.require(env.dash.alive() && env.p.Dashboard().ClientCount() == 1, "dashboard hub evicted the client")
	g.require(env.match.alive() && env.p.Subscriptions().Watchers() == 1, "matches hub evicted the watcher")

	dashMs, _ := env.freshness(env.dashArrivals(), sz.StreamWarm)
	matchMs, matchSeen := env.freshness(env.matchArrivals(), sz.StreamWarm)
	peerArr, err := busArrivals(env.peerBus.snapshot())
	if err != nil {
		return nil, err
	}
	peerMs, peerSeen := env.freshness(peerArr, sz.StreamWarm)

	// Every watched value the documents carried must have fired its
	// pattern. Values that never reach the partner are reported, not
	// failed: the mesh compares revisions at Unix-second granularity, so
	// a cluster that grows twice within one second keeps its first
	// revision on the partner (README, findings). Event-level replication
	// is what the digest below holds the partner to.
	var hot, hotMissing int64
	for _, vals := range env.in.watched {
		for _, v := range vals {
			hot++
			if !matchSeen[v] {
				hotMissing++
			}
		}
	}
	g.ops(hot, hotMissing, "watched indicators without a match frame")
	peerStale := 0
	for v := range env.in.firstDue {
		if !peerSeen[v] {
			peerStale++
		}
	}
	res.info("peer_values_never_seen", float64(peerStale), "count")
	res.info("peer_values_offered", float64(len(env.in.firstDue)), "count")

	srcDigest, srcN, err := storeDigest(env.p.TIP())
	if err != nil {
		return nil, err
	}
	dstDigest, dstN, err := storeDigest(env.peerSvc)
	if err != nil {
		return nil, err
	}
	g.ops(int64(srcN), int64(max(srcN-dstN, 0)), "events not replicated to the partner")
	g.require(srcDigest == dstDigest && srcN == dstN, "partner holds %d events digest %x, platform %d events digest %x", dstN, dstDigest, srcN, srcDigest)
	retracted := noTombstoned(env.p.TIP(), env.peerSvc)
	g.require(retracted == 0, "partner still holds %d retracted events", retracted)

	dash, match, peer := summarize(dashMs), summarize(matchMs), summarize(peerMs)
	late := summarize(env.gen.lateMs)
	lateP99 := quantile(sortedCopy(env.gen.lateMs), 0.99)
	achieved := float64(after.EventsCollected-before.EventsCollected) / measured.Seconds()

	if !cfg.Traced {
		res.set("setup_s", median(setups))
		res.set("ops_per_s", achieved)
		// The gated latency is the partner's: the longest path (every stage
		// up to the store commit, then change feed, pull and import), and fed
		// by all six feeds' poll timers, which makes it the steadiest of the
		// three from run to run. The dashboard's depends on one feed's timer
		// phase against the flush timer and moves twice as much.
		res.setTiming("lat_p50_ms", "", peer)
		res.infoTail("lat_tail_ms", peer)
		res.set("live_heap_mb", heap)
		for name, s := range map[string]summary{"dash_fresh": dash, "match_fresh": match, "peer_fresh": peer} {
			res.Info[name+"_p50_ms"] = metric{Value: s.P50, Unit: "ms", N: s.N}
			res.infoTail(name+"_tail_ms", s)
		}
		res.info("bench.gen_late_p99_ms", lateP99, "ms")
		res.info("bench.gen_late_p50_ms", late.P50, "ms")
		res.info("bench.backlog_docs", float64(backlogAtEnd), "count")
	} else {
		res.setTiming("dash_fresh_p50_ms", "dash_fresh_tail_ms", dash)
		res.setTiming("match_fresh_p50_ms", "match_fresh_tail_ms", match)
		res.setTiming("peer_fresh_p50_ms", "peer_fresh_tail_ms", peer)
		res.Metrics["lat_tail_ms"] = res.Metrics["peer_fresh_tail_ms"] // the gated latency's tail
		res.set("bench.gen_late_p99_ms", lateP99)
		res.set("bench.backlog_docs", float64(backlogAtEnd))
		fillPlatformLayers(res, scrape(env.p.Metrics()))
		res.set("wsock.frames_sent", float64(env.dash.count()-1+env.match.count()-1))
		fillMeshLayers(res, env.engine.Totals(), scrape(env.peerReg), env.pulls.snapshot())
		res.set("mesh.poll_wait_s", pollWait(scrape(env.peerReg), env.peerBus.snapshot(), env.pulls.snapshot()))
		res.set("bench.trace_overhead_s", float64(rec.count())*perSpanCost().Seconds())
		if res.TraceFile, err = rec.writeJSONL(cfg.OutDir, cfg.Workload); err != nil {
			return nil, err
		}
	}
	res.info("offered_per_s", float64(env.in.offered)/(sz.StreamWarm+window).Seconds(), "1/s")
	res.info("achieved_per_s", achieved, "1/s")
	res.info("documents", float64(len(env.in.docs)), "count")
	res.info("records", float64(env.in.offered), "count")
	res.info("stored_events", float64(st.StoredEvents), "count")
	res.info("riocs", float64(st.RIoCs), "count")
	res.info("match_frames", float64(env.match.count()-1), "count")
	res.info("peer_imported", float64(env.engine.Totals().Imported), "count")
	g.finish(res)
	return res, nil
}

// noTombstoned counts UUIDs the source has tombstoned that the sink
// still holds.
func noTombstoned(src, dst *tip.Service) int {
	changes, _, _, err := src.Changes(0, 0)
	if err != nil {
		return -1
	}
	n := 0
	for _, ch := range changes {
		if ch.Event == nil {
			if _, err := dst.GetEvent(ch.UUID); err == nil {
				n++
			}
		}
	}
	return n
}

// pollWait is the mean time a committed revision sat on the platform
// before the pull that delivered it began. The engine's own hop-latency
// histogram gives arrival less commit (the platform stamps the commit
// time into the revision's provenance); the time from the start of the
// delivering pull to the arrival is subtracted from it.
func pollWait(peerMetrics map[string]float64, arrivals []busMsg, calls []pullCall) float64 {
	n := series(peerMetrics, "caisp_mesh_hop_latency_seconds_count")
	if n == 0 || len(arrivals) == 0 {
		return 0
	}
	hop := series(peerMetrics, "caisp_mesh_hop_latency_seconds_sum") / n
	var inPull float64
	for _, m := range arrivals {
		// The pull an arrival belongs to is the last one begun before it.
		i := sort.Search(len(calls), func(i int) bool { return calls[i].start.After(m.at) })
		if i > 0 {
			inPull += m.at.Sub(calls[i-1].start).Seconds()
		}
	}
	return max(hop-inPull/float64(len(arrivals)), 0)
}

// fillPlatformLayers reports the layers' own timers and counters from a
// platform's metrics registry. Used where the platform runs with its
// real concurrency and the benchmark cannot wrap the calls.
func fillPlatformLayers(res *runResult, m map[string]float64) {
	res.set("feed.records", series(m, "caisp_feed_records_total"))
	res.set("feed.malformed", series(m, "caisp_feed_malformed_total"))
	res.set("dedup.offer_s", series(m, "caisp_dedup_offer_seconds_sum"))
	if seen := series(m, "caisp_dedup_seen_total"); seen > 0 {
		res.set("dedup.hit_ratio", series(m, "caisp_dedup_duplicates_total")/seen)
	}
	res.set("correlate.add_s", series(m, "caisp_correlate_add_seconds_sum"))
	res.set("correlate.clusters_new", series(m, "caisp_correlate_cluster_new_total"))
	res.set("correlate.clusters_updated", series(m, "caisp_correlate_cluster_updated_total"))
	res.set("correlate.clusters_merged", series(m, "caisp_correlate_cluster_merges_total"))
	res.set("heuristic.evaluate_s", series(m, "caisp_heuristic_eval_seconds_sum"))
	res.set("storage.put_s", series(m, "caisp_store_put_seconds_sum"))
	res.set("storage.put_batch_s", series(m, "caisp_store_put_batch_seconds_sum"))
	res.set("storage.compaction_s", series(m, "caisp_store_compaction_seconds_sum"))
	res.set("storage.compactions", series(m, "caisp_store_compactions_total"))
	res.set("subscribe.evaluate_s", series(m, "caisp_subs_eval_seconds_sum"))
	res.set("subscribe.matches", series(m, "caisp_subs_matches_total"))
	if n := series(m, "caisp_subs_candidates_per_event_count"); n > 0 {
		res.set("subscribe.candidates_per_event", series(m, "caisp_subs_candidates_per_event_sum")/n)
	}
	res.set("dashboard.push_s", series(m, "caisp_dashboard_push_seconds_sum"))
	res.set("wsock.frames_sent", series(m, "caisp_wsock_push_seconds_count"))
	res.set("wsock.evicted", series(m, "caisp_wsock_evicted_total"))
	res.set("bus.published", series(m, "caisp_bus_published_total"))
	res.set("bus.dropped", series(m, "caisp_bus_dropped_total"))
}

// fillMeshLayers reports the replication engine's counters, its own
// round timer, and the pull time the benchmark measured around the
// remote.
func fillMeshLayers(res *runResult, t mesh.Totals, m map[string]float64, calls []pullCall) {
	res.set("mesh.sync_s", series(m, "caisp_mesh_sync_seconds_sum"))
	var pull float64
	for _, c := range calls {
		pull += c.end.Sub(c.start).Seconds()
	}
	res.set("mesh.pull_s", pull)
	res.set("mesh.pages", float64(t.Pages))
	res.set("mesh.pulled", float64(t.Pulled))
	res.set("mesh.imported", float64(t.Imported))
	res.set("mesh.echo_suppressed", float64(t.EchoSuppressed))
}
