package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/caisplatform/caisp/internal/bus"
	"github.com/caisplatform/caisp/internal/correlate"
	"github.com/caisplatform/caisp/internal/dashboard"
	"github.com/caisplatform/caisp/internal/dedup"
	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/ringset"
	"github.com/caisplatform/caisp/internal/stixpattern"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/subscribe"
	"github.com/caisplatform/caisp/internal/textclass"
	"github.com/caisplatform/caisp/internal/tip"
)

// The platform's compaction thresholds (core's defaults), which the
// replay applies to its own store so ingest.durable compacts as the
// platform run does.
const (
	compactAfterOps   = 5000
	compactAfterBytes = 32 << 20
)

// replayCounts mirrors the core.Stats fields the replay must reproduce.
type replayCounts struct {
	collected, unique, duplicates, malformed       int
	ciocs, edits, merges, eiocs, riocs, unscorable int
	matchFrames                                    int
}

// replay drives the same documents through the layers' public functions
// in the order core.Platform calls them, one goroutine, with a span
// around every call. It owns one instance of every layer, wired with
// the options core.New uses.
type replay struct {
	cfg  runConfig
	rec  *recorder
	defs []feed.Feed

	reg        *obs.Registry
	classifier *textclass.Classifier
	deduper    *dedup.Deduper
	corr       *correlate.Incremental
	store      *storage.Store
	broker     *bus.Broker
	svc        *tip.Service
	collector  *infra.Collector
	engine     *heuristic.Engine
	subs       *subscribe.Engine
	dash       *dashboard.Server
	processed  *ringset.Set

	srv       *loopback
	dashSink  *wsSink
	matchSink *wsSink

	compactCh chan struct{}
	compactWG sync.WaitGroup

	// Every revision the replay evaluates is also evaluated pattern by
	// pattern with the reference evaluator (outside the spans): the exact
	// form of the match check, possible here because the replay holds
	// each revision at the moment the engine sees it.
	patterns       []string
	parsed         []*stixpattern.Pattern
	linearFrames   int
	linearMismatch int

	dir      string
	counts   replayCounts
	walBytes int64 // WAL bytes appended over the measured rounds
	walPuts  int64 // events written over the measured rounds
}

func bootReplay(cfg runConfig, dir string, patterns []string, rec *recorder) (*replay, error) {
	r := &replay{cfg: cfg, rec: rec, dir: dir, reg: obs.NewRegistry(),
		classifier: textclass.New(), processed: ringset.New(1 << 16),
		compactCh: make(chan struct{}, 1)}
	var err error
	r.patterns = patterns
	if r.parsed, err = parsePatterns(patterns); err != nil {
		return nil, err
	}
	if r.defs, err = feedDefs(time.Hour); err != nil {
		return nil, err
	}
	if r.collector, err = infra.NewCollector(infra.PaperInventory()); err != nil {
		return nil, err
	}
	if r.store, err = storage.Open(dir, storage.WithMetrics(r.reg)); err != nil {
		return nil, err
	}
	logger := quietLogger()
	r.broker = bus.NewBroker(bus.WithMetrics(r.reg))
	r.deduper = dedup.New(dedup.WithMetrics(r.reg))
	r.corr = correlate.NewIncremental(correlate.WithMetrics(r.reg))
	r.svc = tip.NewService(r.store, tip.WithBroker(r.broker), tip.WithLogger(logger),
		tip.WithMetrics(r.reg), tip.WithName("caisp"), tip.WithProvenance(obs.NewProvTable(obs.DefaultProvCap)))
	r.engine = heuristic.NewEngine(heuristic.WithInfrastructure(r.collector),
		heuristic.WithMetrics(r.reg), heuristic.WithLogger(logger))
	r.subs = subscribe.NewEngine(subscribe.WithMetrics(r.reg), subscribe.WithLogger(logger))
	r.dash = dashboard.NewServer(r.collector, dashboard.WithMetrics(r.reg), dashboard.WithLogger(logger))
	r.dash.SetSubscriptions(subscribe.NewAPI(r.subs))
	if err := registerPatterns(r.subs, patterns); err != nil {
		r.close()
		return nil, err
	}
	if r.srv, err = serve(r.dash); err != nil {
		r.close()
		return nil, err
	}
	if r.dashSink, r.matchSink, err = dialSinks(r.srv); err != nil {
		r.close()
		return nil, err
	}
	r.compactWG.Add(1)
	go func() {
		defer r.compactWG.Done()
		for range r.compactCh {
			_ = r.store.Compact()
		}
	}()
	return r, nil
}

func (r *replay) close() {
	if r.dashSink != nil {
		r.dashSink.close()
		r.matchSink.close()
	}
	if r.srv != nil {
		r.srv.close()
	}
	if r.compactCh != nil {
		close(r.compactCh)
		r.compactWG.Wait()
		r.compactCh = nil
	}
	r.dash.Close()
	r.subs.Close()
	r.broker.Close()
	_ = r.store.Close()
	if r.dir != "" {
		_ = os.RemoveAll(r.dir)
	}
}

// maybeCompact is core's policy: request a background snapshot once
// enough WAL accumulated; a request while one runs coalesces.
func (r *replay) maybeCompact() {
	d := r.store.Durability()
	if d.WALOps <= compactAfterOps && d.WALBytes <= compactAfterBytes {
		return
	}
	select {
	case r.compactCh <- struct{}{}:
	default:
	}
}

// classify is core's pre-dedup step: unknown-category events are tagged
// from their text.
func (r *replay) classify(e *normalize.Event) {
	if e.Category != normalize.CategoryUnknown {
		return
	}
	text := strings.TrimSpace(e.Context["description"] + " " + e.Context["event_info"])
	if text == "" {
		return
	}
	pred := r.classifier.Classify(text)
	if !pred.Relevant || pred.Confidence < 0.5 {
		return
	}
	e.Category = pred.Category
	if e.Context == nil {
		e.Context = make(map[string]string, 2)
	}
	e.Context["classified_as"] = pred.Category
	e.Context["classifier_confidence"] = strconv.FormatFloat(pred.Confidence, 'f', 2, 64)
	_ = normalize.Canonicalize(e) // as core: a failed re-key keeps the event
}

// round replays one RunBatch: collect, flush, analyze.
func (r *replay) round(n int) error {
	docs, err := documents(r.cfg.Seed, n, r.cfg.Sizes.FeedItems)
	if err != nil {
		return err
	}
	rec := r.rec
	root := rec.begin("round", -1, n)
	defer rec.end(root)
	walBefore := r.store.Durability().WALBytes

	var pending []normalize.Event
	for _, def := range r.defs {
		s := rec.begin("feed.parse", root, n)
		records, err := def.Parser.Parse(docs[def.Name])
		rec.end(s)
		if err != nil {
			return fmt.Errorf("parse %s: %w", def.Name, err)
		}
		now := time.Now()
		for _, raw := range records {
			category := def.Category
			if raw.Category != "" {
				category = raw.Category
			}
			s = rec.begin("normalize.new", root, n)
			ev, err := normalize.New(raw.Value, category, def.Name, normalize.SourceOSINT, now)
			if err == nil && len(raw.Context) > 0 {
				ev.Context = make(map[string]string, len(raw.Context))
				for k, v := range raw.Context {
					ev.Context[k] = v
				}
			}
			rec.end(s)
			if err != nil {
				r.counts.malformed++
				continue
			}
			s = rec.begin("textclass.classify", root, n)
			r.classify(&ev)
			rec.end(s)
			s = rec.begin("dedup.offer", root, n)
			stored, isNew := r.deduper.Offer(ev)
			rec.end(s)
			r.counts.collected++
			if !isNew {
				r.counts.duplicates++
				continue
			}
			r.counts.unique++
			pending = append(pending, stored)
		}
	}

	stored, err := r.flush(pending, root, n)
	if err != nil {
		return err
	}
	for _, me := range stored {
		if err := r.analyze(me, root, n); err != nil {
			return err
		}
	}
	if n >= r.cfg.Sizes.WarmRounds {
		// A compaction inside the round drops sealed segments and can make
		// the delta negative; such a round contributes nothing.
		if delta := r.store.Durability().WALBytes - walBefore; delta > 0 {
			r.walBytes += delta
			r.walPuts += int64(2 * len(stored)) // the cIoC and its eIoC write-back
		}
	}
	return nil
}

// flush is core's composeAndStore.
func (r *replay) flush(events []normalize.Event, root, n int) ([]*misp.Event, error) {
	if len(events) == 0 {
		return nil, nil
	}
	rec := r.rec
	s := rec.begin("correlate.add", root, n)
	delta := r.corr.Add(events)
	rec.end(s)
	if delta.Empty() {
		return nil, nil
	}
	for _, uuid := range delta.Removed {
		s = rec.begin("tip.delete_event", root, n)
		err := r.svc.DeleteEvent(uuid)
		rec.end(s)
		if err != nil && !errors.Is(err, storage.ErrNotFound) {
			return nil, fmt.Errorf("retract %s: %w", uuid, err)
		}
		r.dash.DropEventRIoCs(uuid)
	}
	now := time.Now()
	batch := make([]*misp.Event, 0, len(delta.New)+len(delta.Updated))
	for _, group := range [][]correlate.ComposedIoC{delta.New, delta.Updated} {
		for i := range group {
			s = rec.begin("correlate.to_misp", root, n)
			me, err := correlate.ToMISP(&group[i], now)
			rec.end(s)
			if err != nil {
				return nil, fmt.Errorf("compose cIoC: %w", err)
			}
			batch = append(batch, me)
		}
	}
	s = rec.begin("tip.add_events", root, n)
	stored, err := r.svc.AddEvents(batch)
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("store cIoCs: %w", err)
	}
	for _, me := range stored {
		s = rec.begin("subscribe.evaluate", root, n)
		matched := r.subs.EvaluateMISP(me, subscribe.StageCIoC, -1)
		rec.end(s)
		r.checkLinear(me, -1, matched)
	}
	r.counts.ciocs += len(delta.New)
	r.counts.edits += len(stored) - len(delta.New)
	r.counts.merges += len(delta.Removed)
	r.maybeCompact()
	return stored, nil
}

// analyze is core's analyze for one stored cIoC.
func (r *replay) analyze(me *misp.Event, root, n int) error {
	rec := r.rec
	if !r.store.Has(me.UUID) {
		return nil
	}
	key := me.UUID
	if h := correlate.ClusterContentOf(me); h != "" {
		key += "\x00" + h
	}
	if !r.processed.Add(key) {
		return nil
	}
	s := rec.begin("heuristic.to_stix", root, n)
	bundle, err := misp.ToSTIX(me)
	rec.end(s)
	if err != nil {
		return fmt.Errorf("convert %s: %w", me.UUID, err)
	}
	now := time.Now()
	scored := 0
	var top float64
	for _, obj := range bundle.Objects {
		s = rec.begin("heuristic.evaluate", root, n)
		res, err := r.engine.Evaluate(obj)
		if err == nil {
			heuristic.Enrich(obj, res)
		}
		rec.end(s)
		if err != nil {
			continue
		}
		scored++
		if res.Score > top {
			top = res.Score
		}
		s = rec.begin("heuristic.reduce", root, n)
		rioc, err := heuristic.Reduce(obj, res, r.collector, now)
		rec.end(s)
		if err != nil {
			return err
		}
		if rioc != nil {
			s = rec.begin("dashboard.push", root, n)
			r.dash.PushRIoC(*rioc)
			rec.end(s)
			r.counts.riocs++
		}
	}
	if scored == 0 {
		r.counts.unscorable++
		return nil
	}
	heuristic.SetBaseScore(me, top, now)
	me.AddTag("caisp:eioc")

	// Store.Correlated runs inside Service.AddEvent, where the benchmark
	// cannot see it. The same call on the same state, just before, costs
	// the same: a probe span, counted under its own name only.
	s = rec.begin("storage.correlated", root, n)
	_ = r.store.Correlated(me)
	rec.end(s)
	rec.probe(s)

	s = rec.begin("tip.add_event", root, n)
	_, err = r.svc.AddEvent(me)
	rec.end(s)
	if err != nil {
		return fmt.Errorf("store eIoC %s: %w", me.UUID, err)
	}
	r.counts.eiocs++
	s = rec.begin("subscribe.evaluate", root, n)
	matched := r.subs.EvaluateMISP(me, subscribe.StageEIoC, top)
	rec.end(s)
	r.checkLinear(me, top, matched)
	r.maybeCompact()
	return nil
}

// checkLinear counts the frame the engine pushed (if any) and holds the
// engine's match count for this revision to the linear evaluation's.
func (r *replay) checkLinear(me *misp.Event, score float64, matched int) {
	if matched > 0 {
		r.counts.matchFrames++
	}
	want := len(linearMatch(r.parsed, r.patterns, me, score))
	if want > 0 {
		r.linearFrames++
	}
	if want != matched {
		r.linearMismatch++
	}
}

// layerSpans are the replay's span names that are layer work (the round
// span itself is the benchmark's glue).
var layerSpans = []string{
	"feed.parse", "normalize.new", "textclass.classify", "dedup.offer",
	"correlate.add", "correlate.to_misp", "tip.delete_event", "tip.add_events",
	"subscribe.evaluate", "heuristic.to_stix", "heuristic.evaluate",
	"heuristic.reduce", "dashboard.push", "tip.add_event",
}

// runIngestTraced is the traced pass of ingest.*: a serial platform run
// (one analyzer, one feed worker) for the measured duration, then a
// replay of the same rounds through the layers with spans, the two
// compared count for count.
func runIngestTraced(ctx context.Context, cfg runConfig, durable bool) (*runResult, error) {
	res := newResult(cfg)
	g := &gate{}
	sz := cfg.Sizes
	newDir := func(tag string) (string, error) {
		if !durable {
			return "", nil
		}
		return scratchDir(cfg.OutDir, cfg.Workload+"-"+tag)
	}

	// Serial platform run: the whole the stage times are compared with.
	dir, err := newDir("serial")
	if err != nil {
		return nil, err
	}
	env, err := bootIngest(cfg, dir, true)
	if err != nil {
		return nil, err
	}
	defer env.close()
	if err := env.warm(ctx); err != nil {
		return nil, err
	}
	run, err := env.measure(ctx, time.Duration(cfg.Seconds*float64(time.Second)), sz.MaxRounds, false)
	if err != nil {
		return nil, err
	}
	platformFrames := env.verify(g)
	res.setTiming("lat_tail_ms", "lat_tail_ms", summarize(run.latMs))
	want := env.p.Stats()
	if durable {
		took, err := env.recoverDurable(g)
		if err != nil {
			return nil, err
		}
		res.set("storage.recover_s", took)
	}
	env.close()

	// Layer replay over the same rounds.
	if dir, err = newDir("replay"); err != nil {
		return nil, err
	}
	rec := newRecorder()
	rp, err := bootReplay(cfg, dir, env.patterns, rec)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	replayStart := time.Now()
	var replayMeasured time.Duration
	for n := 0; n < sz.WarmRounds+run.rounds; n++ {
		start := time.Now()
		if err := rp.round(n); err != nil {
			return nil, err
		}
		if n >= sz.WarmRounds {
			replayMeasured += time.Since(start)
		}
	}
	replayWall := time.Since(replayStart)
	rp.dashSink.waitFor(1+rp.counts.riocs, sinkTimeout)
	rp.matchSink.waitFor(1+rp.counts.matchFrames, sinkTimeout)

	c := rp.counts
	g.require(c.collected == want.EventsCollected && c.unique == want.EventsUnique && c.duplicates == want.Duplicates,
		"replay collected/unique/duplicates %d/%d/%d, platform %d/%d/%d",
		c.collected, c.unique, c.duplicates, want.EventsCollected, want.EventsUnique, want.Duplicates)
	g.require(c.ciocs == want.CIoCs && c.edits == want.ClusterEdits && c.merges == want.ClusterMerges,
		"replay ciocs/edits/merges %d/%d/%d, platform %d/%d/%d",
		c.ciocs, c.edits, c.merges, want.CIoCs, want.ClusterEdits, want.ClusterMerges)
	g.require(c.eiocs == want.EIoCs && c.unscorable == want.Unscorable,
		"replay eiocs/unscorable %d/%d, platform %d/%d", c.eiocs, c.unscorable, want.EIoCs, want.Unscorable)
	g.require(c.riocs == want.RIoCs, "replay riocs %d, platform %d", c.riocs, want.RIoCs)
	g.require(int64(c.matchFrames) == platformFrames, "replay match frames %d, platform %d", c.matchFrames, platformFrames)
	g.require(rp.linearMismatch == 0 && rp.linearFrames == c.matchFrames,
		"linear evaluation expects %d match frames, engine pushed %d; %d revisions disagree on their matches",
		rp.linearFrames, c.matchFrames, rp.linearMismatch)
	g.ops(int64(c.riocs), int64(max(c.riocs-(rp.dashSink.count()-1), 0)), "replay rIoC frames not delivered")
	g.ops(int64(c.matchFrames), int64(max(c.matchFrames-(rp.matchSink.count()-1), 0)), "replay match frames not delivered")

	self := rec.selfSeconds(sz.WarmRounds)
	var staged float64
	for _, name := range layerSpans {
		staged += self[name]
	}
	res.set("feed.parse_s", self["feed.parse"])
	res.set("normalize.new_s", self["normalize.new"])
	res.set("textclass.classify_s", self["textclass.classify"])
	res.set("dedup.offer_s", self["dedup.offer"])
	res.set("correlate.add_s", self["correlate.add"])
	res.set("correlate.to_misp_s", self["correlate.to_misp"])
	res.set("heuristic.to_stix_s", self["heuristic.to_stix"])
	res.set("heuristic.evaluate_s", self["heuristic.evaluate"])
	res.set("heuristic.reduce_s", self["heuristic.reduce"])
	res.set("tip.add_events_s", self["tip.add_events"])
	res.set("tip.add_event_s", self["tip.add_event"]+self["tip.delete_event"])
	res.set("storage.correlated_s", self["storage.correlated"])
	res.set("subscribe.evaluate_s", self["subscribe.evaluate"])
	res.set("dashboard.push_s", self["dashboard.push"])
	res.set("core.serial_run_s", run.elapsed.Seconds())
	res.set("core.unattributed_s", run.elapsed.Seconds()-staged)
	res.set("bench.trace_overhead_s", float64(rec.count())*perSpanCost().Seconds())

	// Counts and the store's own timers, from the layers' public snapshots.
	// The registry has no per-round reset, so these cover warm-up too.
	m := scrape(rp.reg)
	res.set("storage.put_s", series(m, "caisp_store_put_seconds_sum"))
	res.set("storage.put_batch_s", series(m, "caisp_store_put_batch_seconds_sum"))
	res.set("storage.compaction_s", series(m, "caisp_store_compaction_seconds_sum"))
	res.set("storage.compactions", float64(rp.store.Durability().Compactions))
	if rp.walPuts > 0 {
		res.set("storage.wal_bytes_per_event", float64(rp.walBytes)/float64(rp.walPuts))
	}
	res.set("feed.records", float64(c.collected))
	res.set("feed.malformed", float64(c.malformed))
	if ds := rp.deduper.Stats(); ds.Seen > 0 {
		res.set("dedup.hit_ratio", float64(ds.Duplicates)/float64(ds.Seen))
	}
	cs := rp.corr.Stats()
	res.set("correlate.clusters_new", float64(cs.New))
	res.set("correlate.clusters_updated", float64(cs.Updated))
	res.set("correlate.clusters_merged", float64(cs.Merges))
	ev := rp.subs.EvalSnapshot()
	res.set("subscribe.matches", float64(ev.Matches))
	if ev.Candidates != nil && ev.Candidates.Count > 0 {
		res.set("subscribe.candidates_per_event", ev.Candidates.Sum/float64(ev.Candidates.Count))
	}
	res.set("wsock.frames_sent", float64(rp.dashSink.count()-1+rp.matchSink.count()-1))
	res.set("wsock.evicted", series(m, "caisp_wsock_evicted_total"))
	res.set("bus.published", float64(rp.broker.Published()))
	res.set("bus.dropped", float64(rp.broker.Dropped()))

	res.info("rounds", float64(run.rounds), "count")
	res.info("records", float64(run.records), "count")
	res.info("staged_s", staged, "s")
	res.info("replay_measured_s", replayMeasured.Seconds(), "s")
	res.info("replay_wall_s", replayWall.Seconds(), "s")
	res.info("replay_glue_s", self["round"]-self["storage.correlated"], "s") // the probe is a child of the round
	res.info("spans", float64(rec.count()), "count")

	if res.TraceFile, err = rec.writeJSONL(cfg.OutDir, cfg.Workload); err != nil {
		return nil, err
	}
	g.finish(res)
	return res, nil
}
