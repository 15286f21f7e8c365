package main

import (
	"context"
	"fmt"
	"time"

	"github.com/caisplatform/caisp/internal/mesh"
	"github.com/caisplatform/caisp/internal/misp"
)

// catchupInput is what mesh.catchup generates from the seed: the live
// set on the source, and the indicators the source has since expired,
// which the sink still holds when it starts.
type catchupInput struct {
	live    []*misp.Event
	expired []*misp.Event
}

func catchupSchedule(cfg runConfig) *catchupInput {
	return &catchupInput{
		live:    synthEvents(cfg.Seed, "live", cfg.Sizes.CatchupEvents),
		expired: synthEvents(cfg.Seed, "expired", cfg.Sizes.CatchupTombstones),
	}
}

// bootSource loads an in-memory source node: every event, then the
// expiry of the expired set, so its change feed ends in tombstones.
func bootSource(in *catchupInput) (*tipNode, error) {
	src, err := bootTIP("", "source")
	if err != nil {
		return nil, err
	}
	if err := src.load(in.expired); err != nil {
		src.close()
		return nil, err
	}
	if err := src.load(in.live); err != nil {
		src.close()
		return nil, err
	}
	for _, e := range in.expired {
		if err := src.svc.DeleteEvent(e.UUID); err != nil {
			src.close()
			return nil, fmt.Errorf("expire %s: %w", e.UUID, err)
		}
	}
	return src, nil
}

// catchupPass is one cold sink pulling the source to its head.
type catchupPass struct {
	took   time.Duration
	putS   float64   // the sink store's own PutBatch time during the pass
	latMs  []float64 // per replicated item: time from the start of the pass until its page was imported
	totals mesh.Totals
	calls  []pullCall
}

func runCatchupPass(ctx context.Context, cfg runConfig, src *tipNode, in *catchupInput, rec *recorder, n int, g *gate) (*catchupPass, error) {
	dir, err := scratchDir(cfg.OutDir, cfg.Workload)
	if err != nil {
		return nil, err
	}
	sink, err := bootTIP(dir, "sink")
	if err != nil {
		return nil, err
	}
	defer sink.close()
	if err := sink.load(in.expired); err != nil {
		return nil, err
	}
	remote := &pulls{client: src.client, rec: rec}
	engine, err := mesh.New(sink.svc, []mesh.Peer{{Name: "source", Remote: remote}},
		mesh.NewFileCursors(dir+"/mesh-cursors.json"), mesh.WithLogger(quietLogger()), mesh.WithMetrics(sink.reg))
	if err != nil {
		return nil, err
	}
	defer engine.Close()

	putBefore := series(scrape(sink.reg), "caisp_store_put_batch_seconds_sum")
	s := rec.begin("mesh.sync_once", -1, n)
	start := time.Now()
	_, err = engine.SyncOnce(ctx)
	end := time.Now()
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("sync: %w", err)
	}
	p := &catchupPass{took: end.Sub(start), totals: engine.Totals(), calls: remote.snapshot(),
		putS: series(scrape(sink.reg), "caisp_store_put_batch_seconds_sum") - putBefore}
	// A page is imported when the engine comes back for the next one.
	for i, c := range p.calls {
		done := end
		if i+1 < len(p.calls) {
			done = p.calls[i+1].start
		}
		lat := ms(done.Sub(start))
		for k := 0; k < c.entries; k++ {
			p.latMs = append(p.latMs, lat)
		}
	}

	items := int64(len(in.live) + len(in.expired))
	srcDigest, srcN, err := storeDigest(src.svc)
	if err != nil {
		return nil, err
	}
	dstDigest, dstN, err := storeDigest(sink.svc)
	if err != nil {
		return nil, err
	}
	notReplicated := max(srcN-dstN, 0) + noTombstoned(src.svc, sink.svc)
	g.ops(items, int64(notReplicated), "events or deletions not replicated")
	g.require(srcDigest == dstDigest && srcN == dstN, "pass %d: sink holds %d events digest %x, source %d events digest %x", n, dstN, dstDigest, srcN, srcDigest)
	g.require(p.totals.Errors == 0, "pass %d: %d sync errors", n, p.totals.Errors)
	g.require(int(p.totals.Deleted) == len(in.expired), "pass %d: %d deletions applied, want %d", n, p.totals.Deleted, len(in.expired))
	return p, nil
}

func runCatchup(ctx context.Context, cfg runConfig) (*runResult, error) {
	res := newResult(cfg)
	g := &gate{}
	sz := cfg.Sizes
	var rec *recorder
	if cfg.Traced {
		rec = newRecorder()
	}

	var (
		src    *tipNode
		in     *catchupInput
		setups []float64
		base   float64
	)
	repeats := sz.SetupRepeats
	if cfg.Traced {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if src != nil {
			src.close()
		}
		begin := time.Now()
		in = catchupSchedule(cfg)
		base = liveHeapMB(0) // the schedule is the benchmark's memory, not the nodes'
		var err error
		if src, err = bootSource(in); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	defer src.close()

	budget := time.Duration(cfg.Seconds * float64(time.Second))
	var (
		passes  int
		elapsed time.Duration
		p50s    []float64
		tails   []float64
		passS   []float64
		totals  mesh.Totals
		pull    float64
		syncS   float64
		putS    float64
	)
	for n := 0; n == 0 || elapsed < budget; n++ {
		p, err := runCatchupPass(ctx, cfg, src, in, rec, n, g)
		if err != nil {
			return nil, err
		}
		passes++
		elapsed += p.took
		passS = append(passS, p.took.Seconds())
		lat := summarize(p.latMs)
		p50s, tails = append(p50s, lat.P50), append(tails, lat.Tail)
		totals.Pages += p.totals.Pages
		totals.Pulled += p.totals.Pulled
		totals.Imported += p.totals.Imported
		totals.EchoSuppressed += p.totals.EchoSuppressed
		syncS += p.took.Seconds()
		putS += p.putS
		for _, c := range p.calls {
			pull += c.end.Sub(c.start).Seconds()
		}
	}
	items := float64(passes * (len(in.live) + len(in.expired)))

	if !cfg.Traced {
		res.set("setup_s", median(setups))
		// Each pass is one complete catch-up; the run reports the median
		// pass, so one pass that hit a stall does not move it.
		res.set("ops_per_s", float64(len(in.live)+len(in.expired))/median(passS))
		res.set("lat_p50_ms", median(p50s))
		res.info("lat_tail_ms", median(tails), "ms")
		res.info("items_per_s_overall", items/elapsed.Seconds(), "1/s")
		// The source with its full set is live; sinks are closed per pass.
		res.set("live_heap_mb", liveHeapMB(0)-base)
	} else {
		res.set("lat_tail_ms", median(tails))
		res.set("mesh.sync_s", syncS)
		res.set("mesh.pull_s", pull)
		res.set("mesh.pages", float64(totals.Pages))
		res.set("mesh.pulled", float64(totals.Pulled))
		res.set("mesh.imported", float64(totals.Imported))
		res.set("mesh.echo_suppressed", float64(totals.EchoSuppressed))
		res.set("storage.put_batch_s", putS)
		res.set("bench.trace_overhead_s", float64(rec.count())*perSpanCost().Seconds())
		var err error
		if res.TraceFile, err = rec.writeJSONL(cfg.OutDir, cfg.Workload); err != nil {
			return nil, err
		}
	}
	res.info("passes", float64(passes), "count")
	res.info("pass_p50_s", median(passS), "s")
	res.info("items_per_pass", items/float64(passes), "count")
	res.info("pages_per_pass", float64(totals.Pages)/float64(passes), "count")
	res.info("pull_share", pull/syncS, "ratio")
	res.info("put_batch_share", putS/syncS, "ratio")
	g.finish(res)
	return res, nil
}
