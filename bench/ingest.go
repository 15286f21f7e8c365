package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/caisplatform/caisp/internal/core"
	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/stixpattern"
	"github.com/caisplatform/caisp/internal/subscribe"
)

// hotRounds is how many upcoming rounds hot equality patterns are
// sampled from.
const hotRounds = 60

// sinkTimeout bounds every wait for a frame or message that the
// platform's own counters say is on its way; one that does not arrive
// within it is a failed operation.
const sinkTimeout = 10 * time.Second

// ingestEnv is one booted platform with the ingest workloads' sinks
// attached: a dashboard WebSocket client and a /ws/matches watcher, over
// the surfaces an operator would use.
type ingestEnv struct {
	cfg      runConfig
	p        *core.Platform
	defs     []feed.Feed
	fetch    map[string]*docFetcher
	srv      *loopback
	dash     *wsSink
	match    *wsSink
	dir      string
	patterns []string

	offered   int // records the benchmark's own parse found in the documents it pushed
	malformed int
}

// ingestPatterns is the input-generation part of set-up shared by the
// platform run and the layer replay.
func ingestPatterns(cfg runConfig) ([]string, error) {
	sz := cfg.Sizes
	rounds := sz.WarmRounds + sz.MaxRounds
	if rounds > hotRounds {
		rounds = hotRounds
	}
	hot, err := hotDomains(cfg.Seed, rounds, sz.FeedItems, sz.Patterns*88/100/4)
	if err != nil {
		return nil, err
	}
	return patternList(cfg.Seed, sz.Patterns, hot), nil
}

// bootIngest generates the patterns, boots a platform (durable when dir
// is set, one analyzer and one feed worker when serial), registers the
// patterns and attaches the sinks.
func bootIngest(cfg runConfig, dir string, serial bool) (*ingestEnv, error) {
	e := &ingestEnv{cfg: cfg, dir: dir, fetch: map[string]*docFetcher{}}
	var err error
	if e.patterns, err = ingestPatterns(cfg); err != nil {
		return nil, err
	}
	if e.defs, err = feedDefs(time.Hour); err != nil {
		return nil, err
	}
	for i := range e.defs {
		f := &docFetcher{}
		e.fetch[e.defs[i].Name] = f
		e.defs[i].Fetcher = f
	}
	conf := core.Config{DataDir: dir, Feeds: e.defs, Logger: quietLogger()}
	if serial {
		conf.AnalyzerPool, conf.FeedConcurrency = 1, 1
	}
	if e.p, err = core.New(conf); err != nil {
		return nil, err
	}
	if err := registerPatterns(e.p.Subscriptions(), e.patterns); err != nil {
		e.close()
		return nil, err
	}
	if e.srv, err = serve(e.p.Dashboard()); err != nil {
		e.close()
		return nil, err
	}
	if e.dash, e.match, err = dialSinks(e.srv); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// registerPatterns spreads the patterns over client IDs so the engine's
// per-client quota never rejects one.
func registerPatterns(subs *subscribe.Engine, patterns []string) error {
	for i, pat := range patterns {
		if _, err := subs.Register(fmt.Sprintf("bench-%d", i/500), pat); err != nil {
			return fmt.Errorf("register pattern %d %q: %w", i, pat, err)
		}
	}
	return nil
}

// dialSinks connects the dashboard client and the matches watcher and
// waits for each stream's greeting (snapshot, hello), so frame counts
// start from a known 1.
func dialSinks(srv *loopback) (dash, match *wsSink, err error) {
	if dash, err = dialSink(wsURL(srv, "/ws")); err != nil {
		return nil, nil, err
	}
	if match, err = dialSink(wsURL(srv, "/ws/matches")); err != nil {
		dash.close()
		return nil, nil, err
	}
	if !dash.waitFor(1, sinkTimeout) || !match.waitFor(1, sinkTimeout) {
		dash.close()
		match.close()
		return nil, nil, fmt.Errorf("bench: sink greeting: %w", errTimeout)
	}
	return dash, match, nil
}

// close releases everything, the data directory included.
func (e *ingestEnv) close() {
	e.closeSinks()
	if e.p != nil {
		_ = e.p.Close()
		e.p = nil
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}

func (e *ingestEnv) closeSinks() {
	if e.dash != nil {
		e.dash.close()
		e.dash = nil
	}
	if e.match != nil {
		e.match.close()
		e.match = nil
	}
	if e.srv != nil {
		e.srv.close()
		e.srv = nil
	}
}

// benchBytes is the memory the benchmark's own sinks hold, which the
// live-heap figure leaves out.
func (e *ingestEnv) benchBytes() int {
	total := 0
	for _, s := range []*wsSink{e.dash, e.match} {
		for _, f := range s.snapshot() {
			total += cap(f.payload) + 48
		}
	}
	return total
}

// round hands every feed a fresh document and runs one synchronous
// pipeline pass. Only RunBatch is timed: generating and parsing the
// documents is the benchmark's work. Before returning it waits until
// every rIoC the analyzers pushed has reached the dashboard client, so
// a frame is always attributed to the round that produced it.
func (e *ingestEnv) round(ctx context.Context, r int) (start time.Time, dur time.Duration, err error) {
	docs, err := documents(e.cfg.Seed, r, e.cfg.Sizes.FeedItems)
	if err != nil {
		return start, 0, err
	}
	for _, def := range e.defs {
		recs, bad, err := parseDocument(def, docs[def.Name])
		if err != nil {
			return start, 0, err
		}
		e.offered += len(recs)
		e.malformed += bad
		e.fetch[def.Name].push(docs[def.Name])
	}
	start = time.Now()
	err = e.p.RunBatch(ctx)
	dur = time.Since(start)
	e.dash.waitFor(1+e.p.Stats().RIoCs, sinkTimeout)
	return start, dur, err
}

// warm runs the set-up rounds.
func (e *ingestEnv) warm(ctx context.Context) error {
	for r := 0; r < e.cfg.Sizes.WarmRounds; r++ {
		if _, _, err := e.round(ctx, r); err != nil {
			return err
		}
	}
	return nil
}

// ingestRun is what the measured rounds produced.
type ingestRun struct {
	rounds  int
	elapsed time.Duration // sum of RunBatch durations
	roundMs []float64
	// latMs is, for each of the first HeapRound measured rounds, the arrival
	// of the round's last rIoC frame since the round began. The window is a
	// fixed set of rounds, not "all that fit": round time grows with
	// history, so a run that gets further would otherwise report a worse
	// latency for being faster.
	latMs   []float64
	records int // feed records the platform collected in the measured rounds
	heapMB  float64
}

// measure runs rounds until their summed duration reaches the budget
// (or maxRounds), on the one platform: history-dependent cost is part
// of what is measured.
func (e *ingestEnv) measure(ctx context.Context, budget time.Duration, maxRounds int, wantHeap bool) (ingestRun, error) {
	var run ingestRun
	sz := e.cfg.Sizes
	before := e.p.Stats().EventsCollected
	for run.rounds < maxRounds && run.elapsed < budget {
		first := e.dash.count()
		start, dur, err := e.round(ctx, sz.WarmRounds+run.rounds)
		if err != nil {
			return run, err
		}
		run.rounds++
		run.elapsed += dur
		run.roundMs = append(run.roundMs, ms(dur))
		if run.rounds <= sz.HeapRound {
			for _, f := range e.dash.snapshot()[first:] {
				run.latMs = append(run.latMs, ms(f.at.Sub(start)))
			}
		}
		if wantHeap && run.rounds == sz.HeapRound {
			run.heapMB = liveHeapMB(e.benchBytes())
		}
	}
	if wantHeap && run.heapMB == 0 {
		run.heapMB = liveHeapMB(e.benchBytes())
	}
	run.records = e.p.Stats().EventsCollected - before
	return run, nil
}

// matchFrame is the part of a /ws/matches frame the gate reads.
type matchFrame struct {
	Kind    string `json:"kind"`
	Event   string `json:"event_uuid"`
	Matches []struct {
		Pattern string `json:"pattern"`
	} `json:"matches"`
}

// firedPairs parses the watcher's frames (the greeting aside) into the
// set of (event, pattern) pairs that fired, and counts frames and
// matches.
func firedPairs(frames []frame) (pairs map[[2]string]bool, nFrames, nMatches int64, err error) {
	pairs = map[[2]string]bool{}
	for _, f := range frames {
		var mf matchFrame
		if err := json.Unmarshal(f.payload, &mf); err != nil {
			return nil, 0, 0, fmt.Errorf("match frame: %w", err)
		}
		if mf.Kind != "match" {
			continue
		}
		nFrames++
		nMatches += int64(len(mf.Matches))
		for _, m := range mf.Matches {
			pairs[[2]string{mf.Event, m.Pattern}] = true
		}
	}
	return pairs, nFrames, nMatches, nil
}

// verify is the ingest workloads' correctness gate. It returns the
// number of match frames delivered.
func (e *ingestEnv) verify(g *gate) int64 {
	st := e.p.Stats()
	lost := e.offered - st.EventsCollected
	if lost < 0 {
		lost = -lost
	}
	g.ops(int64(e.offered+e.malformed), int64(e.malformed+lost), "feed records malformed or lost")
	g.require(st.EventsCollected == st.EventsUnique+st.Duplicates,
		"collected %d != unique %d + duplicates %d", st.EventsCollected, st.EventsUnique, st.Duplicates)
	g.require(st.CIoCs+st.ClusterEdits == st.EIoCs+st.Unscorable,
		"ciocs %d + cluster_edits %d != eiocs %d + unscorable %d", st.CIoCs, st.ClusterEdits, st.EIoCs, st.Unscorable)
	g.require(st.StoreFailures == 0, "store failures %d", st.StoreFailures)
	g.require(st.BusDropped == 0, "bus dropped %d", st.BusDropped)

	e.dash.waitFor(1+st.RIoCs, sinkTimeout)
	got := e.dash.count() - 1
	g.ops(int64(st.RIoCs), int64(max(st.RIoCs-got, 0)), "rIoC frames not delivered")
	g.require(got <= st.RIoCs, "dashboard client received %d rIoC frames, platform pushed %d", got, st.RIoCs)

	// Delivery: the matches in the frames received add up to what the
	// engine counted. Frames may still be in flight, so poll.
	engineMatches := e.p.Subscriptions().Stats().Matches
	var (
		fired             map[[2]string]bool
		nFrames, nMatched int64
		err               error
	)
	for deadline := time.Now().Add(sinkTimeout); ; time.Sleep(5 * time.Millisecond) {
		fired, nFrames, nMatched, err = firedPairs(e.match.snapshot())
		if err != nil || nMatched >= engineMatches || time.Now().After(deadline) {
			break
		}
	}
	g.require(err == nil, "%v", err)
	g.ops(engineMatches, max(engineMatches-nMatched, 0), "matches not delivered to the watcher")
	g.require(nMatched <= engineMatches, "watcher received %d matches, engine counted %d", nMatched, engineMatches)

	// Meaning: an independent linear evaluation of the stored events.
	events, _, _, err := e.p.TIP().ChangesPage(0, 0)
	g.require(err == nil, "read back the store: %v", err)
	missing, unsound, expected, err := checkMatches(e.patterns, events, fired)
	g.require(err == nil, "independent pattern evaluation: %v", err)
	g.ops(expected, missing, "patterns that match a stored event but never fired for it")
	g.require(unsound == 0, "%d match frames name a pattern the stored event does not satisfy", unsound)

	g.require(e.dash.alive() && e.p.Dashboard().ClientCount() == 1, "dashboard hub evicted the client")
	g.require(e.match.alive() && e.p.Subscriptions().Watchers() == 1, "matches hub evicted the watcher")
	return nFrames
}

// linearMatch evaluates every pattern against one event, one by one,
// with the reference evaluator, and returns the patterns that match.
func linearMatch(parsed []*stixpattern.Pattern, patterns []string, me *misp.Event, score float64) []string {
	obs := subscribe.ObservationFromMISP(me, score)
	var out []string
	for i, p := range parsed {
		if ok, err := p.MatchOne(obs); err == nil && ok {
			out = append(out, patterns[i])
		}
	}
	return out
}

func parsePatterns(patterns []string) ([]*stixpattern.Pattern, error) {
	parsed := make([]*stixpattern.Pattern, len(patterns))
	for i, p := range patterns {
		var err error
		if parsed[i], err = stixpattern.Parse(p); err != nil {
			return nil, fmt.Errorf("pattern %q: %w", p, err)
		}
	}
	return parsed, nil
}

// checkMatches holds the frames to what the store ends up with, without
// the indexed engine. Cluster membership only grows and every stored
// revision is evaluated, so (completeness) every pattern the linear
// evaluator matches on a stored event must have fired for that event at
// least once, and (soundness) every pattern that fired for an event
// still stored must match it, score thresholds aside: a re-scored
// cluster may have crossed one in either direction. The exact frame
// count is checked in the traced pass, where the replay holds every
// revision. Events are split over two goroutines (the box has two
// cores); this runs after the measured phase.
func checkMatches(patterns []string, events []*misp.Event, fired map[[2]string]bool) (missing, unsound, expected int64, err error) {
	parsed, err := parsePatterns(patterns)
	if err != nil {
		return 0, 0, 0, err
	}
	const workers = 2
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		matches = map[[2]string]bool{}
		stored  = map[string]bool{}
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := map[[2]string]bool{}
			for i := w; i < len(events); i += workers {
				// -1: the score is the one the analyzer wrote into the event.
				for _, p := range linearMatch(parsed, patterns, events[i], -1) {
					local[[2]string{events[i].UUID, p}] = true
				}
			}
			mu.Lock()
			for k := range local {
				matches[k] = true
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	for _, e := range events {
		stored[e.UUID] = true
	}
	for k := range matches {
		expected++
		if !fired[k] {
			missing++
		}
	}
	for k := range fired {
		if stored[k[0]] && !matches[k] && !strings.Contains(k[1], subscribe.PathThreatScore) {
			unsound++
		}
	}
	return missing, unsound, expected, nil
}

// recoverDurable closes the platform, reopens its directory and checks
// that recovery brought back exactly what was there. It returns the
// time core.New took: WAL and snapshot decode plus the rebuild of the
// correlation index.
func (e *ingestEnv) recoverDurable(g *gate) (float64, error) {
	before, n, err := storeDigest(e.p.TIP())
	if err != nil {
		return 0, err
	}
	e.closeSinks()
	if err := e.p.Close(); err != nil {
		return 0, fmt.Errorf("close platform: %w", err)
	}
	e.p = nil
	start := time.Now()
	p, err := core.New(core.Config{DataDir: e.dir, Logger: quietLogger()})
	took := time.Since(start).Seconds()
	if err != nil {
		return 0, fmt.Errorf("recover platform: %w", err)
	}
	e.p = p
	after, m, err := storeDigest(p.TIP())
	if err != nil {
		return 0, err
	}
	g.require(before == after && n == m, "recovered store differs: %d events digest %x, was %d events digest %x", m, after, n, before)
	return took, nil
}

// runIngest is ingest.mem (dir unused) and ingest.durable.
func runIngest(ctx context.Context, cfg runConfig, durable bool) (*runResult, error) {
	if cfg.Traced {
		return runIngestTraced(ctx, cfg, durable)
	}
	res := newResult(cfg)
	g := &gate{}
	sz := cfg.Sizes

	var (
		env    *ingestEnv
		setups []float64
	)
	for i := 0; i < sz.SetupRepeats; i++ {
		if env != nil {
			env.close()
		}
		start := time.Now()
		dir := ""
		var err error
		if durable {
			if dir, err = scratchDir(cfg.OutDir, cfg.Workload); err != nil {
				return nil, err
			}
		}
		if env, err = bootIngest(cfg, dir, false); err != nil {
			return nil, err
		}
		if err := env.warm(ctx); err != nil {
			env.close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer env.close()

	run, err := env.measure(ctx, time.Duration(cfg.Seconds*float64(time.Second)), sz.MaxRounds, true)
	if err != nil {
		return nil, err
	}
	frames := env.verify(g)
	st := env.p.Stats()

	res.set("setup_s", median(setups))
	res.set("ops_per_s", float64(run.records)/run.elapsed.Seconds())
	lat := summarize(run.latMs)
	res.setTiming("lat_p50_ms", "", lat)
	res.infoTail("lat_tail_ms", lat)
	res.set("live_heap_mb", run.heapMB)

	rounds := summarize(run.roundMs)
	res.info("rounds", float64(run.rounds), "count")
	res.info("records", float64(run.records), "count")
	res.info("measured_s", run.elapsed.Seconds(), "s")
	res.info("round_p50_ms", rounds.P50, "ms")
	res.info("round_max_ms", slices.Max(run.roundMs), "ms")
	res.info("stored_events", float64(st.StoredEvents), "count")
	res.info("riocs", float64(st.RIoCs), "count")
	res.info("match_frames", float64(frames), "count")
	res.info("hot_share", float64(frames)/float64(max(st.EventsCollected, 1)), "ratio")
	if durable {
		d := env.p.Durability()
		res.info("compactions", float64(d.Compactions), "count")
		took, err := env.recoverDurable(g)
		if err != nil {
			return nil, err
		}
		res.info("recover_s", took, "s")
	}
	g.finish(res)
	return res, nil
}
