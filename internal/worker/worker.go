// Package worker is the heuristic component (§IV-A): an Analyzer turns a
// cIoC revision into an eIoC and a Pool feeds it, sharded by event UUID.
// The Analyzer scores; storing the eIoC is its caller's step. caispd
// scores a composed cluster before its one commit (core.Platform) and
// writes back the events others stored; Worker runs the Analyzer as the
// paper's separate process, fed by a TIP's TCP publish socket (the zeroMQ
// channel) and writing back through the TIP REST API.
package worker

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caisplatform/caisp/internal/bus"
	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/correlate"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/ringset"
	"github.com/caisplatform/caisp/internal/stix"
	"github.com/caisplatform/caisp/internal/tip"
)

// maxProcessedTracked bounds the analyzed-revision memory; older entries
// are evicted FIFO (re-analysis of an evicted revision converges: the
// eIoC tag and the score upsert are idempotent).
const maxProcessedTracked = 1 << 16

// shardQueueDepth is the per-shard buffer between a dispatcher and an
// analyzer goroutine.
const shardQueueDepth = 64

// Outcome is what one analysis did with a revision.
type Outcome int

const (
	Failed     Outcome = iota // scoring returned an error
	Enriched                  // scored and tagged as an eIoC, for the caller to store
	Duplicate                 // this revision was analyzed before
	Unscorable                // no SDO of the revision has a heuristic
)

// Analysis is what the heuristic stage made of one revision.
type Analysis struct {
	Outcome Outcome
	// Score is the top threat score of an Enriched revision.
	Score float64
	// SDOs are the revision's scored STIX objects, enriched in place.
	SDOs []stix.Object
}

// Analyzer runs the heuristic stage on cIoC revisions. It is safe for
// concurrent use across distinct events.
type Analyzer struct {
	engine    *heuristic.Engine
	collector *infra.Collector
	clk       clock.Clock
	onRIoC    func(heuristic.RIoC)

	mu        sync.Mutex
	processed *ringset.Set // (UUID, content hash) keys already analyzed
}

// NewAnalyzer builds the heuristic stage around a scoring engine and the
// infrastructure rIoCs are reduced onto; clk stamps the score attribute.
// onRIoC receives each reduced IoC as its SDO is scored.
func NewAnalyzer(engine *heuristic.Engine, collector *infra.Collector, clk clock.Clock, onRIoC func(heuristic.RIoC)) *Analyzer {
	return &Analyzer{engine: engine, collector: collector, clk: clk, onRIoC: onRIoC,
		processed: ringset.New(maxProcessedTracked)}
}

// Analyze scores a revision delivered by the bus, unless that revision was
// analyzed before: it is Score behind the idempotency check.
func (a *Analyzer) Analyze(me *misp.Event) (Analysis, error) {
	if !a.remember(me) {
		return Analysis{Outcome: Duplicate}, nil
	}
	return a.score(me)
}

// Score converts one cIoC revision to STIX, scores, enriches and reduces
// each supported SDO, and turns an Enriched revision into the eIoC by
// "adding the threat score as a new MISP attribute" (§IV-A) and the eIoC
// tag. Storing it is the caller's step. Its cost is that of the revision,
// not of what the TIP holds. The revision is remembered, so its bus copy
// is a Duplicate to Analyze.
//
// The event must be caller-owned (bus-decoded or a pre-store
// composition), never a shared frozen view from the store's copy-free
// read path: Score mutates me in place (DESIGN.md §8).
func (a *Analyzer) Score(me *misp.Event) (Analysis, error) {
	a.remember(me)
	return a.score(me)
}

// remember records the revision's idempotency key and reports whether it
// was new. The key is (UUID, membership hash): a replayed revision of the
// same cluster is skipped, while a grown cluster — same stable UUID, new
// content hash — is re-scored.
func (a *Analyzer) remember(me *misp.Event) bool {
	key := me.UUID
	if h := correlate.ClusterContentOf(me); h != "" {
		key += "\x00" + h
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.processed.Add(key)
}

func (a *Analyzer) score(me *misp.Event) (Analysis, error) {
	bundle, err := misp.ToSTIX(me)
	if errors.Is(err, misp.ErrEmptyBundle) {
		return Analysis{Outcome: Unscorable}, nil // free-text members only
	}
	if err != nil {
		return Analysis{Outcome: Failed}, fmt.Errorf("worker: convert %s: %w", me.UUID, err)
	}
	now := a.clk.Now()
	var res Analysis
	for _, obj := range bundle.Objects {
		ev, err := a.engine.Evaluate(obj)
		if err != nil {
			continue // SDO type without a heuristic (relationships, identities of orgs…)
		}
		heuristic.Enrich(obj, ev)
		res.SDOs = append(res.SDOs, obj)
		if ev.Score > res.Score {
			res.Score = ev.Score
		}
		rioc, err := heuristic.Reduce(obj, ev, a.collector, now)
		if err != nil {
			return Analysis{Outcome: Failed}, err
		}
		if rioc != nil {
			a.onRIoC(*rioc)
		}
	}
	if len(res.SDOs) == 0 {
		return Analysis{Outcome: Unscorable}, nil
	}
	// Upsert: re-analysis of a grown cluster refreshes the attribute
	// instead of stacking duplicates.
	heuristic.SetBaseScore(me, res.Score, now)
	me.AddTag("caisp:eioc")
	res.Outcome = Enriched
	return res, nil
}

// Pool runs an analysis function on goroutines sharded by event UUID, so
// revisions of one event are analyzed in order and never race.
type Pool struct {
	shards []chan *misp.Event
	wg     sync.WaitGroup
	logger *slog.Logger

	received, filtered, undecodable atomic.Int64 // what Consume read
}

// NewPool starts n analyzer goroutines running analyze; values below 1
// use GOMAXPROCS.
func NewPool(n int, logger *slog.Logger, analyze func(*misp.Event)) *Pool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{shards: make([]chan *misp.Event, n), logger: logger}
	for i := range p.shards {
		ch := make(chan *misp.Event, shardQueueDepth)
		p.shards[i] = ch
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for me := range ch {
				analyze(me)
			}
		}()
	}
	return p
}

// shardOf maps an event UUID onto one of n shards (FNV-1a).
func shardOf(uuid string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(uuid); i++ {
		h = (h ^ uint32(uuid[i])) * 16777619
	}
	return int(h % uint32(n))
}

// dispatch routes me to its UUID shard, blocking while the shard queue is
// full (backpressure, never loss). It reports false once ctx is done.
func (p *Pool) dispatch(ctx context.Context, me *misp.Event) bool {
	select {
	case p.shards[shardOf(me.UUID, len(p.shards))] <- me:
		return true
	case <-ctx.Done():
		return false
	}
}

// Consume decodes published events from c and dispatches the cIoCs until
// ctx is done or c closes. Infrastructure data is stored, not analyzed,
// and an eIoC is already scored: an analyzer's own write-back, or a
// cluster caispd committed scored, republished by the TIP. Re-analyzing
// a write-back would loop.
func (p *Pool) Consume(ctx context.Context, c <-chan bus.Message) {
	for {
		select {
		case <-ctx.Done():
			return
		case msg, ok := <-c:
			if !ok {
				return
			}
			p.received.Add(1)
			me, err := misp.UnmarshalWrapped(msg.Payload)
			if err != nil {
				p.undecodable.Add(1)
				p.logger.Warn("bus payload undecodable", "error", err)
				continue
			}
			if !me.HasTag("caisp:cioc") || me.HasTag("caisp:eioc") {
				p.filtered.Add(1)
				continue
			}
			if !p.dispatch(ctx, me) {
				return
			}
		}
	}
}

// Close lets the shards drain their queues and waits for them. Call it
// once nothing dispatches any more.
func (p *Pool) Close() {
	for _, ch := range p.shards {
		close(ch)
	}
	p.wg.Wait()
}

// Config parameterizes a Worker.
type Config struct {
	// BusAddr is the TIP's TCP publish socket ("host:port").
	BusAddr string
	// TIP is the client for writing enriched events back.
	TIP *tip.Client
	// Collector supplies the infrastructure context for scoring.
	Collector *infra.Collector
	// RIoCSink receives reduced IoCs (nil discards them).
	RIoCSink func(heuristic.RIoC)
	// Clock fixes the evaluation clock; nil uses the system clock.
	Clock clock.Clock
	// Metrics registers the worker's caisp_worker_* families into this
	// registry; nil disables instrumentation.
	Metrics *obs.Registry
}

// Stats counts worker activity.
type Stats struct {
	Received  int `json:"received"`
	Skipped   int `json:"skipped"`
	Enriched  int `json:"enriched"`
	RIoCs     int `json:"riocs"`
	Failures  int `json:"failures"`
	Reconnect int `json:"reconnects"`
}

// Worker is a running heuristic component fed by a TIP's publish socket.
type Worker struct {
	analyzer   *Analyzer
	pool       *Pool
	client     *bus.Client
	tip        *tip.Client
	analyzeDur *obs.Histogram // caisp_worker_analyze_seconds; nil without Metrics

	skipped, enriched, riocs, failures atomic.Int64
}

// New validates the configuration and builds a worker. The bus
// subscription (adds and edits: a grown cluster is re-published under its
// stable UUID and must be re-scored) and the analyzer pool start at once,
// so nothing published before Run is lost; Run until its context is
// cancelled releases them.
func New(cfg Config) (*Worker, error) {
	if cfg.BusAddr == "" {
		return nil, fmt.Errorf("worker: bus address required")
	}
	if cfg.TIP == nil {
		return nil, fmt.Errorf("worker: TIP client required")
	}
	if cfg.Collector == nil {
		return nil, fmt.Errorf("worker: infrastructure collector required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	engine := heuristic.NewEngine(
		heuristic.WithInfrastructure(cfg.Collector),
		heuristic.WithClock(cfg.Clock),
		heuristic.WithMetrics(cfg.Metrics),
	)
	w := &Worker{client: bus.Dial(cfg.BusAddr, tip.TopicEventPrefix), tip: cfg.TIP}
	w.analyzer = NewAnalyzer(engine, cfg.Collector, cfg.Clock, func(r heuristic.RIoC) {
		w.riocs.Add(1)
		if cfg.RIoCSink != nil {
			cfg.RIoCSink(r)
		}
	})
	w.pool = NewPool(0, slog.Default(), w.process)
	if reg := cfg.Metrics; reg != nil {
		w.analyzeDur = reg.Histogram("caisp_worker_analyze_seconds",
			"Full analysis of one cIoC: STIX conversion, scoring, write-back.")
		counter := func(name, help string, field func(Stats) int) {
			reg.CounterFunc(name, help, func() float64 { return float64(field(w.Stats())) })
		}
		counter("caisp_worker_received_total", "Bus payloads received.",
			func(s Stats) int { return s.Received })
		counter("caisp_worker_skipped_total", "Payloads skipped (filtered, duplicate or unscorable).",
			func(s Stats) int { return s.Skipped })
		counter("caisp_worker_enriched_total", "Events enriched and written back to the TIP.",
			func(s Stats) int { return s.Enriched })
		counter("caisp_worker_riocs_total", "Reduced IoCs emitted to the sink.",
			func(s Stats) int { return s.RIoCs })
		counter("caisp_worker_failures_total", "Decode or analysis failures.",
			func(s Stats) int { return s.Failures })
		counter("caisp_worker_reconnects_total", "Bus reconnections.",
			func(s Stats) int { return s.Reconnect })
	}
	return w, nil
}

// Run feeds the analyzer pool from the bus until ctx is cancelled, then
// closes the subscription and lets the pool drain.
func (w *Worker) Run(ctx context.Context) {
	w.pool.Consume(ctx, w.client.C())
	w.client.Close()
	w.pool.Close()
}

// Stats returns a snapshot of the worker counters.
func (w *Worker) Stats() Stats {
	return Stats{
		Received:  int(w.pool.received.Load()),
		Skipped:   int(w.pool.filtered.Load() + w.skipped.Load()),
		Enriched:  int(w.enriched.Load()),
		RIoCs:     int(w.riocs.Load()),
		Failures:  int(w.pool.undecodable.Load() + w.failures.Load()),
		Reconnect: w.client.Reconnects(),
	}
}

// process is the pool's analysis function: one revision scored, its eIoC
// written back through the REST API — the paper's second revision of an
// event another process stored — and counted.
func (w *Worker) process(me *misp.Event) {
	start := time.Now()
	res, err := w.analyzer.Analyze(me)
	if err == nil && res.Outcome == Enriched {
		if _, err = w.tip.AddEvent(context.Background(), me); err != nil {
			err = fmt.Errorf("worker: write back eIoC %s: %w", me.UUID, err)
		}
	}
	w.analyzeDur.Observe(time.Since(start).Seconds())
	switch {
	case err != nil:
		w.failures.Add(1)
		slog.Warn("analysis failed", "uuid", me.UUID, "error", err)
	case res.Outcome == Enriched:
		w.enriched.Add(1)
	default:
		w.skipped.Add(1)
	}
}
