// Package worker is the heuristic component (§IV-A): an Analyzer turns a
// cIoC revision into an eIoC. The Analyzer scores; storing the eIoC is its
// caller's step. caispd scores a composed cluster before its one commit
// (core.Platform) and writes back the events others stored; Worker runs
// the Analyzer as the paper's separate process. It follows a TIP's change
// log over the REST API, where the paper subscribes to zeroMQ, and writes
// back through the same API.
package worker

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/mesh"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/stix"
	"github.com/caisplatform/caisp/internal/tip"
)

// maxRecords bounds the score records; older ones are evicted
// FIFO (a cluster without a record is scored in full).
const maxRecords = 1 << 16

// Outcome is what one analysis did with a revision.
type Outcome int

const (
	Failed     Outcome = iota // scoring returned an error
	Enriched                  // scored and tagged as an eIoC, for the caller to store
	Unscorable                // no SDO of the revision has a heuristic
)

// Analysis is what the heuristic stage made of one revision.
type Analysis struct {
	Outcome Outcome
	// Score is the top threat score of an Enriched revision.
	Score float64
}

// Analyzer runs the heuristic stage on cIoC revisions. It keeps no memory
// of what it scored: a revision given twice is scored twice. It is safe
// for concurrent use, on one UUID too: a record only lends a revision
// the blocks whose keys it carries.
//
// It keeps a record of each UUID's last revision of more than one
// conversion block (misp.Conversion): per block, its key, its score, the
// instant until which that score holds, and its rIoCs. The next revision
// of the UUID converts, scores and reduces only the blocks whose key the
// record lacks, or whose score has expired or was taken against other
// infrastructure data; the others' scores and rIoCs come from the record.
// A block's score depends on nothing but its own objects, the instant and
// the collector, so the revision scores as if every block were scored
// afresh.
type Analyzer struct {
	engine    *heuristic.Engine
	collector *infra.Collector
	clk       clock.Clock
	onRIoC    func(heuristic.RIoC)

	converted, reused *obs.Counter // blocks scored afresh and taken from a record

	mu      sync.Mutex
	records recordSet
}

// NewAnalyzer builds the heuristic stage around a scoring engine and the
// infrastructure rIoCs are reduced onto; clk, the engine's clock, stamps
// the score attribute and the rIoCs. onRIoC receives each reduced IoC as
// its SDO is scored.
func NewAnalyzer(engine *heuristic.Engine, collector *infra.Collector, clk clock.Clock, onRIoC func(heuristic.RIoC)) *Analyzer {
	return &Analyzer{engine: engine, collector: collector, clk: clk, onRIoC: onRIoC,
		converted: &obs.Counter{}, reused: &obs.Counter{},
		records: recordSet{byUUID: make(map[string]*record)}}
}

// RegisterMetrics counts the analyzer's blocks in reg as
// caisp_analyzer_blocks_total{outcome="converted|reused"}. Call it before
// the first Score; a nil reg leaves the counts unexported.
func (a *Analyzer) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	blocks := reg.CounterVec("caisp_analyzer_blocks_total",
		"Conversion blocks of scored revisions: converted and scored, or reused from the UUID's record.", "outcome")
	a.converted, a.reused = blocks.With("converted"), blocks.With("reused")
}

// Blocks returns how many conversion blocks were converted and scored,
// and how many were taken from a record.
func (a *Analyzer) Blocks() (converted, reused int64) {
	return a.converted.Value(), a.reused.Value()
}

// Records returns how many UUIDs the analyzer keeps a record for.
func (a *Analyzer) Records() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.records.len()
}

// Forget drops the UUID's record: its event left the store, or a
// revision of it never got in.
func (a *Analyzer) Forget(uuid string) {
	a.mu.Lock()
	a.records.forget(uuid)
	a.mu.Unlock()
}

// Enriched converts me and enriches each SDO that has a heuristic with
// its evaluation: the objects an eIoC shares. It reduces and pushes
// nothing.
func (a *Analyzer) Enriched(me *misp.Event) ([]stix.Object, error) {
	bundle, err := misp.ToSTIX(me)
	if err != nil {
		return nil, err
	}
	sdos := bundle.Objects[:0]
	for _, obj := range bundle.Objects {
		if ev, err := a.engine.Evaluate(obj); err == nil {
			heuristic.Enrich(obj, ev)
			sdos = append(sdos, obj)
		}
	}
	return sdos, nil
}

// Score converts one cIoC revision to STIX, scores and reduces each
// supported SDO, and turns an Enriched revision into the eIoC by "adding
// the threat score as a new MISP attribute" (§IV-A) and the eIoC tag.
// Storing it is the caller's step. Its cost is that of the revision's
// changed blocks, not of what the TIP holds.
//
// The event must be caller-owned (decoded from the wire, a pre-store
// composition or a clone), never a shared frozen view from the store's
// copy-free read path: Score mutates me in place (DESIGN.md §8).
func (a *Analyzer) Score(me *misp.Event) (Analysis, error) {
	conv := misp.Convert(me)
	if len(conv.Head()) == 0 && conv.Len() == 0 {
		return Analysis{Outcome: Unscorable}, nil // free-text members only
	}
	now := a.clk.Now()
	gen := a.collector.Generation()
	// rec is this revision's record, kept for more than one block; prev
	// the last revision's, if its scores were taken against this
	// generation and not after now.
	var rec, prev *record
	if conv.Len() > 1 {
		rec = &record{gen: gen, from: unixNano(now), blocks: make([]blockRecord, 0, conv.Len())}
		a.mu.Lock()
		prev = a.records.byUUID[me.UUID]
		a.mu.Unlock()
		if prev != nil && (prev.gen != gen || rec.from < prev.from) {
			prev = nil
		}
	}

	var res Analysis
	scored := false
	// scoreObjects evaluates and reduces objs, pushing their rIoCs; b, if
	// not nil, takes their top score, expiry and rIoCs.
	scoreObjects := func(objs []stix.Object, b *blockRecord) error {
		for _, obj := range objs {
			ev, err := a.engine.Evaluate(obj)
			if err != nil {
				continue // SDO type without a heuristic (relationships, identities of orgs…)
			}
			scored = true
			res.Score = max(res.Score, ev.Score)
			rioc, err := heuristic.Reduce(obj, ev, a.collector, now)
			if err != nil {
				return err
			}
			if rioc != nil {
				a.onRIoC(*rioc)
			}
			if b == nil {
				continue
			}
			b.score = max(b.score, ev.Score)
			if !ev.Until.IsZero() {
				b.until = min(b.until, unixNano(ev.Until))
			}
			rec.from = max(rec.from, unixNano(ev.EvaluatedAt))
			if rioc != nil {
				rec.riocs = append(rec.riocs, *rioc)
				b.riocs++
			}
		}
		return nil
	}
	if err := scoreObjects(conv.Head(), nil); err != nil {
		return Analysis{Outcome: Failed}, err
	}
	var objs []stix.Object
	var converted, reused int64
	for i := 0; i < conv.Len(); i++ {
		key := conv.Key(i)
		if old := prev.lookup(key, now); old != nil {
			reused++
			if old.score >= 0 {
				scored = true
				res.Score = max(res.Score, old.score)
			}
			b := *old
			b.rioc = int32(len(rec.riocs))
			for _, r := range prev.riocs[old.rioc : old.rioc+old.riocs] {
				r.GeneratedAt = now.UTC()
				a.onRIoC(r)
				rec.riocs = append(rec.riocs, r)
			}
			rec.blocks = append(rec.blocks, b)
			continue
		}
		converted++
		objs = conv.AppendBlock(objs[:0], i)
		if rec == nil {
			if err := scoreObjects(objs, nil); err != nil {
				return Analysis{Outcome: Failed}, err
			}
			continue
		}
		b := blockRecord{key: key, until: math.MaxInt64, score: -1, rioc: int32(len(rec.riocs))}
		if err := scoreObjects(objs, &b); err != nil {
			return Analysis{Outcome: Failed}, err
		}
		rec.blocks = append(rec.blocks, b)
	}
	a.converted.Add(converted)
	a.reused.Add(reused)
	a.mu.Lock()
	if rec != nil {
		rec.sort()
		a.records.put(me.UUID, rec)
	} else {
		a.records.forget(me.UUID)
	}
	a.mu.Unlock()
	if !scored {
		return Analysis{Outcome: Unscorable}, nil
	}
	// Upsert: re-analysis of a grown cluster refreshes the attribute
	// instead of stacking duplicates.
	heuristic.SetBaseScore(me, res.Score, now)
	me.AddTag("caisp:eioc")
	res.Outcome = Enriched
	return res, nil
}

// cursorKey names the worker's cursor in its cursor file.
const cursorKey = "tip"

// Config parameterizes a Worker.
type Config struct {
	// TIP is the client the worker follows the change log through and
	// writes enriched events back with.
	TIP *tip.Client
	// Cursor is the file that keeps the worker's place in the change log
	// (mesh.FileCursors), so a restarted worker resumes where it stopped.
	// Empty keeps the cursor in memory, starting at 0.
	Cursor string
	// Collector supplies the infrastructure context for scoring.
	Collector *infra.Collector
	// RIoCSink receives reduced IoCs (nil discards them).
	RIoCSink func(heuristic.RIoC)
	// Clock fixes the evaluation clock and times retries; nil uses the
	// system clock.
	Clock clock.Clock
	// Metrics registers the worker's caisp_worker_* families into this
	// registry; nil disables instrumentation.
	Metrics *obs.Registry
}

// Stats counts worker activity. A page read again after a failed
// write-back is counted again.
type Stats struct {
	Received int `json:"received"`
	Skipped  int `json:"skipped"`
	Enriched int `json:"enriched"`
	RIoCs    int `json:"riocs"`
	Failures int `json:"failures"`
}

// Worker is a running heuristic component following a TIP's change log.
type Worker struct {
	analyzer   *Analyzer
	follower   *tip.Follower
	cursors    mesh.CursorStore
	tip        *tip.Client
	analyzeDur *obs.Histogram // caisp_worker_analyze_seconds; nil without Metrics

	received, skipped, enriched, riocs, failures atomic.Int64
}

// New validates the configuration, loads the cursor and builds a worker.
// Nothing is read before Run, and nothing committed meanwhile is missed:
// Run starts from the cursor.
func New(cfg Config) (*Worker, error) {
	if cfg.TIP == nil {
		return nil, fmt.Errorf("worker: TIP client required")
	}
	if cfg.Collector == nil {
		return nil, fmt.Errorf("worker: infrastructure collector required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	var cursors mesh.CursorStore = mesh.NewMemCursors()
	if cfg.Cursor != "" {
		cursors = mesh.NewFileCursors(cfg.Cursor)
	}
	saved, err := cursors.Load()
	if err != nil {
		return nil, fmt.Errorf("worker: %w", err)
	}
	engine := heuristic.NewEngine(
		heuristic.WithInfrastructure(cfg.Collector),
		heuristic.WithClock(cfg.Clock),
		heuristic.WithMetrics(cfg.Metrics),
	)
	w := &Worker{
		follower: tip.NewFollower(cfg.TIP, saved[cursorKey].Seq, cfg.Clock, slog.Default()),
		cursors:  cursors,
		tip:      cfg.TIP,
	}
	w.analyzer = NewAnalyzer(engine, cfg.Collector, cfg.Clock, func(r heuristic.RIoC) {
		w.riocs.Add(1)
		if cfg.RIoCSink != nil {
			cfg.RIoCSink(r)
		}
	})
	w.analyzer.RegisterMetrics(cfg.Metrics)
	if reg := cfg.Metrics; reg != nil {
		w.analyzeDur = reg.Histogram("caisp_worker_analyze_seconds",
			"Analysis of one cIoC: STIX conversion, scoring and reduction.")
		counter := func(name, help string, field func(Stats) int) {
			reg.CounterFunc(name, help, func() float64 { return float64(field(w.Stats())) })
		}
		counter("caisp_worker_received_total", "Revisions read from the change log.",
			func(s Stats) int { return s.Received })
		counter("caisp_worker_skipped_total", "Revisions skipped (not a cIoC, or unscorable).",
			func(s Stats) int { return s.Skipped })
		counter("caisp_worker_enriched_total", "Events enriched and written back to the TIP.",
			func(s Stats) int { return s.Enriched })
		counter("caisp_worker_riocs_total", "Reduced IoCs emitted to the sink.",
			func(s Stats) int { return s.RIoCs })
		counter("caisp_worker_failures_total", "Analysis failures and failed write-backs.",
			func(s Stats) int { return s.Failures })
	}
	return w, nil
}

// Run follows the TIP's change log from the cursor until ctx is
// cancelled, handling one page at a time.
func (w *Worker) Run(ctx context.Context) {
	w.follower.Run(ctx, func(page []*misp.Event, next uint64) error {
		return w.handle(ctx, page, next)
	})
}

// Stats returns a snapshot of the worker counters.
func (w *Worker) Stats() Stats {
	return Stats{
		Received: int(w.received.Load()),
		Skipped:  int(w.skipped.Load()),
		Enriched: int(w.enriched.Load()),
		RIoCs:    int(w.riocs.Load()),
		Failures: int(w.failures.Load()),
	}
}

// handle scores a page's Unscored revisions, writes their eIoCs back in
// one batch — the paper's second revision of an event another process
// stored — and saves the cursor past the page. An eIoC is this worker's
// write-back, or a cluster caispd committed scored. A failed write-back
// fails the page, which is read and scored again.
func (w *Worker) handle(ctx context.Context, page []*misp.Event, next uint64) error {
	var enriched []*misp.Event
	for _, me := range page {
		w.received.Add(1)
		if !heuristic.Unscored(me) {
			w.skipped.Add(1)
			continue
		}
		start := time.Now()
		res, err := w.analyzer.Score(me) // decoded from the wire: ours to mutate
		w.analyzeDur.Observe(time.Since(start).Seconds())
		switch {
		case err != nil:
			w.failures.Add(1)
			slog.Warn("analysis failed", "uuid", me.UUID, "error", err)
		case res.Outcome == Enriched:
			enriched = append(enriched, me)
		default:
			w.skipped.Add(1)
		}
	}
	if len(enriched) > 0 {
		if _, err := w.tip.AddEvents(ctx, enriched); err != nil {
			w.failures.Add(1)
			return fmt.Errorf("worker: write back %d eIoCs: %w", len(enriched), err)
		}
		w.enriched.Add(int64(len(enriched)))
	}
	return w.cursors.Save(map[string]mesh.Cursor{cursorKey: {Seq: next}})
}
