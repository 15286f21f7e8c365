package lifecycle

import (
	"context"
	"errors"
	"log/slog"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/correlate"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/obs/health"
	"github.com/caisplatform/caisp/internal/storage"
)

// Defaults. The interval and floor have With… overrides, where zero or
// negative keeps the default; the batch size and history depth are fixed.
const (
	defaultBatch        = 512
	defaultInterval     = time.Minute
	defaultFloor        = 0.3
	defaultHistoryDepth = 32
)

// Sample is one point of an indicator's score history.
type Sample struct {
	At    time.Time `json:"at"`
	Score float64   `json:"score"`
}

// history is the bounded per-indicator score ring.
type history struct {
	pass    uint64 // last full-scan pass that saw the indicator live
	samples []Sample
	next    int
	full    bool
}

func (h *history) add(s Sample, depth int) {
	if len(h.samples) < depth && !h.full {
		h.samples = append(h.samples, s)
		h.next = len(h.samples) % depth
		h.full = len(h.samples) == depth && h.next == 0
		return
	}
	h.samples[h.next] = s
	h.next = (h.next + 1) % len(h.samples)
	h.full = true
}

// lastIndex is the slot of the most recently written sample; callers
// guarantee the ring is non-empty.
func (h *history) lastIndex() int {
	if h.full {
		return (h.next - 1 + len(h.samples)) % len(h.samples)
	}
	return len(h.samples) - 1
}

// ordered returns the ring oldest-first.
func (h *history) ordered() []Sample {
	if !h.full {
		return append([]Sample(nil), h.samples...)
	}
	out := make([]Sample, 0, len(h.samples))
	out = append(out, h.samples[h.next:]...)
	return append(out, h.samples[:h.next]...)
}

// Engine is the background re-score scheduler. One RunOnce processes a
// bounded batch of the store's change log, oldest ingest first,
// re-computing every visited indicator's decayed score and expiring
// the ones that fell through the floor; Run calls RunOnce on an
// interval. A pass walks the log up to the sequence the store had when
// the pass began, so it costs O(store) spread over store/batch runs
// however fast events arrive: whatever lands after that mark (ingest,
// late imports, edits, the engine's own re-scores) waits for the next
// pass.
type Engine struct {
	store    *storage.Store
	policies map[string]Policy
	floor    float64
	batch    int
	interval time.Duration
	depth    int
	clk      clock.Clock
	sight    func() map[string]time.Time
	expire   func(uuid string) error
	logger   *slog.Logger

	mu   sync.Mutex // serializes RunOnce: scan cursor + pass counter
	cur  uint64     // change-log sequence the pass resumes after; 0 starts a pass
	mark uint64     // store.Seq() when the pass began: where it ends
	pass uint64

	histMu sync.RWMutex
	hist   map[string]*history

	scanned   atomic.Int64
	rescored  atomic.Int64
	expired   atomic.Int64
	refreshes atomic.Int64
	passes    atomic.Int64
	steps     atomic.Int64

	mScan *obs.Histogram
}

// Option configures the engine.
type Option func(*Engine)

// WithFloor sets the expiry floor: an indicator whose decayed score
// reaches it (or whose unscored age exceeds its category lifetime) is
// deleted. Zero keeps the default.
func WithFloor(f float64) Option { return func(e *Engine) { e.floor = f } }

// WithInterval sets the Run loop period. Zero keeps the default.
func WithInterval(d time.Duration) Option { return func(e *Engine) { e.interval = d } }

// WithClock sets the clock the Run loop ticks on and evaluates at, and
// that ProgressCheck measures on.
func WithClock(clk clock.Clock) Option { return func(e *Engine) { e.clk = clk } }

// WithSightings wires the sighting-refresh clock: a function returning
// the latest member sighting per cluster UUID (one call per RunOnce —
// correlate.Incremental.LastSightings). A sighting newer than the
// event's own attribute timestamps resets the decay age.
func WithSightings(fn func() map[string]time.Time) Option {
	return func(e *Engine) { e.sight = fn }
}

// WithExpireHook replaces the default store deletion with a caller
// route (the platform deletes through the TIP service so the deletion
// is published, dropped from dashboards and tombstoned for the mesh).
// A hook answering storage.ErrNotFound means the indicator is already
// gone, which counts as expired.
func WithExpireHook(fn func(uuid string) error) Option {
	return func(e *Engine) { e.expire = fn }
}

// WithLogger routes scan warnings.
func WithLogger(l *slog.Logger) Option { return func(e *Engine) { e.logger = l } }

// WithMetrics registers the caisp_lifecycle_* metric family: the
// counters are scrape-time views of the atomics Stats reads.
func WithMetrics(reg *obs.Registry) Option {
	return func(e *Engine) {
		counter := func(name, help string, v *atomic.Int64) {
			reg.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
		}
		counter("caisp_lifecycle_rescored_total",
			"Indicators whose decayed score was re-computed and landed.", &e.rescored)
		counter("caisp_lifecycle_expired_total",
			"Indicators expired (deleted) after decaying through the floor.", &e.expired)
		counter("caisp_lifecycle_sighting_refreshes_total",
			"Decay ages reset by a correlator sighting newer than the stored event.", &e.refreshes)
		e.mScan = reg.Histogram("caisp_lifecycle_scan_seconds",
			"RunOnce latency: one bounded re-score batch.")
		reg.GaugeFunc("caisp_lifecycle_tracked",
			"Indicators with a live score-history ring.",
			func() float64 {
				e.histMu.RLock()
				defer e.histMu.RUnlock()
				return float64(len(e.hist))
			})
	}
}

// New builds an engine over the store. Call Run for the background
// loop or RunOnce directly (tests).
func New(store *storage.Store, opts ...Option) *Engine {
	e := &Engine{
		store:    store,
		policies: DefaultPolicies(),
		floor:    defaultFloor,
		batch:    defaultBatch,
		interval: defaultInterval,
		depth:    defaultHistoryDepth,
		clk:      clock.Real(),
		logger:   slog.Default(),
		hist:     make(map[string]*history),
	}
	for _, o := range opts {
		o(e)
	}
	if e.interval <= 0 {
		e.interval = defaultInterval
	}
	if e.floor <= 0 {
		e.floor = defaultFloor
	}
	return e
}

// Run calls RunOnce every interval until ctx ends.
func (e *Engine) Run(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-e.clk.After(e.interval):
			if _, err := e.RunOnce(e.clk.Now()); err != nil {
				e.logger.Warn("lifecycle: re-score batch failed", "error", err)
			}
		}
	}
}

// ProgressCheck degrades once no RunOnce step has landed for within on
// the engine's clock. It counts steps, not passes: a pass takes one step
// per interval for each batch the store holds, so on a large store it
// outlasts any fixed window while the engine is alive.
func ProgressCheck(e *Engine, within time.Duration) health.Check {
	return health.Progress(e.steps.Load, within, e.clk)
}

// Result summarizes one RunOnce.
type Result struct {
	// Scanned is how many live events the run visited.
	Scanned int `json:"scanned"`
	// Rescored counts landed decayed-score edits, Expired deletions, and
	// Refreshed decay ages reset by a newer correlator sighting.
	Rescored  int `json:"rescored"`
	Expired   int `json:"expired"`
	Refreshed int `json:"refreshed"`
	// Wrapped reports that the incremental cursor completed a full pass
	// over the store and reset.
	Wrapped bool `json:"wrapped"`
}

// RunOnce executes one scheduler step at the given instant: one bounded
// batch resumed from the incremental cursor.
// Decayed scores are a pure function of (base score, last sighting,
// now) — the cursor position and batch boundaries only decide *when* a
// score is refreshed, never its value.
func (e *Engine) RunOnce(now time.Time) (Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	defer func(start time.Time) {
		if e.mScan != nil {
			e.mScan.Observe(time.Since(start).Seconds())
		}
	}(time.Now())

	var sight map[string]time.Time
	if e.sight != nil {
		sight = e.sight()
	}
	var res Result
	if e.cur == 0 {
		e.mark = e.store.Seq()
	}
	page, next, more, err := e.store.ChangesPage(e.cur, e.batch)
	if err != nil {
		return res, err
	}
	if err := e.processPage(page, now, sight, &res); err != nil {
		return res, err
	}
	e.steps.Add(1)
	e.cur = next
	if !more || next >= e.mark {
		e.wrap(&res)
	}
	return res, nil
}

// wrap finishes a full pass: reset the cursor and prune history rings
// of indicators not seen live for two consecutive passes (deleted
// behind our back — mesh tombstones, merges).
func (e *Engine) wrap(res *Result) {
	e.cur = 0
	e.pass++
	e.passes.Add(1)
	res.Wrapped = true
	e.histMu.Lock()
	for uuid, h := range e.hist {
		if h.pass+2 <= e.pass {
			delete(e.hist, uuid)
		}
	}
	e.histMu.Unlock()
}

// processPage re-scores one page of store views. Edits are cloned and
// landed through a single group-committed PutBatch; expirations go
// through the expire hook one by one (each is a WAL-logged tombstone).
func (e *Engine) processPage(page []*misp.Event, now time.Time, sight map[string]time.Time, res *Result) error {
	var puts []*misp.Event
	for _, ev := range page {
		res.Scanned++
		e.scanned.Add(1)
		decayed, action := e.evaluate(ev, now, sight, res)
		switch action {
		case actionSkip:
		case actionExpire:
			e.expireOne(ev.UUID)
			res.Expired++
			e.expired.Add(1)
		case actionRescore:
			clone, err := e.store.GetClone(ev.UUID)
			if err != nil {
				continue // raced with a concurrent delete; next pass settles it
			}
			if heuristic.SetDecayedScore(clone, decayed, now) {
				puts = append(puts, clone)
			}
			e.record(ev.UUID, Sample{At: now, Score: decayed})
		}
	}
	if len(puts) > 0 {
		seqs, err := e.store.PutBatch(puts, nil)
		if err != nil {
			return err
		}
		for _, seq := range seqs {
			if seq != 0 { // not refused
				res.Rescored++
				e.rescored.Add(1)
			}
		}
	}
	return nil
}

type action int

const (
	actionSkip action = iota
	actionRescore
	actionExpire
)

// evaluate decides one indicator's fate at instant now. Pure over the
// event content, the sighting clock and now — nothing scheduler-shaped
// leaks in, which is what the batch-boundary property test pins down.
func (e *Engine) evaluate(ev *misp.Event, now time.Time, sight map[string]time.Time, res *Result) (float64, action) {
	if heuristic.Unscored(ev) {
		// A cluster the analyzer has not scored yet (or could not score).
		// Mid-pipeline events must not be raced; they still age out on the
		// category lifetime so unscorable clusters cannot pin the store.
		if age := now.Sub(e.lastActivity(ev, sight, res)); age >= e.policy(ev).Tau {
			return 0, actionExpire
		}
		return 0, actionSkip
	}
	base, scored := heuristic.BaseScoreOf(ev)
	pol := e.policy(ev)
	age := now.Sub(e.lastActivity(ev, sight, res))
	if !scored {
		// No analyzer score to decay: plain events (REST adds, mesh
		// imports of foreign events) live one category lifetime.
		if age >= pol.Tau {
			return 0, actionExpire
		}
		return 0, actionSkip
	}
	decayed := quantize(Score(base, age, pol))
	if decayed <= e.floor {
		return 0, actionExpire
	}
	if cur, ok := heuristic.DecayedScoreOf(ev); ok && quantize(cur) == decayed {
		// Unchanged at quantization granularity: no write, no churn. The
		// ring still notes the visit so history survives quiet periods.
		e.record(ev.UUID, Sample{At: now, Score: decayed})
		return decayed, actionSkip
	}
	return decayed, actionRescore
}

// quantize rounds to 2 decimals — the write granularity. Coarser than
// the 4 decimals stored, it turns near-identical re-computations into
// no-ops instead of WAL churn.
func quantize(v float64) float64 { return math.Round(v*100) / 100 }

// policy resolves the event's category decay policy.
func (e *Engine) policy(ev *misp.Event) Policy {
	if cat := correlate.CategoryOf(ev); cat != "" {
		if p, ok := e.policies[cat]; ok {
			return p
		}
	}
	if p, ok := e.policies["unknown"]; ok {
		return p
	}
	return Policy{Tau: 90 * 24 * time.Hour, Delta: 2}
}

// lastActivity is the indicator's most recent sighting: the newest
// attribute timestamp (member sightings, analyzer write-backs) — the
// engine's own decayed-score attribute excluded, or decay would feed
// itself — possibly advanced by the correlator's sighting clock.
func (e *Engine) lastActivity(ev *misp.Event, sight map[string]time.Time, res *Result) time.Time {
	var last time.Time
	for i := range ev.Attributes {
		a := &ev.Attributes[i]
		if a.Type == "comment" && strings.HasPrefix(a.Value, heuristic.DecayedScorePrefix) {
			continue
		}
		if a.Timestamp.After(last) {
			last = a.Timestamp.Time
		}
	}
	if last.IsZero() {
		last = ev.Timestamp.Time
	}
	if s, ok := sight[ev.UUID]; ok && s.After(last) {
		last = s
		res.Refreshed++
		e.refreshes.Add(1)
	}
	return last
}

func (e *Engine) expireOne(uuid string) {
	var err error
	if e.expire != nil {
		err = e.expire(uuid)
	} else {
		err = e.store.Delete(uuid)
	}
	if err != nil && !errors.Is(err, storage.ErrNotFound) {
		e.logger.Warn("lifecycle: expiry failed", "uuid", uuid, "error", err)
		return
	}
	e.histMu.Lock()
	delete(e.hist, uuid)
	e.histMu.Unlock()
}

// record notes a score observation. Consecutive identical scores
// collapse into one sample whose At slides forward, so a ring of depth
// k holds the last k score *changes*, not the last k scans.
func (e *Engine) record(uuid string, s Sample) {
	e.histMu.Lock()
	defer e.histMu.Unlock()
	h := e.hist[uuid]
	if h == nil {
		h = &history{}
		e.hist[uuid] = h
	}
	h.pass = e.pass
	if len(h.samples) > 0 {
		if last := &h.samples[h.lastIndex()]; last.Score == s.Score {
			last.At = s.At
			return
		}
	}
	h.add(s, e.depth)
}

// History returns the indicator's score samples oldest-first, or nil
// when untracked.
func (e *Engine) History(uuid string) []Sample {
	e.histMu.RLock()
	defer e.histMu.RUnlock()
	h := e.hist[uuid]
	if h == nil {
		return nil
	}
	return h.ordered()
}

// Tracked lists the UUIDs with a live history ring, sorted.
func (e *Engine) Tracked() []string {
	e.histMu.RLock()
	out := make([]string, 0, len(e.hist))
	for uuid := range e.hist {
		out = append(out, uuid)
	}
	e.histMu.RUnlock()
	sort.Strings(out)
	return out
}

// Stats is the cumulative counter snapshot.
type Stats struct {
	Scanned   int64 `json:"scanned"`
	Rescored  int64 `json:"rescored"`
	Expired   int64 `json:"expired"`
	Refreshes int64 `json:"sighting_refreshes"`
	Passes    int64 `json:"passes"`
	Tracked   int   `json:"tracked"`
	StoreLen  int   `json:"store_events"`
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	e.histMu.RLock()
	tracked := len(e.hist)
	e.histMu.RUnlock()
	return Stats{
		Scanned:   e.scanned.Load(),
		Rescored:  e.rescored.Load(),
		Expired:   e.expired.Load(),
		Refreshes: e.refreshes.Load(),
		Passes:    e.passes.Load(),
		Tracked:   tracked,
		StoreLen:  e.store.Len(),
	}
}
