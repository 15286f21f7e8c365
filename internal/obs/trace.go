package obs

import (
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
)

// Pipeline stage names stamped on traces. A trace's stage span is the
// time between the previous mark (or the trace start) and its own mark,
// so the five spans partition the end-to-end latency:
//
//	ingest        feed sink entry → dedup decision
//	correlate     dedup → cluster adoption in the flush
//	analyze       adoption → heuristic score computed, rIoCs pushed
//	store_commit  score → group-committed WAL write (fsync) of the eIoC
//	publish       commit → subscription passes and TAXII share done
const (
	StageIngest    = "ingest"
	StageCorrelate = "correlate"
	StageAnalyze   = "analyze"
	StageStore     = "store_commit"
	StagePublish   = "publish"
)

// defaults for NewTracer.
const (
	defaultMaxActive   = 8192
	defaultKeepSlowest = 32
)

// StageSpan is one stage of a finished trace.
type StageSpan struct {
	Stage string  `json:"stage"`
	MS    float64 `json:"ms"`
}

// HopSpan is one mesh replication hop of a cross-node trace: the node
// that pulled the event and how long the event dwelled before that pull
// (time since the previous hop, or since origin ingest for the first
// hop). MS is negative when the upstream side carried no timestamp.
type HopSpan struct {
	Node string  `json:"node"`
	MS   float64 `json:"ms"`
}

// TraceRecord is one finished end-to-end trace.
type TraceRecord struct {
	// ID is the identity the trace finished under — the cluster UUID for
	// adopted pipeline traces, the normalized event ID otherwise.
	ID string `json:"id"`
	// Start is when the first member event entered the pipeline.
	Start time.Time `json:"start"`
	// TotalMS is the end-to-end wall time in milliseconds.
	TotalMS float64     `json:"total_ms"`
	Stages  []StageSpan `json:"stages,omitempty"`

	// Origin, OriginSeq and Hops are set on cross-node replication
	// traces (RecordImport): the node that first ingested the event, its
	// ingest sequence there, and the per-hop path the event took to
	// arrive here. Empty on single-node pipeline traces.
	Origin    string    `json:"origin,omitempty"`
	OriginSeq uint64    `json:"origin_seq,omitempty"`
	Hops      []HopSpan `json:"hops,omitempty"`
}

// trace is an in-flight journey.
type trace struct {
	id    string
	start time.Time
	marks []stageMark
}

type stageMark struct {
	stage string
	at    time.Time
}

// Tracer stamps each IoC's journey through the pipeline, feeding
// per-stage latency histograms and keeping a ring of the N slowest
// end-to-end traces with stage breakdowns. All methods are safe for
// concurrent use, and all methods on a nil *Tracer no-op, so the
// un-instrumented ablation costs one nil check.
//
// The active set is bounded: once maxActive journeys are in flight,
// Start evicts the oldest (counted in caisp_trace_dropped_total), so a
// stalled pipeline cannot grow the tracer without bound.
type Tracer struct {
	mu      sync.Mutex
	active  map[string]*trace
	fifo    []string      // Start order, for eviction
	slowest []TraceRecord // ascending by TotalMS, capped at keep
	imports []TraceRecord // most recent cross-node traces, capped at keep

	maxActive int
	keep      int
	clk       clock.Clock

	stageHist *HistogramVec // caisp_trace_stage_seconds{stage}
	e2eHist   *Histogram    // caisp_trace_end_to_end_seconds
	finished  *Counter      // caisp_trace_finished_total
	dropped   *Counter      // caisp_trace_dropped_total
}

// TracerOption configures NewTracer.
type TracerOption interface{ apply(*Tracer) }

type clockOption struct{ clk clock.Clock }

func (o clockOption) apply(t *Tracer) { t.clk = o.clk }

// WithClock sets the tracer clock that stamps stages (tests pin it).
func WithClock(clk clock.Clock) TracerOption { return clockOption{clk: clk} }

// NewTracer builds a tracer registering its histograms and counters into
// reg. A nil registry yields a nil tracer — the no-op ablation.
func NewTracer(reg *Registry, opts ...TracerOption) *Tracer {
	if reg == nil {
		return nil
	}
	t := &Tracer{
		active:    make(map[string]*trace),
		maxActive: defaultMaxActive,
		keep:      defaultKeepSlowest,
		clk:       clock.Real(),
		stageHist: reg.HistogramVec("caisp_trace_stage_seconds",
			"Per-stage latency of traced IoC journeys.", nil, "stage"),
		e2eHist: reg.Histogram("caisp_trace_end_to_end_seconds",
			"End-to-end latency from feed sink entry to dashboard upsert."),
		finished: reg.Counter("caisp_trace_finished_total",
			"Traces completed end to end."),
		dropped: reg.Counter("caisp_trace_dropped_total",
			"Traces evicted or abandoned before finishing."),
	}
	for _, o := range opts {
		o.apply(t)
	}
	return t
}

// Start begins a trace for id. An existing in-flight trace under the
// same id is restarted.
func (t *Tracer) Start(id string) {
	if t == nil {
		return
	}
	now := t.clk.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.active) >= t.maxActive {
		t.evictOldestLocked()
	}
	if _, ok := t.active[id]; !ok {
		t.fifo = append(t.fifo, id)
	}
	t.active[id] = &trace{id: id, start: now}
}

// evictOldestLocked drops the oldest in-flight trace. Caller holds mu.
func (t *Tracer) evictOldestLocked() {
	for len(t.fifo) > 0 {
		victim := t.fifo[0]
		t.fifo = t.fifo[1:]
		if _, ok := t.active[victim]; ok {
			delete(t.active, victim)
			t.dropped.Inc()
			return
		}
	}
}

// Mark stamps the completion of a stage on an in-flight trace. Unknown
// ids are ignored (the trace was evicted or never started).
func (t *Tracer) Mark(id, stage string) {
	if t == nil {
		return
	}
	now := t.clk.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if tr, ok := t.active[id]; ok {
		tr.marks = append(tr.marks, stageMark{stage: stage, at: now})
	}
}

// Adopt re-keys the journey of a cluster: the member traces are removed
// and the earliest-started one continues under newID with stage marked.
// Used at the flush boundary, where N normalized events become one
// cluster event. If no member has an in-flight trace, nothing happens.
func (t *Tracer) Adopt(newID, stage string, memberIDs []string) {
	if t == nil {
		return
	}
	now := t.clk.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	var oldest *trace
	for _, id := range memberIDs {
		tr, ok := t.active[id]
		if !ok {
			continue
		}
		delete(t.active, id)
		if oldest == nil || tr.start.Before(oldest.start) {
			oldest = tr
		}
	}
	if oldest == nil {
		return
	}
	if _, ok := t.active[newID]; !ok {
		t.fifo = append(t.fifo, newID)
	}
	oldest.id = newID
	oldest.marks = append(oldest.marks, stageMark{stage: stage, at: now})
	t.active[newID] = oldest
}

// Drop abandons an in-flight trace (duplicate event, unscorable
// cluster, retracted identity).
func (t *Tracer) Drop(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.active[id]; ok {
		delete(t.active, id)
		t.dropped.Inc()
	}
}

// Finish completes a trace: the final stage is stamped, per-stage and
// end-to-end histograms observed, and the trace retained if it is among
// the slowest seen.
func (t *Tracer) Finish(id, finalStage string) {
	if t == nil {
		return
	}
	now := t.clk.Now()
	t.mu.Lock()
	tr, ok := t.active[id]
	if !ok {
		t.mu.Unlock()
		return
	}
	delete(t.active, id)
	tr.marks = append(tr.marks, stageMark{stage: finalStage, at: now})

	total := now.Sub(tr.start)
	rec := TraceRecord{
		ID:      tr.id,
		Start:   tr.start,
		TotalMS: float64(total) / float64(time.Millisecond),
		Stages:  make([]StageSpan, 0, len(tr.marks)),
	}
	prev := tr.start
	for _, m := range tr.marks {
		span := m.at.Sub(prev)
		if span < 0 {
			span = 0
		}
		rec.Stages = append(rec.Stages, StageSpan{
			Stage: m.stage,
			MS:    float64(span) / float64(time.Millisecond),
		})
		prev = m.at
	}
	t.insertSlowestLocked(rec)
	t.mu.Unlock()

	// Observe outside the tracer lock: histograms are lock-free.
	for _, s := range rec.Stages {
		t.stageHist.With(s.Stage).Observe(s.MS / 1e3)
	}
	t.e2eHist.Observe(total.Seconds())
	t.finished.Inc()
}

// insertSlowestLocked keeps t.slowest sorted ascending by TotalMS and
// capped at t.keep. Caller holds mu.
func (t *Tracer) insertSlowestLocked(rec TraceRecord) {
	i := sort.Search(len(t.slowest), func(i int) bool {
		return t.slowest[i].TotalMS >= rec.TotalMS
	})
	if len(t.slowest) < t.keep {
		t.slowest = append(t.slowest, TraceRecord{})
		copy(t.slowest[i+1:], t.slowest[i:])
		t.slowest[i] = rec
		return
	}
	if i == 0 {
		return // faster than everything retained
	}
	// Drop the current fastest to make room.
	copy(t.slowest[:i-1], t.slowest[1:i])
	t.slowest[i-1] = rec
}

// RecordImport registers a finished cross-node replication trace: an
// event that originated on another node and just landed here over the
// mesh, carrying provenance p (with this node's own hop already
// appended by the importer). The record reconstructs the per-hop
// latencies from consecutive pull timestamps and is retained in a
// most-recent ring served on GET /debug/traces alongside the slowest
// pipeline traces. Nil-safe.
func (t *Tracer) RecordImport(uuid string, p *Provenance) {
	if t == nil || p == nil {
		return
	}
	now := t.clk.Now()
	rec := TraceRecord{
		ID:        uuid,
		Origin:    p.Origin,
		OriginSeq: p.OriginSeq,
		Start:     now,
	}
	if p.IngestUnixNano > 0 {
		rec.Start = time.Unix(0, p.IngestUnixNano)
		rec.TotalMS = float64(now.Sub(rec.Start)) / float64(time.Millisecond)
	}
	prev := p.IngestUnixNano
	for _, h := range p.Hops {
		ms := -1.0 // upstream carried no timestamp: dwell time unknown
		if prev > 0 && h.PulledUnixNano >= prev {
			ms = float64(h.PulledUnixNano-prev) / float64(time.Millisecond)
		}
		rec.Hops = append(rec.Hops, HopSpan{Node: h.Node, MS: ms})
		prev = h.PulledUnixNano
	}
	t.mu.Lock()
	t.imports = append(t.imports, rec)
	if len(t.imports) > t.keep {
		t.imports = t.imports[len(t.imports)-t.keep:]
	}
	t.mu.Unlock()
	t.finished.Inc()
}

// Imports returns the retained cross-node replication traces, newest
// first. Nil-safe.
func (t *Tracer) Imports() []TraceRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceRecord, len(t.imports))
	for i := range t.imports {
		out[len(t.imports)-1-i] = t.imports[i]
	}
	return out
}

// Slowest returns the retained slowest traces, slowest first. Nil-safe.
func (t *Tracer) Slowest() []TraceRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceRecord, len(t.slowest))
	for i := range t.slowest {
		out[len(t.slowest)-1-i] = t.slowest[i]
	}
	return out
}

// Active reports the number of in-flight traces. Nil-safe.
func (t *Tracer) Active() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.active)
}

// Handler serves the retained traces as JSON — GET /debug/traces: the
// slowest pipeline traces (slowest first) followed by the most recent
// cross-node replication traces (origin node + per-hop latencies).
// Nil-safe: a nil tracer serves an empty array.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		recs := append(t.Slowest(), t.Imports()...)
		if recs == nil {
			recs = []TraceRecord{}
		}
		WriteJSON(w, http.StatusOK, recs)
	})
}
