// Package obs is the platform's observability layer: a dependency-free,
// Prometheus-text-compatible metrics registry plus a per-event stage
// tracer (trace.go). Every pipeline package registers its caisp_* metric
// families into one Registry owned by the running daemon; GET /metrics
// renders the whole registry in Prometheus exposition format.
//
// The registry is built for hot paths: counters and gauges are single
// atomics, histograms are fixed-bucket atomic arrays, and the entire API
// degrades to no-ops through nil receivers — constructing metrics from a
// nil *Registry yields nil handles whose methods return immediately, so
// the un-instrumented ablation (core's DisableMetrics, the bench-obs
// baseline) pays only a nil check per call site.
//
// A fact a component already counts for its Stats is not counted again
// here: CounterFunc and GaugeFunc, and for labelled families
// CounterVec.Func and GaugeVec.Func, render that count at scrape time,
// so /stats and /metrics read one counter. A Func child exists from
// registration and reads 0 until its count moves.
//
// Metric names must match ^caisp_[a-z_]+$ and may be registered exactly
// once per Registry; both rules are enforced at registration time (panic)
// and by `make metrics-lint`.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency histogram bounds in seconds: 1µs to
// 10s, covering everything from a lock-free counter bump to a blocking
// compaction stall.
var DefBuckets = []float64{
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets are histogram bounds for batch/record counts.
var SizeBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// metricKind tags a family for the TYPE line of the exposition.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// family is one registered metric name: its metadata plus either a set of
// labeled children or a single unlabeled child.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string // label names for vec families, nil otherwise

	mu       sync.Mutex
	children map[string]child // label-values key → child; "" for unlabeled
	order    []string         // registration order of children keys
}

// child is anything that can render sample lines for one label set.
type child interface {
	sample() sample
}

// sample is the rendered value(s) of one child.
type sample struct {
	value float64 // counters and gauges
	hist  *HistogramSnapshot
}

// Registry holds metric families and renders them in Prometheus text
// format. A nil *Registry is the no-op registry: every constructor
// returns a nil handle and WritePrometheus renders nothing.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // registration order; sorted at render time
}

// NewRegistry constructs an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName reports whether name matches ^caisp_[a-z_]+$.
func validName(name string) bool {
	if !strings.HasPrefix(name, "caisp_") || len(name) == len("caisp_") {
		return false
	}
	for i := len("caisp_"); i < len(name); i++ {
		c := name[i]
		if (c < 'a' || c > 'z') && c != '_' {
			return false
		}
	}
	return true
}

// register installs a new family, enforcing the naming and exactly-once
// rules. Caller state is programmer error, hence panic.
func (r *Registry) register(name, help string, kind metricKind, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: metric name %q does not match caisp_[a-z_]+", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   labels,
		children: make(map[string]child),
	}
	r.families[name] = f
	r.names = append(r.names, name)
	return f
}

// labeled resolves (creating if needed) the child for one set of label
// values, one per label name in registration order.
func (f *family) labeled(values []string, mk func() child) child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	return f.child(labelKey(values), mk)
}

// child resolves (creating if needed) the child for one label-values key.
func (f *family) child(key string, mk func() child) child {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := mk()
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// Names returns the registered family names, sorted. Nil-safe.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]string(nil), r.names...)
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing value. Nil receivers no-op.
type Counter struct {
	v atomic.Int64
}

func (c *Counter) sample() sample { return sample{value: float64(c.v.Load())} }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n (negative n is ignored).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count. Nil-safe (0).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter registers an unlabeled counter. Returns nil on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	f := r.register(name, help, kindCounter, nil)
	f.child("", func() child { return c })
	return c
}

// funcChild renders a value computed at scrape time.
type funcChild struct {
	fn func() float64
}

func (fc funcChild) sample() sample { return sample{value: fc.fn()} }

// CounterFunc registers a counter whose value is computed at scrape time
// — the bridge from a component's own stats counter into the registry
// without double bookkeeping. fn must be monotonic and safe for
// concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.register(name, help, kindCounter, nil)
	f.child("", func() child { return funcChild{fn: fn} })
}

// Gauge is a value that can go up and down. Nil receivers no-op.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

func (g *Gauge) sample() sample { return sample{value: g.Value()} }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value. Nil-safe (0).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Gauge registers an unlabeled gauge. Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	f := r.register(name, help, kindGauge, nil)
	f.child("", func() child { return g })
	return g
}

// GaugeFunc registers a gauge computed at scrape time. fn must be safe
// for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.register(name, help, kindGauge, nil)
	f.child("", func() child { return funcChild{fn: fn} })
}

// ---------------------------------------------------------------------------
// Histogram

// Histogram is a fixed-bucket latency/size distribution. Observe is
// lock-free: a binary search over the bounds plus two atomic adds.
// Nil receivers no-op.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf implicit
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1), // +1 for +Inf
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time view of a histogram.
type HistogramSnapshot struct {
	// Bounds are the ascending bucket upper bounds (seconds for latency
	// histograms); Counts[i] is the number of observations <= Bounds[i]
	// (cumulative, Prometheus-style), with Counts[len(Bounds)] the +Inf
	// total.
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Snapshot returns a consistent-enough view for exposition: per-bucket
// counts are read atomically and cumulated. Nil-safe (nil snapshot).
func (h *Histogram) Snapshot() *HistogramSnapshot {
	if h == nil {
		return nil
	}
	s := &HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		s.Counts[i] = cum
	}
	return s
}

func (h *Histogram) sample() sample { return sample{hist: h.Snapshot()} }

// Histogram registers an unlabeled histogram with the given bucket upper
// bounds (DefBuckets when empty). Returns nil on a nil registry.
func (r *Registry) Histogram(name, help string, buckets ...float64) *Histogram {
	if r == nil {
		return nil
	}
	h := newHistogram(buckets)
	f := r.register(name, help, kindHistogram, nil)
	f.child("", func() child { return h })
	return h
}

// ---------------------------------------------------------------------------
// Labeled families

// labelKey joins label values into a map key ('\xff' cannot appear in
// valid UTF-8 label values produced by this codebase).
func labelKey(values []string) string { return strings.Join(values, "\xff") }

// CounterVec is a counter family with labels. Nil receivers no-op.
type CounterVec struct {
	f *family
}

// With resolves the child counter for the given label values (one per
// label name, in registration order). Nil-safe (nil child).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.labeled(values, func() child { return &Counter{} }).(*Counter)
}

// Func installs the child for the given label values as a counter
// computed at scrape time — the labelled form of CounterFunc. fn must be
// monotonic and safe for concurrent use. A label set that already has a
// child keeps it. Nil-safe.
func (v *CounterVec) Func(fn func() float64, values ...string) {
	if v == nil {
		return
	}
	v.f.labeled(values, func() child { return funcChild{fn: fn} })
}

// CounterVec registers a labeled counter family. Returns nil on a nil
// registry.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(name, help, kindCounter, labels)}
}

// GaugeVec is a gauge family with labels. Nil receivers no-op.
type GaugeVec struct {
	f *family
}

// With resolves the child gauge for the given label values. Nil-safe.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.labeled(values, func() child { return &Gauge{} }).(*Gauge)
}

// Func installs the child for the given label values as a gauge computed
// at scrape time; fn must be safe for concurrent use. A label set that
// already has a child keeps it. Nil-safe.
func (v *GaugeVec) Func(fn func() float64, values ...string) {
	if v == nil {
		return
	}
	v.f.labeled(values, func() child { return funcChild{fn: fn} })
}

// GaugeVec registers a labeled gauge family. Returns nil on a nil
// registry.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.register(name, help, kindGauge, labels)}
}

// HistogramVec is a histogram family with labels. Nil receivers no-op.
type HistogramVec struct {
	f       *family
	buckets []float64
}

// With resolves the child histogram for the given label values. Nil-safe.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.labeled(values, func() child { return newHistogram(v.buckets) }).(*Histogram)
}

// HistogramVec registers a labeled histogram family sharing one bucket
// layout (DefBuckets when nil). Returns nil on a nil registry.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{
		f:       r.register(name, help, kindHistogram, labels),
		buckets: buckets,
	}
}
