// Package dedup implements the deduplication stage of the OSINT Data
// Collector: "the component resorts of a deduplicator mechanism that
// compares the data received with the data already stored …, looking for
// security events equal to the received ones, and erases the duplicated
// ones" (paper §III-A1). An exact set keyed by the deterministic event ID
// decides every offer and folds a duplicate's observation window into the
// retained event.
package dedup

import (
	"sync"
	"time"

	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/obs"
)

// Stats counts the deduper's decisions.
type Stats struct {
	// Seen is the total number of events offered.
	Seen int `json:"seen"`
	// Unique is the number of events admitted as new.
	Unique int `json:"unique"`
	// Duplicates is the number of events folded into existing ones.
	Duplicates int `json:"duplicates"`
}

// ReductionRatio is the fraction of offered events dropped as duplicates.
func (s Stats) ReductionRatio() float64 {
	if s.Seen == 0 {
		return 0
	}
	return float64(s.Duplicates) / float64(s.Seen)
}

// Option configures a Deduper.
type Option interface {
	apply(*options)
}

type options struct {
	registry *obs.Registry
}

type metricsOption struct{ reg *obs.Registry }

func (o metricsOption) apply(opts *options) { opts.registry = o.reg }

// WithMetrics registers the deduper's caisp_dedup_* families into reg:
// scrape-time views over the decision counters plus an Offer latency
// histogram. A nil registry disables instrumentation.
func WithMetrics(reg *obs.Registry) Option { return metricsOption{reg: reg} }

// Deduper drops events whose deterministic ID was already admitted and
// merges the duplicate's observation window and context into the retained
// event. Safe for concurrent use.
type Deduper struct {
	mu    sync.Mutex
	byID  map[string]*normalize.Event
	stats Stats

	offerDur *obs.Histogram // nil without WithMetrics
}

// New constructs a Deduper.
func New(opts ...Option) *Deduper {
	var cfg options
	for _, o := range opts {
		o.apply(&cfg)
	}
	d := &Deduper{byID: make(map[string]*normalize.Event)}
	if reg := cfg.registry; reg != nil {
		d.offerDur = reg.Histogram("caisp_dedup_offer_seconds",
			"Deduper.Offer latency (exact check + merge).")
		reg.CounterFunc("caisp_dedup_seen_total",
			"Events offered to the deduper.",
			func() float64 { return float64(d.Stats().Seen) })
		reg.CounterFunc("caisp_dedup_unique_total",
			"Events admitted as new.",
			func() float64 { return float64(d.Stats().Unique) })
		reg.CounterFunc("caisp_dedup_duplicates_total",
			"Events folded into existing ones.",
			func() float64 { return float64(d.Stats().Duplicates) })
	}
	return d
}

// Offer submits an event. It returns (event, true) when the event is new —
// the returned copy is the stored one — and (stored, false) when it was a
// duplicate that has been merged into the previously stored event.
func (d *Deduper) Offer(e normalize.Event) (normalize.Event, bool) {
	if d.offerDur != nil {
		defer func(start time.Time) {
			d.offerDur.Observe(time.Since(start).Seconds())
		}(time.Now())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Seen++
	if existing, ok := d.byID[e.ID]; ok {
		d.stats.Duplicates++
		// Merge cannot fail here: IDs are equal by construction.
		_ = normalize.Merge(existing, e)
		return *existing, false
	}
	stored := e
	d.byID[e.ID] = &stored
	d.stats.Unique++
	return e, true
}

// Contains reports whether an event with the given ID has been admitted.
func (d *Deduper) Contains(id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.byID[id]
	return ok
}

// Get returns the stored event for id, if any.
func (d *Deduper) Get(id string) (normalize.Event, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.byID[id]
	if !ok {
		return normalize.Event{}, false
	}
	return *e, true
}

// Len returns the number of unique events admitted.
func (d *Deduper) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.byID)
}

// Stats returns a snapshot of the decision counters.
func (d *Deduper) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Events returns a snapshot of all unique events, in unspecified order.
func (d *Deduper) Events() []normalize.Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]normalize.Event, 0, len(d.byID))
	for _, e := range d.byID {
		out = append(out, *e)
	}
	return out
}
