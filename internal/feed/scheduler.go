package feed

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/par"
)

// Feed couples a named source with its fetcher, parser and schedule.
type Feed struct {
	// Name identifies the feed in event provenance and stats.
	Name string
	// Category is the default threat category for the feed's records.
	Category string
	// Fetcher retrieves the feed document.
	Fetcher Fetcher
	// Parser extracts records from the document.
	Parser Parser
	// Interval is the polling period (schedulers reject <= 0).
	Interval time.Duration
}

// Stats counts one feed's activity.
type Stats struct {
	Fetches     int `json:"fetches"`
	NotModified int `json:"not_modified"`
	Errors      int `json:"errors"`
	Records     int `json:"records"`
	Malformed   int `json:"malformed"`
}

// counts is one feed's activity, bumped lock-free by its polls; Stats
// and the caisp_feed_* series both read it.
type counts struct {
	fetches, notModified, errors, records, malformed atomic.Int64
}

// Scheduler polls a set of feeds and hands each poll's normalized events
// to a sink: one call per poll that delivered records, so the consumer
// knows where a document ends and can act on it instead of on a timer.
// The sink must be safe for concurrent use: feeds poll from parallel
// goroutines in Run and from a bounded worker pool in PollOnce.
type Scheduler struct {
	clk         clock.Clock
	sink        func([]normalize.Event)
	logger      *slog.Logger
	concurrency int
	metrics     *schedMetrics

	mu      sync.Mutex
	feeds   []Feed
	counts  map[string]*counts
	started bool // Run began: Add refuses
}

// Option configures a Scheduler.
type Option interface{ apply(*Scheduler) }

type clockOption struct{ clk clock.Clock }

func (o clockOption) apply(s *Scheduler) { s.clk = o.clk }

// WithClock substitutes the scheduler's clock (tests use a fake).
func WithClock(clk clock.Clock) Option { return clockOption{clk: clk} }

type loggerOption struct{ logger *slog.Logger }

func (o loggerOption) apply(s *Scheduler) { s.logger = o.logger }

// WithLogger sets the scheduler's logger.
func WithLogger(logger *slog.Logger) Option { return loggerOption{logger: logger} }

type concurrencyOption int

func (o concurrencyOption) apply(s *Scheduler) { s.concurrency = int(o) }

// WithConcurrency bounds how many feeds PollOnce fetches and parses in
// parallel. Values below 1 (the default) use GOMAXPROCS.
func WithConcurrency(n int) Option { return concurrencyOption(n) }

// schedMetrics are the per-feed caisp_feed_* families. A nil value (no
// registry) disables instrumentation at one pointer check per poll. The
// five families that mirror Stats are scrape-time views of each feed's
// counts, installed by Add.
type schedMetrics struct {
	fetches     *obs.CounterVec   // caisp_feed_fetches_total{feed}
	errors      *obs.CounterVec   // caisp_feed_errors_total{feed}
	notModified *obs.CounterVec   // caisp_feed_not_modified_total{feed}
	records     *obs.CounterVec   // caisp_feed_records_total{feed}
	malformed   *obs.CounterVec   // caisp_feed_malformed_total{feed}
	bytes       *obs.CounterVec   // caisp_feed_fetch_bytes_total{feed}
	fetchDur    *obs.HistogramVec // caisp_feed_fetch_seconds{feed}
}

type schedMetricsOption struct{ reg *obs.Registry }

func (o schedMetricsOption) apply(s *Scheduler) {
	if o.reg == nil {
		return
	}
	s.metrics = &schedMetrics{
		fetches: o.reg.CounterVec("caisp_feed_fetches_total",
			"Fetch attempts per feed.", "feed"),
		errors: o.reg.CounterVec("caisp_feed_errors_total",
			"Failed fetches or parses per feed.", "feed"),
		notModified: o.reg.CounterVec("caisp_feed_not_modified_total",
			"Fetches answered not-modified per feed.", "feed"),
		records: o.reg.CounterVec("caisp_feed_records_total",
			"Records parsed and normalized per feed.", "feed"),
		malformed: o.reg.CounterVec("caisp_feed_malformed_total",
			"Records rejected by normalization per feed.", "feed"),
		bytes: o.reg.CounterVec("caisp_feed_fetch_bytes_total",
			"Bytes fetched per feed.", "feed"),
		fetchDur: o.reg.HistogramVec("caisp_feed_fetch_seconds",
			"Fetch wall time per feed, including not-modified probes.", nil, "feed"),
	}
}

// WithMetrics registers the scheduler's caisp_feed_* families into reg
// (nil disables instrumentation).
func WithMetrics(reg *obs.Registry) Option { return schedMetricsOption{reg: reg} }

// NewScheduler builds a scheduler delivering each poll's events to sink.
func NewScheduler(sink func([]normalize.Event), opts ...Option) *Scheduler {
	s := &Scheduler{
		clk:    clock.Real(),
		sink:   sink,
		logger: slog.Default(),
		counts: make(map[string]*counts),
	}
	for _, o := range opts {
		o.apply(s)
	}
	return s
}

// Add registers a feed. It returns an error once Run has begun, or for
// an invalid feed definition.
func (s *Scheduler) Add(f Feed) error {
	if f.Name == "" || f.Fetcher == nil || f.Parser == nil {
		return fmt.Errorf("feed: incomplete feed definition %q", f.Name)
	}
	if f.Interval <= 0 {
		return fmt.Errorf("feed: feed %q has non-positive interval", f.Name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("feed: scheduler already started")
	}
	for _, existing := range s.feeds {
		if existing.Name == f.Name {
			return fmt.Errorf("feed: duplicate feed name %q", f.Name)
		}
	}
	s.feeds = append(s.feeds, f)
	c := &counts{}
	s.counts[f.Name] = c
	if m := s.metrics; m != nil {
		for vec, n := range map[*obs.CounterVec]*atomic.Int64{
			m.fetches: &c.fetches, m.errors: &c.errors, m.notModified: &c.notModified,
			m.records: &c.records, m.malformed: &c.malformed,
		} {
			vec.Func(func() float64 { return float64(n.Load()) }, f.Name)
		}
	}
	return nil
}

// Run polls every feed on a goroutine of its own until ctx ends: each
// is fetched at once and then every Interval.
func (s *Scheduler) Run(ctx context.Context) {
	s.mu.Lock()
	s.started = true
	feeds := slices.Clone(s.feeds)
	s.mu.Unlock()
	par.Do(len(feeds), len(feeds), func(i int) { s.pollLoop(ctx, feeds[i]) })
}

// PollOnce synchronously fetches every registered feed a single time —
// batch mode for examples and the experiment harness. Independent feeds
// are fetched and parsed by a bounded worker pool (see WithConcurrency);
// PollOnce returns once every feed has been processed.
func (s *Scheduler) PollOnce(ctx context.Context) {
	s.mu.Lock()
	feeds := slices.Clone(s.feeds)
	s.mu.Unlock()
	par.Do(len(feeds), s.concurrency, func(i int) { s.pollFeed(ctx, feeds[i]) })
}

// Stats returns a snapshot of per-feed counters.
func (s *Scheduler) Stats() map[string]Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]Stats, len(s.counts))
	for name, c := range s.counts {
		out[name] = Stats{
			Fetches:     int(c.fetches.Load()),
			NotModified: int(c.notModified.Load()),
			Errors:      int(c.errors.Load()),
			Records:     int(c.records.Load()),
			Malformed:   int(c.malformed.Load()),
		}
	}
	return out
}

func (s *Scheduler) pollLoop(ctx context.Context, f Feed) {
	consecutiveErrors := 0
	if !s.pollFeed(ctx, f) {
		consecutiveErrors = 1
	}
	for {
		// Consecutive failures back the feed off exponentially (capped at
		// 8× the interval) so a dead source does not burn its poll budget.
		wait := f.Interval
		if consecutiveErrors > 0 {
			shift := consecutiveErrors
			if shift > 3 {
				shift = 3
			}
			wait = f.Interval << shift
		}
		select {
		case <-ctx.Done():
			return
		case <-s.clk.After(wait):
			if s.pollFeed(ctx, f) {
				consecutiveErrors = 0
			} else {
				consecutiveErrors++
			}
		}
	}
}

// pollFeed fetches and processes one feed once; it reports success (a
// not-modified response counts as success).
func (s *Scheduler) pollFeed(ctx context.Context, f Feed) bool {
	s.mu.Lock()
	c := s.counts[f.Name]
	s.mu.Unlock()
	var fetchStart time.Time
	if s.metrics != nil {
		fetchStart = time.Now()
	}
	data, notModified, err := f.Fetcher.Fetch(ctx)
	if s.metrics != nil {
		s.metrics.fetchDur.With(f.Name).Observe(time.Since(fetchStart).Seconds())
		s.metrics.bytes.With(f.Name).Add(int64(len(data)))
	}
	c.fetches.Add(1)

	if err != nil {
		c.errors.Add(1)
		s.logger.Warn("feed fetch failed", "feed", f.Name, "error", err)
		return false
	}
	if notModified {
		c.notModified.Add(1)
		return true
	}
	records, err := f.Parser.Parse(data)
	if err != nil {
		c.errors.Add(1)
		s.logger.Warn("feed parse failed", "feed", f.Name, "error", err)
		return false
	}
	now := s.clk.Now()
	events := make([]normalize.Event, 0, len(records))
	for _, rec := range records {
		category := f.Category
		if rec.Category != "" {
			category = rec.Category
		}
		event, err := normalize.New(rec.Value, category, f.Name, normalize.SourceOSINT, now)
		if err != nil {
			c.malformed.Add(1)
			continue
		}
		if len(rec.Context) > 0 {
			event.Context = make(map[string]string, len(rec.Context))
			for k, v := range rec.Context {
				event.Context[k] = v
			}
		}
		c.records.Add(1)
		events = append(events, event)
	}
	if len(events) > 0 {
		s.sink(events)
	}
	return true
}
