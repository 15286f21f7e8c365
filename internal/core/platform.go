// Package core wires the three modules of the Context-Aware OSINT Platform
// (paper §III) into one pipeline:
//
//	Input:       feeds → normalize → dedup → aggregate/correlate → cIoC
//	Operational: cIoC → TIP (MISP-format store, auto-correlation, bus
//	             publish) → heuristic analysis → threat score → eIoC
//	Output:      eIoC → reduction → rIoC → dashboard push; eIoC → TAXII
//	             collection for external sharing
//
// The platform runs either in streaming mode (Start: feed scheduler +
// a sharded pool of heuristic analyzers on the bus) or in batch mode
// (RunBatch: one synchronous pass, used by the examples and the
// experiment harness). Every stage is concurrent: feeds poll in
// parallel, cIoC batches are stored with one group-committed WAL write,
// and analysis fans out over N goroutines sharded by event UUID.
package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caisplatform/caisp/internal/bus"
	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/correlate"
	"github.com/caisplatform/caisp/internal/dashboard"
	"github.com/caisplatform/caisp/internal/dedup"
	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/lifecycle"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/stix"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/subscribe"
	"github.com/caisplatform/caisp/internal/taxii"
	"github.com/caisplatform/caisp/internal/textclass"
	"github.com/caisplatform/caisp/internal/tip"
	"github.com/caisplatform/caisp/internal/worker"
)

// TAXIICollection is the collection eIoCs are shared into.
const TAXIICollection = "eiocs"

// Config parameterizes a Platform.
type Config struct {
	// DataDir is the event-store directory; empty means in-memory.
	DataDir string
	// NodeName identifies this node in cross-node trace provenance and
	// the fleet status view. Empty uses "caisp".
	NodeName string
	// Inventory describes the monitored infrastructure; nil uses the
	// paper's Table III inventory.
	Inventory *infra.Inventory
	// Feeds are the OSINT feeds to poll.
	Feeds []feed.Feed
	// Clock drives polling, flushing, the lifecycle and subscription
	// sweep loops, and every evaluation; nil uses the system clock.
	Clock clock.Clock
	// Logger receives pipeline logs; nil uses slog.Default().
	Logger *slog.Logger
	// ShareTAXII enables the TAXII server and publishes every eIoC into
	// its collection.
	ShareTAXII bool
	// AnalyzerPool sets how many heuristic analyzer goroutines consume
	// the bus in streaming mode (and analyze stored events in RunBatch).
	// Values below 1 use GOMAXPROCS. Work is sharded by event UUID, so
	// the same event is never analyzed by two goroutines at once.
	AnalyzerPool int
	// FeedConcurrency bounds how many feeds PollOnce fetches in
	// parallel. Values below 1 use GOMAXPROCS.
	FeedConcurrency int
	// Metrics is the observability registry every stage registers its
	// caisp_* families into. Nil creates a private registry unless
	// DisableMetrics is set.
	Metrics *obs.Registry
	// DisableMetrics runs the platform without any instrumentation (the
	// overhead-ablation baseline): no registry, no tracer, and every
	// per-observation nil check short-circuits.
	DisableMetrics bool
	// SlowOpThreshold logs a warning (with stage and event UUID) for any
	// heuristic evaluation or dashboard push slower than this. Zero
	// disables slow-op logging.
	SlowOpThreshold time.Duration
	// DisableLifecycle turns off decay-driven re-scoring and expiry: the
	// store grows without bound under continuous ingest.
	DisableLifecycle bool
	// LifecycleInterval is the cadence of the background re-score batch.
	// Zero uses the lifecycle default (one minute).
	LifecycleInterval time.Duration
	// LifecycleFloor expires indicators whose decayed score falls to or
	// below it. Zero uses the lifecycle default (0.3).
	LifecycleFloor float64
}

// Stats counts pipeline activity.
type Stats struct {
	EventsCollected int `json:"events_collected"`
	EventsUnique    int `json:"events_unique"`
	Duplicates      int `json:"duplicates"`
	// CIoCs counts clusters stored for the first time; ClusterEdits counts
	// re-stores of grown or merged clusters under their stable UUID, and
	// ClusterMerges counts absorbed cluster identities retracted from the
	// TIP. ClustersLive is the current number of emitted clusters.
	CIoCs         int `json:"ciocs"`
	ClusterEdits  int `json:"cluster_edits"`
	ClusterMerges int `json:"cluster_merges"`
	ClustersLive  int `json:"clusters_live"`
	EIoCs         int `json:"eiocs"`
	RIoCs         int `json:"riocs"`
	Classified    int `json:"classified"`
	Unscorable    int `json:"unscorable"`
	StoreFailures int `json:"store_failures"`
	StoredEvents  int `json:"stored_events"`
	// BusDropped surfaces broker-wide drop-oldest losses from lagging
	// subscribers, which are otherwise silent.
	BusDropped int64 `json:"bus_dropped"`
}

// counters is the lock-free backing of Stats: every pipeline stage bumps
// its own atomic, so the analyzer pool never serializes on a stats mutex.
type counters struct {
	collected     atomic.Int64
	unique        atomic.Int64
	duplicates    atomic.Int64
	ciocs         atomic.Int64
	clusterEdits  atomic.Int64
	clusterMerges atomic.Int64
	eiocs         atomic.Int64
	riocs         atomic.Int64
	classified    atomic.Int64
	unscorable    atomic.Int64
	storeFailures atomic.Int64
}

// Platform is a running Context-Aware OSINT Platform instance.
type Platform struct {
	cfg    Config
	clk    clock.Clock
	logger *slog.Logger

	// Observability: reg holds every stage's caisp_* families; tracer
	// stamps each admitted event's journey through the pipeline. Both are
	// nil under Config.DisableMetrics (every use is nil-checked or
	// nil-safe).
	reg        *obs.Registry
	tracer     *obs.Tracer
	prov       *obs.ProvTable // origin provenance for locally ingested events
	nodeName   string
	flushDur   *obs.Histogram // caisp_pipeline_flush_seconds
	analyzeDur *obs.Histogram // caisp_pipeline_analyze_seconds

	// Input module. corr is the stateful streaming correlator: cluster
	// membership accumulates across flush batches (and across restarts,
	// via the recovery-time index rebuild in New).
	scheduler  *feed.Scheduler
	deduper    *dedup.Deduper
	corr       *correlate.Incremental
	classifier *textclass.Classifier

	// Operational module. lifec is the indicator-lifecycle engine: decay
	// re-scoring, floor expiry and score history (nil under
	// Config.DisableLifecycle).
	store     *storage.Store
	broker    *bus.Broker
	tip       *tip.Service
	engine    *heuristic.Engine
	lifec     *lifecycle.Engine
	analyzer  *worker.Analyzer
	analyzers int

	// Output module. subs is the streaming-detection engine: standing
	// STIX-pattern subscriptions evaluated against every admitted
	// cIoC/eIoC, with matches pushed over its own WebSocket hub.
	collector *infra.Collector
	dash      *dashboard.Server
	subs      *subscribe.Engine
	taxiiSrv  *taxii.Server

	mu      sync.Mutex // guards pending
	pending []normalize.Event
	// arrived wakes the streaming flusher when a poll put events into
	// pending. Capacity one: polls landing while a flush runs share one
	// further flush, and ingest never blocks.
	arrived chan struct{}

	counters counters

	// stopCompacting stops the store's background compaction trigger
	// (storage.Store.StartCompactor).
	stopCompacting func()

	runMu   sync.Mutex
	started bool
	cancel  context.CancelFunc
	workers sync.WaitGroup // the bus consumer and the flusher
	sub     *bus.Subscription
	pool    *worker.Pool
}

// New assembles a platform from the configuration.
func New(cfg Config) (*Platform, error) {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	inventory := cfg.Inventory
	if inventory == nil {
		inventory = infra.PaperInventory()
	}
	collector, err := infra.NewCollector(inventory)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil && !cfg.DisableMetrics {
		reg = obs.NewRegistry()
	}
	store, err := storage.Open(cfg.DataDir, storage.WithMetrics(reg))
	if err != nil {
		return nil, err
	}
	broker := bus.NewBroker(bus.WithMetrics(reg))

	analyzers := cfg.AnalyzerPool
	if analyzers < 1 {
		analyzers = runtime.GOMAXPROCS(0)
	}

	p := &Platform{
		cfg:       cfg,
		clk:       cfg.Clock,
		logger:    cfg.Logger,
		reg:       reg,
		tracer:    obs.NewTracer(reg),
		deduper:   dedup.New(dedup.WithMetrics(reg)),
		corr:      correlate.NewIncremental(correlate.WithMetrics(reg)),
		store:     store,
		broker:    broker,
		collector: collector,
		analyzers: analyzers,

		arrived: make(chan struct{}, 1),
	}
	p.nodeName = cfg.NodeName
	if p.nodeName == "" {
		p.nodeName = "caisp"
	}
	if !cfg.DisableMetrics {
		// Origin provenance rides the observability switch: the ablation
		// baseline must not pay the per-ingest record either.
		p.prov = obs.NewProvTable(obs.DefaultProvCap)
	}
	p.registerPipelineMetrics()
	p.classifier = textclass.New()
	p.tip = tip.NewService(store, tip.WithBroker(broker), tip.WithLogger(cfg.Logger),
		tip.WithMetrics(reg), tip.WithName(p.nodeName), tip.WithProvenance(p.prov))
	p.engine = heuristic.NewEngine(
		heuristic.WithInfrastructure(collector),
		heuristic.WithClock(cfg.Clock),
		heuristic.WithMetrics(reg),
		heuristic.WithLogger(cfg.Logger),
		heuristic.WithSlowThreshold(cfg.SlowOpThreshold),
	)
	p.analyzer = worker.NewAnalyzer(p.engine, collector, cfg.Clock,
		worker.Sinks{Scored: p.scored, WriteBack: p.writeBack})
	p.subs = subscribe.NewEngine(
		subscribe.WithMetrics(reg),
		subscribe.WithLogger(cfg.Logger),
		subscribe.WithClock(cfg.Clock),
	)
	p.dash = dashboard.NewServer(collector,
		dashboard.WithMetrics(reg),
		dashboard.WithLogger(cfg.Logger),
		dashboard.WithSlowThreshold(cfg.SlowOpThreshold))
	// The streaming-detection surface rides the dashboard listener:
	// /subscriptions REST plus the /ws/matches push stream.
	p.dash.SetSubscriptions(subscribe.NewAPI(p.subs))
	if !cfg.DisableLifecycle {
		p.lifec = lifecycle.New(store,
			lifecycle.WithClock(cfg.Clock),
			lifecycle.WithInterval(cfg.LifecycleInterval),
			lifecycle.WithFloor(cfg.LifecycleFloor),
			lifecycle.WithLogger(cfg.Logger),
			lifecycle.WithMetrics(reg),
			// Sightings come from the live correlator so a cluster that
			// keeps growing keeps its score fresh; expiry routes through
			// the TIP so the deletion lands in the replicated change log
			// and the dashboard forgets the indicator's rIoCs.
			lifecycle.WithSightings(p.corr.LastSightings),
			lifecycle.WithExpireHook(p.expireEvent),
		)
		p.dash.SetLifecycle(lifecycle.NewAPI(p.lifec))
		p.lifec.Start()
	}
	if cfg.ShareTAXII {
		p.taxiiSrv = taxii.NewServer("CAISP sharing", "caisp", taxii.WithClock(cfg.Clock))
		p.taxiiSrv.AddCollection(TAXIICollection, "Enriched IoCs",
			"eIoCs produced by the heuristic component", false)
	}
	p.scheduler = feed.NewScheduler(p.ingest,
		feed.WithClock(cfg.Clock), feed.WithLogger(cfg.Logger),
		feed.WithConcurrency(cfg.FeedConcurrency),
		feed.WithMetrics(reg))
	for _, f := range cfg.Feeds {
		if err := p.scheduler.Add(f); err != nil {
			store.Close()
			broker.Close()
			return nil, err
		}
	}
	if store.Len() > 0 {
		p.rebuildCorrelationIndex()
	}
	p.stopCompacting = store.StartCompactor(cfg.Logger)
	return p, nil
}

// registerPipelineMetrics exposes the platform's lock-free stage counters
// and queue gauges as scrape-time views — the same atomics back Stats(),
// so /stats and /metrics can never disagree.
func (p *Platform) registerPipelineMetrics() {
	reg := p.reg
	if reg == nil {
		return
	}
	counter := func(name, help string, v *atomic.Int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	counter("caisp_pipeline_collected_total", "Events delivered by the feed scheduler.",
		&p.counters.collected)
	counter("caisp_pipeline_unique_total", "Events admitted as unique by the deduper.",
		&p.counters.unique)
	counter("caisp_pipeline_duplicates_total", "Events folded into already admitted ones.",
		&p.counters.duplicates)
	counter("caisp_pipeline_ciocs_total", "Clusters stored for the first time.",
		&p.counters.ciocs)
	counter("caisp_pipeline_cluster_edits_total", "Grown or merged clusters re-stored under their stable UUID.",
		&p.counters.clusterEdits)
	counter("caisp_pipeline_cluster_merges_total", "Absorbed cluster identities retracted from the TIP.",
		&p.counters.clusterMerges)
	counter("caisp_pipeline_eiocs_total", "Events enriched with a threat score.",
		&p.counters.eiocs)
	counter("caisp_pipeline_riocs_total", "Reduced IoCs pushed to the dashboard.",
		&p.counters.riocs)
	counter("caisp_pipeline_classified_total", "Unknown-category events tagged by the NLP classifier.",
		&p.counters.classified)
	counter("caisp_pipeline_unscorable_total", "Stored events without a scorable SDO.",
		&p.counters.unscorable)
	counter("caisp_pipeline_store_failures_total", "cIoCs that failed composition or storage.",
		&p.counters.storeFailures)
	reg.GaugeFunc("caisp_pipeline_pending_events",
		"Unique events buffered for the next correlation flush.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(len(p.pending))
		})
	p.flushDur = reg.Histogram("caisp_pipeline_flush_seconds",
		"composeAndStore latency: correlation delta plus group-committed store.")
	p.analyzeDur = reg.Histogram("caisp_pipeline_analyze_seconds",
		"Heuristic analysis of one stored cIoC, including write-back and pushes.")
}

// Metrics returns the observability registry, or nil when disabled.
func (p *Platform) Metrics() *obs.Registry { return p.reg }

// Tracer returns the per-event stage tracer, or nil when disabled.
func (p *Platform) Tracer() *obs.Tracer { return p.tracer }

// NodeName returns this node's identity in provenance and fleet views.
func (p *Platform) NodeName() string { return p.nodeName }

// Provenance returns the origin-provenance table, or nil when metrics
// are disabled.
func (p *Platform) Provenance() *obs.ProvTable { return p.prov }

// Durability reports the store's WAL watermarks (compaction backlog).
func (p *Platform) Durability() storage.DurabilityStats { return p.store.Durability() }

// rebuildCorrelationIndex reconstructs the streaming correlator's state
// from the persisted cIoC events after a restart, so a post-crash sighting
// still merges into its pre-crash cluster instead of opening a disjoint
// one. Member reconstruction fans out over the store's parallel iterator
// (the same worker budget as WAL recovery); seeding is ordered by the
// stored (timestamp, UUID) so merge survivors are chosen deterministically.
// Stale cluster identities uncovered by seeding (e.g. a crash between a
// merge's edit and its retraction) are deleted from the store.
func (p *Platform) rebuildCorrelationIndex() {
	type seedRecord struct {
		uuid    string
		ts      time.Time
		members []normalize.Event
	}
	var (
		mu    sync.Mutex
		seeds []seedRecord
	)
	p.store.ForEachParallel(0, func(e *misp.Event) {
		members := correlate.MembersFromMISP(e)
		if len(members) == 0 {
			return
		}
		mu.Lock()
		seeds = append(seeds, seedRecord{uuid: e.UUID, ts: e.Timestamp.Time, members: members})
		mu.Unlock()
	})
	sort.Slice(seeds, func(i, j int) bool {
		if !seeds[i].ts.Equal(seeds[j].ts) {
			return seeds[i].ts.Before(seeds[j].ts)
		}
		return seeds[i].uuid < seeds[j].uuid
	})
	var stale []string
	for _, s := range seeds {
		stale = append(stale, p.corr.Seed(s.uuid, s.members)...)
	}
	for _, uuid := range stale {
		if err := p.store.Delete(uuid); err != nil && !errors.Is(err, storage.ErrNotFound) {
			p.logger.Warn("stale cluster cleanup failed", "uuid", uuid, "error", err)
		}
	}
	if len(seeds) > 0 {
		p.logger.Info("correlation index rebuilt",
			"clusters", len(seeds), "stale_removed", len(stale))
	}
}

// Accessors for the composed services.

// TIP returns the operational module's TIP service.
func (p *Platform) TIP() *tip.Service { return p.tip }

// Broker returns the internal message bus.
func (p *Platform) Broker() *bus.Broker { return p.broker }

// Collector returns the infrastructure collector.
func (p *Platform) Collector() *infra.Collector { return p.collector }

// Dashboard returns the output module's dashboard server.
func (p *Platform) Dashboard() *dashboard.Server { return p.dash }

// Subscriptions returns the streaming-detection engine.
func (p *Platform) Subscriptions() *subscribe.Engine { return p.subs }

// Lifecycle returns the indicator-lifecycle engine, or nil when disabled.
func (p *Platform) Lifecycle() *lifecycle.Engine { return p.lifec }

// expireEvent is the lifecycle engine's expiry hook: the deletion goes
// through the TIP (tombstoning the replicated change log so mesh peers
// and subscription engines converge on the removal) and the dashboard
// forgets the indicator's rIoCs.
func (p *Platform) expireEvent(uuid string) error {
	if err := p.tip.DeleteEvent(uuid); err != nil && !errors.Is(err, storage.ErrNotFound) {
		return err
	}
	p.dash.DropEventRIoCs(uuid)
	p.tracer.Drop(uuid)
	return nil
}

// TAXII returns the sharing server, or nil when disabled.
func (p *Platform) TAXII() *taxii.Server { return p.taxiiSrv }

// Engine returns the heuristic engine.
func (p *Platform) Engine() *heuristic.Engine { return p.engine }

// FeedStats returns per-feed collection counters.
func (p *Platform) FeedStats() map[string]feed.Stats { return p.scheduler.Stats() }

// DedupStats returns the deduplication counters.
func (p *Platform) DedupStats() dedup.Stats { return p.deduper.Stats() }

// Stats returns pipeline counters.
func (p *Platform) Stats() Stats {
	return Stats{
		EventsCollected: int(p.counters.collected.Load()),
		EventsUnique:    int(p.counters.unique.Load()),
		Duplicates:      int(p.counters.duplicates.Load()),
		CIoCs:           int(p.counters.ciocs.Load()),
		ClusterEdits:    int(p.counters.clusterEdits.Load()),
		ClusterMerges:   int(p.counters.clusterMerges.Load()),
		ClustersLive:    p.corr.Stats().Clusters,
		EIoCs:           int(p.counters.eiocs.Load()),
		RIoCs:           int(p.counters.riocs.Load()),
		Classified:      int(p.counters.classified.Load()),
		Unscorable:      int(p.counters.unscorable.Load()),
		StoreFailures:   int(p.counters.storeFailures.Load()),
		StoredEvents:    p.tip.Len(),
		BusDropped:      p.broker.Dropped(),
	}
}

// ReportAlarm records an infrastructure alarm and pushes it to the
// dashboard.
func (p *Platform) ReportAlarm(a infra.Alarm) (infra.Alarm, error) {
	stored, err := p.collector.AddAlarm(a)
	if err != nil {
		return infra.Alarm{}, err
	}
	p.dash.PushAlarm(stored)
	return stored, nil
}

// ReportInternalIoC records an indicator detected inside the
// infrastructure (§III-A2). Besides feeding the heuristic context, the
// event is stored in the TIP as an organisation-only MISP event — "data
// received from the monitored infrastructures could be stored in the MISP
// database, in order to perform basic automated correlation steps, when
// some cIoCs are received" (§III-B1) — and the correlated UUIDs of already
// stored events are returned.
func (p *Platform) ReportInternalIoC(value, category, source string) (normalize.Event, []string, error) {
	e, err := p.collector.AddInternalIoC(value, category, source, p.clk.Now())
	if err != nil {
		return normalize.Event{}, nil, err
	}
	me := misp.NewEvent(fmt.Sprintf("infrastructure sighting [%s] %s", source, e.Value), p.clk.Now())
	me.Distribution = misp.DistributionOrganisation // never shared outward
	me.AddTag("caisp:infrastructure")
	typ := mispTypeFor(e.Type)
	me.AddAttribute(typ, "Internal reference", e.Value, e.LastSeen).Comment = "detected by " + source
	correlated, err := p.tip.AddEvent(me)
	if err != nil {
		return normalize.Event{}, nil, fmt.Errorf("core: store infrastructure sighting: %w", err)
	}
	return e, correlated, nil
}

// mispTypeFor maps a normalized IoC type to the MISP attribute type used
// for infrastructure sightings.
func mispTypeFor(typ normalize.IoCType) string {
	switch typ {
	case normalize.TypeIPv4, normalize.TypeIPv6, normalize.TypeCIDR:
		return "ip-dst"
	case normalize.TypeDomain:
		return "domain"
	case normalize.TypeURL:
		return "url"
	case normalize.TypeMD5:
		return "md5"
	case normalize.TypeSHA1:
		return "sha1"
	case normalize.TypeSHA256:
		return "sha256"
	case normalize.TypeSHA512:
		return "sha512"
	case normalize.TypeCVE:
		return "vulnerability"
	case normalize.TypeEmail:
		return "email-dst"
	case normalize.TypeFilename:
		return "filename"
	default:
		return "text"
	}
}

// ingest is the feed scheduler sink, called once per poll that delivered
// records: classify → normalize → dedup → pending buffer, then wake the
// streaming flusher. It is called concurrently by the feed worker pool.
func (p *Platform) ingest(events []normalize.Event) {
	admitted := make([]normalize.Event, 0, len(events))
	for _, e := range events {
		p.classify(&e)
		stored, isNew := p.deduper.Offer(e)
		p.counters.collected.Add(1)
		if !isNew {
			// A duplicate never starts a trace: its original may still be
			// in flight under the same ID.
			p.counters.duplicates.Add(1)
			continue
		}
		p.counters.unique.Add(1)
		// Trace from the admitted identity (classification may have re-keyed
		// the event); the correlator adopts this ID at the next flush.
		p.tracer.Start(stored.ID)
		p.tracer.Mark(stored.ID, obs.StageIngest)
		admitted = append(admitted, stored)
	}
	if len(admitted) == 0 {
		return
	}
	p.mu.Lock()
	p.pending = append(p.pending, admitted...)
	p.mu.Unlock()
	select {
	case p.arrived <- struct{}{}:
	default: // a wake-up is already pending; its flush takes these too
	}
}

// classify tags unknown-category events from their textual context using
// the keyword classifier (§II-A: "tag OSINT data as relevant or
// irrelevant"; the prediction confidence rides along for SIEM consumers).
// It must run before deduplication: the category is part of the
// deterministic event identity.
func (p *Platform) classify(e *normalize.Event) {
	if e.Category != normalize.CategoryUnknown {
		return
	}
	text := strings.TrimSpace(e.Context["description"] + " " + e.Context["event_info"])
	if text == "" {
		return
	}
	pred := p.classifier.Classify(text)
	if !pred.Relevant || pred.Confidence < 0.5 {
		return
	}
	e.Category = pred.Category
	if e.Context == nil {
		e.Context = make(map[string]string, 2)
	}
	e.Context["classified_as"] = pred.Category
	e.Context["classifier_confidence"] = strconv.FormatFloat(pred.Confidence, 'f', 2, 64)
	if err := normalize.Canonicalize(e); err != nil {
		return
	}
	p.counters.classified.Add(1)
}

// drainPending takes the buffered unique events for correlation.
func (p *Platform) drainPending() []normalize.Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.pending
	p.pending = nil
	return out
}

// composeAndStore folds a batch of events into the streaming correlator
// and applies the resulting delta to the TIP through the group-commit
// batch path (one WAL write and fsync for the whole flush): clusters
// emitted for the first time land as MISP event adds, grown or merged
// clusters as edits under their stable UUID, and absorbed cluster
// identities are retracted from both the TIP and the dashboard. It stores
// what it can: a cIoC that fails composition or validation is counted as
// a store failure and its error aggregated, while the rest of the batch
// still lands. The stored events are returned alongside the joined error,
// so callers can keep analyzing partial batches.
func (p *Platform) composeAndStore(events []normalize.Event) ([]*misp.Event, error) {
	if len(events) == 0 {
		return nil, nil
	}
	if p.flushDur != nil {
		defer func(start time.Time) {
			p.flushDur.Observe(time.Since(start).Seconds())
		}(time.Now())
	}
	delta := p.corr.Add(events)
	if delta.Empty() {
		return nil, nil
	}
	// Re-key member traces to their cluster identity: the journey of the
	// earliest member continues under the cluster UUID from here on.
	if p.tracer != nil {
		adopt := func(ciocs []correlate.ComposedIoC) {
			for i := range ciocs {
				memberIDs := make([]string, len(ciocs[i].Events))
				for j := range ciocs[i].Events {
					memberIDs[j] = ciocs[i].Events[j].ID
				}
				p.tracer.Adopt(ciocs[i].ID, obs.StageCorrelate, memberIDs)
			}
		}
		adopt(delta.New)
		adopt(delta.Updated)
	}
	var errs []error
	// Retract absorbed identities first: their members are already carried
	// by the surviving cluster's edit in the same delta, so the TIP and
	// the dashboard never count them twice.
	for _, uuid := range delta.Removed {
		if err := p.tip.DeleteEvent(uuid); err != nil && !errors.Is(err, storage.ErrNotFound) {
			errs = append(errs, fmt.Errorf("core: retract merged cluster %s: %w", uuid, err))
		}
		p.dash.DropEventRIoCs(uuid)
		p.tracer.Drop(uuid)
	}
	now := p.clk.Now()
	batch := make([]*misp.Event, 0, len(delta.New)+len(delta.Updated))
	newUUIDs := make(map[string]bool, len(delta.New))
	compose := func(ciocs []correlate.ComposedIoC) {
		for i := range ciocs {
			me, err := correlate.ToMISP(&ciocs[i], now)
			if err != nil {
				errs = append(errs, fmt.Errorf("core: compose cIoC: %w", err))
				continue
			}
			batch = append(batch, me)
		}
	}
	compose(delta.New)
	for i := range delta.New {
		newUUIDs[delta.New[i].ID] = true
	}
	compose(delta.Updated)
	stored, err := p.tip.AddEvents(batch)
	if err != nil {
		errs = append(errs, fmt.Errorf("core: store cIoCs: %w", err))
	}
	for _, me := range stored {
		p.tracer.Mark(me.UUID, obs.StageStore)
	}
	// Streaming detection: every admitted cIoC runs against the live
	// subscription set. Direct dispatch on the flush path — the same
	// loss-free route the incremental correlator uses — so standing
	// detections never drop under bus backpressure.
	p.fanOut(len(stored), func(i int) { p.subs.EvaluateMISP(stored[i], subscribe.StageCIoC, -1) })
	var added, edited int64
	for _, me := range stored {
		if newUUIDs[me.UUID] {
			added++
		} else {
			edited++
		}
	}
	p.counters.ciocs.Add(added)
	p.counters.clusterEdits.Add(edited)
	p.counters.clusterMerges.Add(int64(len(delta.Removed)))
	p.counters.storeFailures.Add(int64(len(delta.New) + len(delta.Updated) - len(stored)))
	return stored, errors.Join(errs...)
}

// analyze runs the shared heuristic stage (worker.Analyzer) on one stored
// cIoC revision, then the platform's own eIoC effects: a streaming
// detection pass and the trace's end. What grows with history is the
// cluster itself: a revision re-scores every member, not only the ones
// that changed (EXPERIMENTS.md §X15, next finding). Callers holding a
// store view must pass storage.GetClone output (see Analyzer.Analyze).
func (p *Platform) analyze(me *misp.Event) error {
	// A cluster absorbed by a concurrent merge has been retracted from the
	// store; analyzing its stale revision would resurrect its rIoCs.
	if !p.store.Has(me.UUID) {
		p.tracer.Drop(me.UUID)
		return nil
	}
	start := time.Now()
	out, score, err := p.analyzer.Analyze(me)
	switch out {
	case worker.Unscorable:
		p.counters.unscorable.Add(1)
		p.tracer.Drop(me.UUID)
	case worker.Enriched:
		p.counters.eiocs.Add(1)
		// Streaming detection: the scored eIoC re-runs against the live
		// subscription set with its threat score exposed as
		// x-caisp:threat-score, so score-gated patterns can fire.
		p.subs.EvaluateMISP(me, subscribe.StageEIoC, score)
		p.tracer.Finish(me.UUID, obs.StagePublish)
	}
	p.analyzeDur.Observe(time.Since(start).Seconds())
	return err
}

// scored is the analyzer's per-SDO sink: push the rIoC to the dashboard
// and share the scored SDO over TAXII.
func (p *Platform) scored(obj stix.Object, rioc *heuristic.RIoC) {
	if rioc != nil {
		p.dash.PushRIoC(*rioc)
		p.counters.riocs.Add(1)
	}
	if p.taxiiSrv != nil {
		if err := p.taxiiSrv.AddObjects(TAXIICollection, obj); err != nil {
			p.logger.Warn("taxii share failed", "error", err)
		}
	}
}

// writeBack stores the scored eIoC in the TIP.
func (p *Platform) writeBack(me *misp.Event) error {
	p.tracer.Mark(me.UUID, obs.StageAnalyze)
	if _, err := p.tip.AddEvent(me); err != nil {
		p.tracer.Drop(me.UUID)
		return err
	}
	return nil
}

// analyzeAll fans heuristic analysis of stored events out over the
// analyzer pool. The events come from one composeAndStore batch, so their
// UUIDs are distinct and no sharding is needed; errors are joined.
func (p *Platform) analyzeAll(events []*misp.Event) error {
	errs := make([]error, len(events))
	p.fanOut(len(events), func(i int) { errs[i] = p.analyze(events[i]) })
	return errors.Join(errs...)
}

// fanOut calls fn(0..n-1) on up to AnalyzerPool goroutines and waits.
func (p *Platform) fanOut(n int, fn func(i int)) {
	workers := min(p.analyzers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
				// The pool fills every P: what fn woke (dashboard fan-out,
				// match watchers) would wait out its time slice, up to
				// 10 ms and never the same twice. Yield, so it delivers now.
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
}

// RunBatch performs one synchronous pipeline pass: poll every feed once
// (in parallel), dedup, correlate, group-commit the cIoC batch, and
// analyze the stored events with the analyzer pool. Not for use while
// Start is running.
func (p *Platform) RunBatch(ctx context.Context) error {
	p.scheduler.PollOnce(ctx)
	stored, storeErr := p.composeAndStore(p.drainPending())
	if err := p.analyzeAll(stored); err != nil {
		return errors.Join(storeErr, err)
	}
	return storeErr
}

// Start launches streaming mode: the feed scheduler polls on its
// intervals, a composer goroutine flushes pending events as soon as a
// poll has delivered them, and a sharded pool of analyzer goroutines
// consumes the bus to run heuristic analysis concurrently. A flush takes
// whole documents (each revises the clusters it touches, so never a record
// at a time), and polls that land while one runs share the next.
// flushInterval is the longest a pending event can wait, not the period.
func (p *Platform) Start(ctx context.Context, flushInterval time.Duration) error {
	p.runMu.Lock()
	defer p.runMu.Unlock()
	if p.started {
		return fmt.Errorf("core: platform already started")
	}
	if flushInterval <= 0 {
		flushInterval = time.Second
	}
	ctx, p.cancel = context.WithCancel(ctx)
	p.started = true

	// Adds and edits both need analysis: a grown cluster is re-published
	// on the edit topic under its stable UUID and must be re-scored.
	p.sub = p.broker.Subscribe(tip.TopicEventPrefix)
	pool := worker.NewPool(p.analyzers, p.logger, func(me *misp.Event) {
		if err := p.analyze(me); err != nil {
			p.logger.Warn("heuristic analysis failed", "uuid", me.UUID, "error", err)
		}
	})
	p.pool = pool
	p.workers.Add(2)
	go func() {
		defer p.workers.Done()
		pool.Consume(ctx, p.sub.C())
	}()

	// Flusher: locally composed clusters are handed to the analyzer
	// shards directly — the flusher already owns the stored events, and
	// the bus's drop-oldest buffer must not be a loss point for our own
	// flushes (it remains the path for externally injected events: TIP
	// sync imports and REST posts; the bus copy of a locally dispatched
	// event is deduplicated by the analyzer's idempotency key).
	go func() {
		defer p.workers.Done()
		tick := p.clk.After(flushInterval)
		for {
			select {
			case <-ctx.Done():
				return
			case <-p.arrived:
			case <-tick:
				tick = p.clk.After(flushInterval)
			}
			stored, err := p.composeAndStore(p.drainPending())
			if err != nil {
				p.logger.Warn("composition failed", "error", err)
			}
			for _, me := range stored {
				if !pool.Dispatch(ctx, me) {
					return
				}
			}
		}
	}()

	return p.scheduler.Start(ctx)
}

// Stop ends streaming mode and flushes remaining pending events.
func (p *Platform) Stop() {
	p.runMu.Lock()
	defer p.runMu.Unlock()
	if !p.started {
		return
	}
	p.cancel()
	p.scheduler.Stop()
	if p.sub != nil {
		p.sub.Close()
	}
	p.workers.Wait()
	// Nothing dispatches any more: let the analyzers drain their queues.
	p.pool.Close()
	p.started = false
	// Final flush so nothing collected is lost.
	stored, err := p.composeAndStore(p.drainPending())
	if err != nil {
		p.logger.Warn("final composition failed", "error", err)
	}
	if err := p.analyzeAll(stored); err != nil {
		p.logger.Warn("final analysis failed", "error", err)
	}
}

// Close releases resources (store, broker, dashboard sockets). The
// compaction trigger is drained before the store closes, so a snapshot
// due after the final flush still completes.
func (p *Platform) Close() error {
	p.Stop()
	if p.lifec != nil {
		p.lifec.Close()
	}
	p.stopCompacting()
	p.dash.Close()
	p.subs.Close()
	p.broker.Close()
	return p.store.Close()
}
