// Package core wires the three modules of the Context-Aware OSINT Platform
// (paper §III) into one pipeline:
//
//	Input:       feeds → normalize → dedup → aggregate/correlate → cIoC
//	Operational: cIoC → TIP (MISP-format store, auto-correlation, change
//	             log) → heuristic analysis → threat score → eIoC
//	Output:      eIoC → reduction → rIoC → dashboard push; eIoC → TAXII
//	             collection for external sharing
//
// The platform runs either in streaming mode (Start: feed scheduler +
// flusher, and an analyzer following the TIP's change log for the events
// others store) or in batch mode (RunBatch: one synchronous pass, used by
// the examples and the experiment harness). Every stage is concurrent:
// feeds poll in parallel, a flush scores its clusters over N goroutines
// and stores them, scored, with one group-committed WAL write. Standing
// STIX-pattern subscriptions see every revision through one detections
// loop (subscribe.Detections) that follows the same change log; batch
// mode drains it before RunBatch returns.
//
// The operational module alone is a Node: the store, the TIP, the
// detections loop and the lifecycle. tipd runs one built by NewNode; a
// Platform embeds one and builds the other two modules around it.
package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/subscribe"
	"github.com/caisplatform/caisp/internal/taxii"
	"github.com/caisplatform/caisp/internal/textclass"
	"github.com/caisplatform/caisp/internal/tip"
	"github.com/caisplatform/caisp/internal/worker"
)

// TAXIICollection is the collection eIoCs are shared into.
const TAXIICollection = "eiocs"

// Config parameterizes a Platform, and a Node through the fields NewNode
// names.
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
	// AnalyzerPool bounds the goroutines that score a flush's clusters and
	// a change-log page's unscored cIoCs, and that evaluate a page against
	// the standing patterns. Values below 1 use GOMAXPROCS.
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
	// Unscorable counts the composed clusters a flush committed unscored
	// because none of their SDOs has a heuristic, so a flush's clusters
	// balance as CIoCs + ClusterEdits = EIoCs + Unscorable. The follower
	// counts nothing it finds unscorable.
	Unscorable    int `json:"unscorable"`
	StoreFailures int `json:"store_failures"`
	StoredEvents  int `json:"stored_events"`
	// BusDropped is always 0: the platform has no bus. The key stays so
	// /stats keeps its shape.
	BusDropped int64 `json:"bus_dropped"`
}

// counters is the lock-free backing of Stats: every pipeline stage bumps
// its own atomic, so the analyzer pool never serializes on a stats mutex.
// The intake counts are the deduper's own: ingest offers every collected
// event to it exactly once.
type counters struct {
	ciocs            atomic.Int64
	clusterEdits     atomic.Int64
	clusterMerges    atomic.Int64
	eiocs            atomic.Int64
	riocs            atomic.Int64
	classified       atomic.Int64
	unscorable       atomic.Int64
	storeFailures    atomic.Int64
	members, carried atomic.Int64 // of the flush's revisions (Members)
}

// Platform is a running Context-Aware OSINT Platform instance: a Node
// with the input module, the analyzer and the output module around it.
type Platform struct {
	*Node

	flushDur   *obs.Histogram // caisp_pipeline_flush_seconds
	analyzeDur *obs.Histogram // caisp_pipeline_analyze_seconds

	// Input module. corr is the stateful streaming correlator: cluster
	// membership accumulates across flush batches (and across restarts,
	// via the recovery-time index rebuild in New).
	scheduler  *feed.Scheduler
	deduper    *dedup.Deduper
	corr       *correlate.Incremental
	classifier *textclass.Classifier

	// The heuristic component, scoring what the node stores.
	engine   *heuristic.Engine
	analyzer *worker.Analyzer

	// Output module.
	collector *infra.Collector
	dash      *dashboard.Server
	taxiiSrv  *taxii.Server

	mu      sync.Mutex // guards pending
	pending []normalize.Event
	// arrived wakes the streaming flusher when a poll put events into
	// pending. Capacity one: polls landing while a flush runs share one
	// further flush, and ingest never blocks.
	arrived chan struct{}

	counters counters

	runMu   sync.Mutex
	started bool
	cancel  context.CancelFunc
	workers sync.WaitGroup // the analyzer's follower, the detections and the flusher
	// follower is the analyzer's place in the change log while streaming
	// mode runs; nil otherwise.
	follower atomic.Pointer[tip.Follower]
}

// New assembles a platform from the configuration.
func New(cfg Config) (*Platform, error) {
	cfg = cfg.withDefaults()
	inventory := cfg.Inventory
	if inventory == nil {
		inventory = infra.PaperInventory()
	}
	collector, err := infra.NewCollector(inventory)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	p := &Platform{
		deduper:    dedup.New(dedup.WithMetrics(reg)),
		corr:       correlate.NewIncremental(correlate.WithMetrics(reg)),
		classifier: textclass.New(),
		collector:  collector,
		arrived:    make(chan struct{}, 1),
	}
	p.scheduler = feed.NewScheduler(p.ingest,
		feed.WithClock(cfg.Clock), feed.WithLogger(cfg.Logger),
		feed.WithConcurrency(cfg.FeedConcurrency),
		feed.WithMetrics(reg))
	for _, f := range cfg.Feeds {
		if err := p.scheduler.Add(f); err != nil {
			return nil, err
		}
	}
	// The node's lifecycle reads sightings from the live correlator, made
	// first, so a cluster that keeps growing keeps its score fresh; expiry
	// goes through the TIP, tombstoning the replicated change log, and the
	// dashboard forgets the indicator's rIoCs.
	if p.Node, err = newNode(cfg, nil, "",
		lifecycle.WithSightings(p.corr.LastSightings),
		lifecycle.WithExpireHook(p.expireEvent)); err != nil {
		return nil, err
	}
	p.registerPipelineMetrics()
	p.engine = heuristic.NewEngine(
		heuristic.WithInfrastructure(collector),
		heuristic.WithClock(cfg.Clock),
		heuristic.WithMetrics(reg),
		heuristic.WithLogger(cfg.Logger),
		heuristic.WithSlowThreshold(cfg.SlowOpThreshold),
	)
	p.analyzer = worker.NewAnalyzer(p.engine, collector, cfg.Clock, p.pushRIoC)
	p.analyzer.RegisterMetrics(reg)
	p.dash = dashboard.NewServer(collector,
		dashboard.WithMetrics(reg),
		dashboard.WithLogger(cfg.Logger),
		dashboard.WithSlowThreshold(cfg.SlowOpThreshold))
	// The streaming-detection surface rides the dashboard listener:
	// /subscriptions REST plus the /ws/matches push stream.
	p.dash.SetSubscriptions(subscribe.NewAPI(p.subs))
	if cfg.ShareTAXII {
		p.taxiiSrv = taxii.NewServer("CAISP sharing", "caisp", taxii.WithClock(cfg.Clock))
		p.taxiiSrv.AddCollection(TAXIICollection, "Enriched IoCs",
			"eIoCs produced by the heuristic component", false)
	}
	if p.store.Len() > 0 {
		p.rebuildCorrelationIndex()
	}
	p.start()
	return p, nil
}

// registerPipelineMetrics exposes the platform's lock-free stage counters
// and queue gauges as scrape-time views — the same counts back Stats(),
// so /stats and /metrics can never disagree. A nil registry registers
// nothing.
func (p *Platform) registerPipelineMetrics() {
	reg := p.reg
	reg.CounterFunc("caisp_pipeline_collected_total", "Events delivered by the feed scheduler.",
		func() float64 { return float64(p.deduper.Stats().Seen) })
	reg.CounterFunc("caisp_pipeline_unique_total", "Events admitted as unique by the deduper.",
		func() float64 { return float64(p.deduper.Stats().Unique) })
	reg.CounterFunc("caisp_pipeline_duplicates_total", "Events folded into already admitted ones.",
		func() float64 { return float64(p.deduper.Stats().Duplicates) })
	counter := func(name, help string, v *atomic.Int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
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
		"One flush: correlation delta, scoring, the group-committed store and its sharing.")
	p.analyzeDur = reg.Histogram("caisp_pipeline_analyze_seconds",
		"Heuristic scoring of one cIoC revision and its rIoC pushes.")
	tip.RegisterLag(reg, map[string]func() uint64{
		"analyzer":   func() uint64 { return p.follower.Load().Lag(p.store.Seq()) },
		"detections": p.detectionsLag,
	})
}

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

// Collector returns the infrastructure collector.
func (p *Platform) Collector() *infra.Collector { return p.collector }

// Dashboard returns the output module's dashboard server.
func (p *Platform) Dashboard() *dashboard.Server { return p.dash }

// expireEvent is the lifecycle engine's expiry hook: the deletion goes
// through the TIP (tombstoning the replicated change log so mesh peers
// and subscription engines converge on the removal) and the dashboard
// forgets the indicator's rIoCs.
func (p *Platform) expireEvent(uuid string) error {
	if err := p.tip.DeleteEvent(uuid); err != nil && !errors.Is(err, storage.ErrNotFound) {
		return err
	}
	p.retract(uuid)
	return nil
}

// retract makes the dashboard forget an event's rIoCs and the analyzer
// its score record, and abandons its trace: the event left the store, or
// a revision of it never got in.
func (p *Platform) retract(uuid string) {
	p.dash.DropEventRIoCs(uuid)
	p.analyzer.Forget(uuid)
	p.tracer.Drop(uuid)
}

// TAXII returns the sharing server, or nil when disabled.
func (p *Platform) TAXII() *taxii.Server { return p.taxiiSrv }

// Engine returns the heuristic engine.
func (p *Platform) Engine() *heuristic.Engine { return p.engine }

// FeedStats returns per-feed collection counters.
func (p *Platform) FeedStats() map[string]feed.Stats { return p.scheduler.Stats() }

// DedupStats returns the deduplication counters.
func (p *Platform) DedupStats() dedup.Stats { return p.deduper.Stats() }

// Stats returns pipeline counters. The intake counts come from one
// snapshot of the deduper, so EventsCollected = EventsUnique + Duplicates
// holds in every Stats.
func (p *Platform) Stats() Stats {
	intake := p.deduper.Stats()
	return Stats{
		EventsCollected: intake.Seen,
		EventsUnique:    intake.Unique,
		Duplicates:      intake.Duplicates,
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
	}
}

// Members returns how many members the flush's revisions held, and how
// many were copied from the revision before instead of rendered.
func (p *Platform) Members() (members, carried int64) {
	return p.counters.members.Load(), p.counters.carried.Load()
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
	me.AddAttribute(correlate.AttributeType(e.Type), "Internal reference", e.Value, e.LastSeen).Comment = "detected by " + source
	correlated, err := p.tip.AddEvent(me)
	if err != nil {
		return normalize.Event{}, nil, fmt.Errorf("core: store infrastructure sighting: %w", err)
	}
	return e, correlated, nil
}

// ingest is the feed scheduler sink, called once per poll that delivered
// records: classify → normalize → dedup → pending buffer, then wake the
// streaming flusher. It is called concurrently by the feed worker pool.
func (p *Platform) ingest(events []normalize.Event) {
	admitted := make([]normalize.Event, 0, len(events))
	for _, e := range events {
		p.classify(&e)
		stored, isNew := p.deduper.Offer(e)
		if !isNew {
			// A duplicate never starts a trace: its original may still be
			// in flight under the same ID.
			continue
		}
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

// flush is one pass over a batch of unique events; every flush runs it
// (RunBatch, the Start flusher and Stop's final flush). The batch folds
// into the streaming correlator and absorbed cluster identities are
// retracted from the TIP and the dashboard. Each new or grown cluster is
// composed and scored on the analyzer pool, pushing its rIoCs as its SDOs
// are scored. The batch is then committed once, through the group-commit
// path (one WAL write and flush): scored clusters as eIoCs, unscorable
// ones as cIoCs. The TIP and the heuristic share this process, so the
// threat score rides the cluster's one revision (§IV-A) instead of a
// second write-back. Each eIoC the store installed is then shared over
// TAXII and its trace ends. The standing patterns see the commit through
// the detections loop, which follows the change log like any consumer.
//
// It stores what it can. A cluster that fails composition, or that the
// store refuses or fails to commit, is counted as a store failure, its
// rIoCs are retracted, nothing of it is shared, and its error is joined;
// the rest of the batch still lands. A cluster whose scoring fails is
// committed unscored and its error joined; in streaming mode the
// analyzer's follower scores it again. It returns the revisions the store
// installed.
func (p *Platform) flush(events []normalize.Event) ([]*misp.Event, error) {
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
	// earliest member continues under the cluster UUID from here on. Only
	// the events this flush indexed still trace under their own IDs.
	if p.tracer != nil {
		for _, ciocs := range [][]correlate.ComposedIoC{delta.New, delta.Updated} {
			for i := range ciocs {
				p.tracer.Adopt(ciocs[i].ID, obs.StageCorrelate, delta.Joined[ciocs[i].ID])
			}
		}
	}
	var errs []error
	// Retract absorbed identities first: their members are already carried
	// by the surviving cluster's edit in the same delta, so the TIP and
	// the dashboard never count them twice.
	for _, uuid := range delta.Removed {
		if err := p.tip.DeleteEvent(uuid); err != nil && !errors.Is(err, storage.ErrNotFound) {
			errs = append(errs, fmt.Errorf("core: retract merged cluster %s: %w", uuid, err))
		}
		p.retract(uuid)
	}
	// Compose on the pool: Render is pure and GetSeq reads a snapshot.
	// The batch keeps the delta's order, new clusters first.
	now := p.clk.Now()
	nNew := len(delta.New)
	ciocs := append(delta.New[:nNew:nNew], delta.Updated...)
	revs := make([]correlate.Revision, len(ciocs))
	composeErrs := make([]error, len(ciocs))
	p.fanOut(len(ciocs), func(i int) {
		c := &ciocs[i]
		// A grown cluster's unchanged members keep the attribute UUIDs
		// of the revision stored for it, and are copied from it while
		// it is the one this flush's base names.
		prev, seq, _ := p.store.GetSeq(c.ID)
		if c.Base != nil && c.Base.Seq != seq {
			c.Base = nil
		}
		if revs[i], composeErrs[i] = correlate.Render(c, prev, now); composeErrs[i] != nil {
			composeErrs[i] = fmt.Errorf("core: compose cIoC: %w", composeErrs[i])
			p.tracer.Drop(c.ID)
		}
	})
	errs = append(errs, composeErrs...) // errors.Join drops the nils
	batch, composedNew := make([]*misp.Event, 0, len(revs)), 0
	for i := range revs {
		if revs[i].Event == nil {
			continue
		}
		if i < nNew {
			composedNew++
		}
		ciocs[len(batch)], revs[len(batch)] = ciocs[i], revs[i]
		batch = append(batch, revs[i].Event)
		p.counters.members.Add(int64(len(ciocs[i].Events)))
		p.counters.carried.Add(int64(revs[i].Carried))
	}

	scores, err := p.score(batch, revs)
	if err != nil {
		errs = append(errs, err)
	}
	installed, seqs, err := p.commit(batch)
	if err != nil {
		errs = append(errs, err)
	}
	stored := make([]*misp.Event, len(installed))
	var added int64
	for j, i := range installed {
		stored[j] = batch[i]
		if i < composedNew {
			added++
		}
		// The next revision of the cluster starts from this one.
		p.corr.Rebase(&ciocs[i], &correlate.Base{Seq: seqs[i], Token: scores[i].Token,
			Events: ciocs[i].Events, Starts: revs[i].Starts})
	}
	p.counters.ciocs.Add(added)
	p.counters.clusterEdits.Add(int64(len(installed)) - added)
	p.counters.clusterMerges.Add(int64(len(delta.Removed)))
	p.counters.storeFailures.Add(int64(len(delta.New) + len(delta.Updated) - len(installed)))

	p.fanOut(len(installed), func(j int) {
		me := batch[installed[j]]
		switch scores[installed[j]].Outcome {
		case worker.Enriched:
			p.publish(me)
			return
		case worker.Unscorable:
			p.counters.unscorable.Add(1)
		}
		p.tracer.Drop(me.UUID)
	})
	return stored, errors.Join(errs...)
}

// score scores batch on the analyzer pool, pushing rIoCs as SDOs are
// scored, and returns each event's analysis; the scoring errors are
// joined. The flush and the change-log follower both score through it.
// The flush passes, beside batch, what it rendered each revision from.
func (p *Platform) score(batch []*misp.Event, revs []correlate.Revision) ([]worker.Analysis, error) {
	scores := make([]worker.Analysis, len(batch))
	errs := make([]error, len(batch))
	p.fanOut(len(batch), func(i int) {
		start := time.Now()
		var r correlate.Revision
		if i < len(revs) {
			r = revs[i]
		}
		scores[i], errs[i] = p.analyzer.ScoreFrom(batch[i], r.Token, r.Copied)
		p.analyzeDur.Observe(time.Since(start).Seconds())
		p.tracer.Mark(batch[i].UUID, obs.StageAnalyze)
	})
	return scores, errors.Join(errs...)
}

// commit stores batch in one group commit (one WAL write and flush) and
// retracts what the store did not install: a revision refused as older
// than its UUID's deletion, or lost to a failed commit. It returns the
// batch indices the store installed, in order, and beside batch the
// sequence each was installed at (tip.Service.ImportEvents). The flush
// and the change-log follower both commit through it.
func (p *Platform) commit(batch []*misp.Event) ([]int, []uint64, error) {
	if len(batch) == 0 {
		return nil, nil, nil
	}
	seqs, err := p.tip.ImportEvents(batch, nil)
	if err != nil {
		err = fmt.Errorf("core: store %d revisions: %w", len(batch), err)
	}
	var installed []int
	for i, me := range batch {
		if i < len(seqs) && seqs[i] != 0 {
			installed = append(installed, i)
			p.tracer.Mark(me.UUID, obs.StageStore)
			continue
		}
		p.retract(me.UUID)
	}
	return installed, seqs, err
}

// analyzePage is the streaming analyzer's handler for one page of the
// change log: the heuristic component's rule, applied to what this node
// stores. Each Unscored revision — a REST post, a sync import, or a
// cluster the flush committed unscored — is scored on a copy, since the
// page holds the store's frozen views (DESIGN.md §8). The eIoCs are
// written back in one commit, the paper's second revision, and published.
// A cluster the flush committed unscored stays Unscorable: nothing of it
// is stored or counted. A commit that installs none of the page's eIoCs
// fails the page, which the follower reads again; any other failure is
// logged and the page is passed.
func (p *Platform) analyzePage(page []*misp.Event, _ uint64) error {
	var batch []*misp.Event
	for _, me := range page {
		if heuristic.Unscored(me) {
			batch = append(batch, me.Clone())
		}
	}
	scores, err := p.score(batch, nil)
	var eiocs []*misp.Event
	for i, res := range scores {
		if res.Outcome == worker.Enriched {
			eiocs = append(eiocs, batch[i])
		}
	}
	installed, _, cerr := p.commit(eiocs)
	if cerr != nil && len(installed) == 0 {
		return errors.Join(err, cerr)
	}
	if err = errors.Join(err, cerr); err != nil {
		p.logger.Warn("heuristic analysis failed", "error", err)
	}
	p.fanOut(len(installed), func(j int) {
		p.publish(eiocs[installed[j]])
	})
	return nil
}

// pushRIoC is the analyzer's rIoC sink: each reduced IoC goes to the
// dashboard as its SDO is scored.
func (p *Platform) pushRIoC(r heuristic.RIoC) {
	p.dash.PushRIoC(r)
	p.counters.riocs.Add(1)
}

// publish is the output of a stored eIoC: its scored SDOs are built and
// shared over TAXII when the server is on, and its trace ends.
func (p *Platform) publish(me *misp.Event) {
	p.counters.eiocs.Add(1)
	if p.taxiiSrv != nil {
		sdos, err := p.analyzer.Enriched(me)
		if err == nil {
			err = p.taxiiSrv.AddObjects(TAXIICollection, sdos...)
		}
		if err != nil {
			p.logger.Warn("taxii share failed", "error", err)
		}
	}
	p.tracer.Finish(me.UUID, obs.StagePublish)
}

// RunBatch performs one synchronous pipeline pass: poll every feed once
// (in parallel), dedup, flush what arrived, and evaluate the standing
// patterns against everything the store committed since the last pass.
// Not for use while Start is running.
func (p *Platform) RunBatch(ctx context.Context) error {
	p.scheduler.PollOnce(ctx)
	_, err := p.flush(p.drainPending())
	p.detections.Drain(p.store.Seq())
	return err
}

// Start launches streaming mode: the feed scheduler polls on its
// intervals, and a flusher goroutine flushes pending events as soon as a
// poll has delivered them. A flush takes whole documents (each revises
// the clusters it touches, so never a record at a time), and polls that
// land while one runs share the next. flushInterval is the longest a
// pending event can wait, not the period. The analyzer follows the TIP's
// change log from its head as of Start and scores every cIoC revision
// stored unscored: REST posts, TIP sync imports, and clusters a flush
// could not score. The detections loop follows the same log from where
// it stands. Start runs once per Platform: a second call, even after
// Stop, fails before it launches anything.
func (p *Platform) Start(ctx context.Context, flushInterval time.Duration) error {
	p.runMu.Lock()
	defer p.runMu.Unlock()
	if p.started {
		return fmt.Errorf("core: platform already started")
	}
	if flushInterval <= 0 {
		flushInterval = time.Second
	}
	ctx, cancel := context.WithCancel(ctx)
	// The feed scheduler starts once, so it refuses a restart first.
	if err := p.scheduler.Start(ctx); err != nil {
		cancel()
		return fmt.Errorf("core: start: %w", err)
	}
	p.cancel = cancel
	p.started = true

	follower := tip.NewFollower(p.tip, p.store.Seq(), p.clk, p.logger)
	p.follower.Store(follower)
	p.workers.Add(3)
	go func() {
		defer p.workers.Done()
		follower.Run(ctx, p.analyzePage)
	}()
	go func() {
		defer p.workers.Done()
		p.Node.Run(ctx)
	}()

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
			if _, err := p.flush(p.drainPending()); err != nil {
				p.logger.Warn("flush failed", "error", err)
			}
		}
	}()
	return nil
}

// Stop ends streaming mode, flushes remaining pending events and
// evaluates the standing patterns against what is committed by then.
func (p *Platform) Stop() {
	p.runMu.Lock()
	defer p.runMu.Unlock()
	if !p.started {
		return
	}
	p.cancel()
	p.scheduler.Stop()
	p.workers.Wait()
	p.follower.Store(nil)
	p.started = false
	// Final flush so nothing collected is lost.
	if _, err := p.flush(p.drainPending()); err != nil {
		p.logger.Warn("final flush failed", "error", err)
	}
	p.detections.Drain(p.store.Seq())
}

// Close ends streaming mode and releases the node and the dashboard.
func (p *Platform) Close() error {
	p.Stop()
	err := p.Node.Close()
	p.dash.Close()
	return err
}
