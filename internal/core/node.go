package core

import (
	"cmp"
	"context"
	"log/slog"
	"path/filepath"
	"sync"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/lifecycle"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/par"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/subscribe"
	"github.com/caisplatform/caisp/internal/tip"
)

// Node is the operational module on its own: the MISP-format event store
// and its compactor, the TIP service, the standing STIX-pattern
// subscriptions with the detections loop that follows the store's change
// log, and the indicator lifecycle. tipd runs a Node; a Platform embeds
// one. A Node scores nothing: standalone, heuristicd scores what it stores.
type Node struct {
	clk    clock.Clock
	logger *slog.Logger

	// Observability: reg holds every stage's caisp_* families; tracer
	// stamps each admitted event's journey. Both are nil under
	// Config.DisableMetrics (every use is nil-checked or nil-safe).
	reg    *obs.Registry
	tracer *obs.Tracer

	store *storage.Store
	tip   *tip.Service
	// detections evaluates every revision the store commits against the
	// standing patterns in subs, following the change log from NewNode on.
	subs       *subscribe.Engine
	detections *subscribe.Detections
	lifec      *lifecycle.Engine // nil under Config.DisableLifecycle
	pool       int               // fanOut's goroutines

	// stop ends the background loops start launched (the subscription
	// sweeper, the lifecycle, the compactor); loops waits for them.
	stop  context.CancelFunc
	loops sync.WaitGroup
}

// NewNode builds a standalone node from cfg's DataDir, NodeName, Clock,
// Logger, Metrics, DisableMetrics, lifecycle fields and AnalyzerPool (the
// detections loop's fan-out). With a DataDir its subscriptions persist in
// <DataDir>/subscriptions.json.
func NewNode(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	var sidecar string
	if cfg.DataDir != "" {
		sidecar = filepath.Join(cfg.DataDir, "subscriptions.json")
	}
	n, err := newNode(cfg, cfg.Metrics, sidecar)
	if err != nil {
		return nil, err
	}
	tip.RegisterLag(n.reg, map[string]func() uint64{"detections": n.detectionsLag})
	n.start()
	return n, nil
}

// newNode opens the store and builds what runs over it, starting nothing.
// hub receives the match hub's caisp_wsock_* families and sidecar holds
// the subscriptions; a Platform passes neither, since its dashboard owns
// those families, and passes its lifecycle wiring in lc.
func newNode(cfg Config, hub *obs.Registry, sidecar string, lc ...lifecycle.Option) (*Node, error) {
	store, err := storage.Open(cfg.DataDir, storage.WithMetrics(cfg.Metrics))
	if err != nil {
		return nil, err
	}
	n := &Node{
		clk:    cfg.Clock,
		logger: cfg.Logger,
		reg:    cfg.Metrics,
		tracer: obs.NewTracer(cfg.Metrics),
		store:  store,
		pool:   cfg.AnalyzerPool,
	}
	name := cmp.Or(cfg.NodeName, "caisp")
	var prov *obs.ProvTable // origin provenance for locally ingested events
	if !cfg.DisableMetrics {
		// Origin provenance rides the observability switch: the ablation
		// baseline must not pay the per-ingest record either.
		prov = obs.NewProvTable(obs.DefaultProvCap)
	}
	n.tip = tip.NewService(store, tip.WithLogger(cfg.Logger),
		tip.WithMetrics(cfg.Metrics), tip.WithName(name), tip.WithProvenance(prov))
	n.subs = subscribe.NewEngine(subscribe.WithMetrics(cfg.Metrics), subscribe.WithHubMetrics(hub),
		subscribe.WithPersistPath(sidecar), subscribe.WithLogger(cfg.Logger), subscribe.WithClock(cfg.Clock))
	n.detections = n.subs.Detections(n.tip, store.Seq(), n.fanOut)
	if !cfg.DisableLifecycle {
		n.lifec = lifecycle.New(store, append([]lifecycle.Option{
			lifecycle.WithClock(cfg.Clock),
			lifecycle.WithInterval(cfg.LifecycleInterval),
			lifecycle.WithFloor(cfg.LifecycleFloor),
			lifecycle.WithLogger(cfg.Logger),
			lifecycle.WithMetrics(cfg.Metrics),
		}, lc...)...)
	}
	return n, nil
}

// withDefaults fills in the clock, the logger and, unless metrics are
// disabled, a private registry.
func (cfg Config) withDefaults() Config {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	cfg.Logger = cmp.Or(cfg.Logger, slog.Default())
	if cfg.Metrics == nil && !cfg.DisableMetrics {
		cfg.Metrics = obs.NewRegistry()
	}
	return cfg
}

// start launches the subscription sweeper, the lifecycle's re-score
// loop and the store's compactor, each until Close.
func (n *Node) start() {
	ctx, stop := context.WithCancel(context.Background())
	n.stop = stop
	loops := []func(context.Context){n.subs.RunSweeper,
		func(ctx context.Context) { n.store.RunCompactor(ctx, n.logger) }}
	if n.lifec != nil {
		loops = append(loops, n.lifec.Run)
	}
	goRun(ctx, &n.loops, loops...)
}

// goRun runs each loop on a goroutine of its own until ctx ends; wg
// waits for them.
func goRun(ctx context.Context, wg *sync.WaitGroup, loops ...func(context.Context)) {
	wg.Add(len(loops))
	for _, run := range loops {
		go func() {
			defer wg.Done()
			run(ctx)
		}()
	}
}

// Run evaluates the standing patterns against each commit until ctx ends.
func (n *Node) Run(ctx context.Context) { n.detections.Run(ctx) }

func (n *Node) detectionsLag() uint64 { return n.detections.Lag(n.store.Seq()) }

// Close stops the background loops and waits for them (a snapshot due
// by then still completes), then closes the subscription engine and the
// store.
func (n *Node) Close() error {
	n.stop()
	n.loops.Wait()
	n.subs.Close()
	return n.store.Close()
}

// Metrics returns the observability registry, or nil when disabled.
func (n *Node) Metrics() *obs.Registry { return n.reg }

// Tracer returns the per-event stage tracer, or nil when disabled.
func (n *Node) Tracer() *obs.Tracer { return n.tracer }

// Durability reports the store's WAL watermarks (compaction backlog).
func (n *Node) Durability() storage.DurabilityStats { return n.store.Durability() }

// TIP returns the operational module's TIP service.
func (n *Node) TIP() *tip.Service { return n.tip }

// Subscriptions returns the streaming-detection engine.
func (n *Node) Subscriptions() *subscribe.Engine { return n.subs }

// Lifecycle returns the indicator-lifecycle engine, or nil when disabled.
func (n *Node) Lifecycle() *lifecycle.Engine { return n.lifec }

// fanOut calls fn(0..n-1) on up to AnalyzerPool goroutines and waits.
func (n *Node) fanOut(count int, fn func(i int)) { par.Do(count, n.pool, fn) }
