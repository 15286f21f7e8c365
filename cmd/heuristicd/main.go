// Command heuristicd runs the heuristic component as a standalone process,
// the paper's deployment shape: it subscribes to a TIP's publish socket
// (the zeroMQ channel of §IV-A), scores incoming cIoCs against its local
// inventory, and writes enriched events back through the TIP REST API.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/obs/health"
	"github.com/caisplatform/caisp/internal/tip"
	"github.com/caisplatform/caisp/internal/worker"
)

// drainDeadline bounds how long shutdown waits for the analyzer shards
// to drain their queues after the bus subscription closes.
const drainDeadline = 5 * time.Second

// busStableCheck degrades while the bus subscription is flapping: a
// reconnect since the previous evaluation means the publish socket
// dropped us at least once in the interval.
func busStableCheck(w *worker.Worker) health.Check {
	var lastReconnects atomic.Int64 // evaluations may run concurrently (probe + scrape)
	return func() health.Result {
		n := int64(w.Stats().Reconnect)
		if prev := lastReconnects.Swap(n); n > prev {
			return health.Degradedf(fmt.Sprintf("bus reconnecting (%d reconnects total)", n))
		}
		return health.Pass()
	}
}

func main() {
	var (
		busAddr = flag.String("bus", "127.0.0.1:8441", "TIP publish socket address")
		tipURL  = flag.String("tip", "http://127.0.0.1:8440", "TIP REST API base URL")
		apiKey  = flag.String("key", "", "TIP API key")
		invPath = flag.String("inventory", "", "inventory JSON (empty = paper's Table III inventory)")
		obsAddr = flag.String("metrics", "", "observability listen address serving /metrics (empty disables)")
		pprofOn = flag.Bool("pprof", false, "expose pprof profiles under /debug/pprof/ on the metrics address")
		node    = flag.String("node", "heuristicd", "node name in the fleet status view")
	)
	flag.Parse()
	if err := run(*busAddr, *tipURL, *apiKey, *invPath, *obsAddr, *node, *pprofOn); err != nil {
		fmt.Fprintln(os.Stderr, "heuristicd:", err)
		os.Exit(1)
	}
}

func run(busAddr, tipURL, apiKey, invPath, obsAddr, node string, pprofOn bool) error {
	inventory := infra.PaperInventory()
	if invPath != "" {
		raw, err := os.ReadFile(invPath)
		if err != nil {
			return err
		}
		inventory, err = infra.ParseInventory(raw)
		if err != nil {
			return err
		}
	}
	collector, err := infra.NewCollector(inventory)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg)
	obs.RegisterRuntime(reg)
	client := tip.NewClient(tipURL, apiKey)
	w, err := worker.New(worker.Config{
		BusAddr:   busAddr,
		TIP:       client,
		Collector: collector,
		Metrics:   reg,
		RIoCSink: func(r heuristic.RIoC) {
			fmt.Printf("rIoC %s TS=%.4f (%s) nodes=%v\n", r.CVE, r.ThreatScore, r.Priority, r.NodeIDs)
		},
	})
	if err != nil {
		return err
	}

	// Health: the worker is ready when its upstream TIP answers and the
	// bus subscription is not flapping. Both degrade readiness — the
	// process itself stays live so the orchestrator does not restart it
	// while the TIP recovers.
	checks := health.New(reg)
	checks.Register("tip_reachable", func() health.Result {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if _, err := client.Stats(ctx); err != nil {
			return health.Degradedf(fmt.Sprintf("tip unreachable: %v", err))
		}
		return health.Pass()
	})
	checks.Register("bus_stable", busStableCheck(w))

	var obsSrv *http.Server
	if obsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", reg.Handler())
		mux.Handle("GET /healthz", checks.Liveness())
		mux.Handle("GET /readyz", checks.Readiness())
		mux.Handle("GET /cluster/status", health.StatusHandler(func() health.NodeStatus {
			st := w.Stats()
			return health.NodeStatus{
				Node:        node,
				Role:        "heuristicd",
				IngestTotal: int64(st.Received),
				Health:      checks.Evaluate(),
			}
		}))
		if pprofOn {
			obs.RegisterPprof(mux)
		}
		obsSrv = &http.Server{Addr: obsAddr, Handler: mux, ReadHeaderTimeout: tip.ReadHeaderTimeout}
		go func() { _ = obsSrv.ListenAndServe() }()
		fmt.Printf("metrics: http://localhost%s/metrics\n", obsAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("heuristic component: bus %s, TIP %s\n", busAddr, tipURL)

	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	ticker := time.NewTicker(15 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			// Graceful shutdown: Run's context is cancelled; wait up to the
			// drain deadline for the analyzer shards to finish in-flight
			// scores, then report and exit either way.
			drained := true
			select {
			case <-done:
			case <-time.After(drainDeadline):
				drained = false
			}
			if obsSrv != nil {
				shutdownCtx, cancel := context.WithTimeout(context.Background(), time.Second)
				_ = obsSrv.Shutdown(shutdownCtx)
				cancel()
			}
			st := w.Stats()
			fmt.Printf("\nshutting down (drained=%v): received=%d enriched=%d riocs=%d failures=%d\n",
				drained, st.Received, st.Enriched, st.RIoCs, st.Failures)
			return nil
		case <-done:
			return nil
		case <-ticker.C:
			st := w.Stats()
			fmt.Printf("received=%d skipped=%d enriched=%d riocs=%d failures=%d reconnects=%d\n",
				st.Received, st.Skipped, st.Enriched, st.RIoCs, st.Failures, st.Reconnect)
		}
	}
}
