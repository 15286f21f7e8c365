// Command heuristicd runs the heuristic component as a standalone process,
// the paper's deployment shape: it follows a TIP's change log over the
// REST API (GET /events/changes?wait=, where the paper subscribes to
// zeroMQ, §IV-A), scores the cIoCs it reads against its local inventory,
// and writes enriched events back through the same API. With -cursor its
// place in the change log survives a restart.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/caisplatform/caisp/internal/daemon"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/obs/health"
	"github.com/caisplatform/caisp/internal/tip"
	"github.com/caisplatform/caisp/internal/worker"
)

func main() {
	var (
		tipURL  = flag.String("tip", "http://127.0.0.1:8440", "TIP REST API base URL")
		cursor  = flag.String("cursor", "", "file keeping the place in the TIP's change log across restarts (empty = in memory, from the start)")
		apiKey  = flag.String("key", "", "TIP API key")
		invPath = flag.String("inventory", "", "inventory JSON (empty = paper's Table III inventory)")
		obsAddr = flag.String("metrics", "", "observability listen address serving /metrics (empty disables)")
		pprofOn = flag.Bool("pprof", false, "expose pprof profiles under /debug/pprof/ on the metrics address")
		node    = flag.String("node", "heuristicd", "node name in the fleet status view")
	)
	flag.Parse()
	if err := run(*tipURL, *cursor, *apiKey, *invPath, *obsAddr, *node, *pprofOn); err != nil {
		fmt.Fprintln(os.Stderr, "heuristicd:", err)
		os.Exit(1)
	}
}

func run(tipURL, cursor, apiKey, invPath, obsAddr, node string, pprofOn bool) error {
	inventory, err := infra.LoadInventory(invPath)
	if err != nil {
		return err
	}
	collector, err := infra.NewCollector(inventory)
	if err != nil {
		return err
	}
	rt := daemon.New(nil)
	client := tip.NewClient(tipURL, apiKey)
	w, err := worker.New(worker.Config{
		TIP:       client,
		Cursor:    cursor,
		Collector: collector,
		Metrics:   rt.Metrics,
		RIoCSink: func(r heuristic.RIoC) {
			fmt.Printf("rIoC %s TS=%.4f (%s) nodes=%v\n", r.CVE, r.ThreatScore, r.Priority, r.NodeIDs)
		},
	})
	if err != nil {
		return err
	}

	// Health: the worker is ready when its upstream TIP answers. That
	// degrades readiness only — the process itself stays live so the
	// orchestrator does not restart it while the TIP recovers.
	rt.Health.Register("tip_reachable", func() health.Result {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if _, err := client.Stats(ctx); err != nil {
			return health.Degradedf(fmt.Sprintf("tip unreachable: %v", err))
		}
		return health.Pass()
	})

	if obsAddr != "" {
		rt.Serve(obsAddr, rt.Mux(nil, pprofOn, func() health.NodeStatus {
			return health.NodeStatus{
				Node:        node,
				Role:        "heuristicd",
				IngestTotal: int64(w.Stats().Received),
			}
		}))
		fmt.Printf("metrics: http://localhost%s/metrics\n", obsAddr)
	}
	fmt.Printf("heuristic component: following TIP %s\n", tipURL)

	// On SIGINT/SIGTERM the drain waits, under the runtime's deadline, for
	// the page in flight.
	rt.Go(w.Run)
	rt.Every(15*time.Second, func() {
		st := w.Stats()
		fmt.Printf("received=%d skipped=%d enriched=%d riocs=%d failures=%d\n",
			st.Received, st.Skipped, st.Enriched, st.RIoCs, st.Failures)
	})
	err = rt.Run()
	st := w.Stats()
	fmt.Printf("\nshutting down: received=%d enriched=%d riocs=%d failures=%d\n",
		st.Received, st.Enriched, st.RIoCs, st.Failures)
	return err
}
