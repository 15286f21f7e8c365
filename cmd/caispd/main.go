// Command caispd runs the full Context-Aware OSINT Platform: OSINT
// collection (synthetic feeds by default, or a directory of feed files),
// the TIP operational module with its REST API, the heuristic component,
// the live dashboard, and the TAXII sharing endpoint.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/caisplatform/caisp/internal/core"
	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/feedgen"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/obs/health"
	"github.com/caisplatform/caisp/internal/report"
	"github.com/caisplatform/caisp/internal/sessions"
	"github.com/caisplatform/caisp/internal/tip"
)

// Health thresholds: the compaction backlog degrades once the WAL holds
// ten uncompacted trigger-intervals (the background compactor has fallen
// far behind), and the dashboard hub degrades when its deepest client
// queue passes 90% — the next broadcast starts evicting slow clients.
const (
	healthMaxWALBacklog   = 50000
	healthMaxHubFill      = 0.9
	healthLifecycleWithin = 5 * time.Minute
)

func main() {
	var (
		dashAddr  = flag.String("dashboard", ":8450", "dashboard listen address")
		tipAddr   = flag.String("tip", ":8440", "TIP REST API listen address")
		taxiiAddr = flag.String("taxii", ":8460", "TAXII listen address (empty disables)")
		dataDir   = flag.String("data", "", "event store directory (empty = in-memory)")
		invPath   = flag.String("inventory", "", "inventory JSON (empty = paper's Table III inventory)")
		feedDir   = flag.String("feeds", "", "directory of feed files (empty = built-in synthetic feeds)")
		seed      = flag.Int64("seed", 1, "synthetic feed seed")
		items     = flag.Int("items", 200, "synthetic feed records per feed")
		interval  = flag.Duration("interval", time.Minute, "feed polling interval")
		apiKey    = flag.String("key", "", "TIP API key (empty disables auth)")
		alarmLog  = flag.String("alarms", "", "syslog-style alarm file ingested at startup")
		sessLog   = flag.String("sessions", "", "JSON file of user sessions for the §II-B summary endpoints")
		pprof     = flag.Bool("pprof", false, "expose pprof profiles under /debug/pprof/ on the dashboard address")
		slowOp    = flag.Duration("slow-op", 0, "log heuristic evaluations and dashboard pushes slower than this (0 disables)")
		lcOff     = flag.Bool("no-lifecycle", false, "disable decay-driven re-scoring and expiry (store grows without bound)")
		lcEvery   = flag.Duration("lifecycle-interval", 0, "cadence of the background re-score batch (0 = engine default)")
		lcFloor   = flag.Float64("lifecycle-floor", 0, "expire indicators once their decayed score falls to this (0 = engine default)")
		nodeName  = flag.String("node", "", "node name in provenance and the fleet view (empty = caisp)")
	)
	flag.Parse()
	if err := run(*dashAddr, *tipAddr, *taxiiAddr, *dataDir, *invPath, *feedDir,
		*seed, *items, *interval, *apiKey, *alarmLog, *sessLog, *pprof, *slowOp,
		*lcOff, *lcEvery, *lcFloor, *nodeName); err != nil {
		fmt.Fprintln(os.Stderr, "caispd:", err)
		os.Exit(1)
	}
}

func run(dashAddr, tipAddr, taxiiAddr, dataDir, invPath, feedDir string,
	seed int64, items int, interval time.Duration, apiKey, alarmLog, sessLog string,
	pprof bool, slowOp time.Duration, lcOff bool, lcEvery time.Duration, lcFloor float64,
	nodeName string) error {
	var inventory *infra.Inventory
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

	feeds, err := buildFeeds(feedDir, seed, items, interval)
	if err != nil {
		return err
	}

	platform, err := core.New(core.Config{
		DataDir:           dataDir,
		NodeName:          nodeName,
		Inventory:         inventory,
		Feeds:             feeds,
		ShareTAXII:        taxiiAddr != "",
		SlowOpThreshold:   slowOp,
		DisableLifecycle:  lcOff,
		LifecycleInterval: lcEvery,
		LifecycleFloor:    lcFloor,
	})
	if err != nil {
		return err
	}
	defer platform.Close()
	obs.RegisterBuildInfo(platform.Metrics())
	obs.RegisterRuntime(platform.Metrics())
	checks := buildHealth(platform, dataDir)

	if alarmLog != "" {
		if err := ingestAlarms(platform, alarmLog); err != nil {
			return err
		}
	}
	if sessLog != "" {
		if err := loadSessions(platform, sessLog); err != nil {
			return err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := platform.Start(ctx, 2*time.Second); err != nil {
		return err
	}

	servers := []*http.Server{
		{Addr: dashAddr, Handler: withReport(platform, checks, pprof)},
		// Request contexts descend from the signal context, so SIGTERM frees
		// change-feed requests parked on ?wait= before Shutdown waits on them.
		{Addr: tipAddr, Handler: tip.NewAPI(platform.TIP(), apiKey),
			BaseContext: func(net.Listener) context.Context { return ctx }},
	}
	fmt.Printf("dashboard:  http://localhost%s\n", dashAddr)
	fmt.Printf("TIP API:    http://localhost%s\n", tipAddr)
	if taxiiAddr != "" {
		servers = append(servers, &http.Server{Addr: taxiiAddr, Handler: platform.TAXII()})
		fmt.Printf("TAXII:      http://localhost%s/taxii2/\n", taxiiAddr)
	}
	for _, srv := range servers {
		srv.ReadHeaderTimeout = tip.ReadHeaderTimeout
	}
	errCh := make(chan error, len(servers))
	for _, srv := range servers {
		srv := srv
		go func() { errCh <- srv.ListenAndServe() }()
	}

	ticker := time.NewTicker(10 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			fmt.Println("\nshutting down")
			for _, srv := range servers {
				shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
				_ = srv.Shutdown(shutdownCtx)
				cancel()
			}
			platform.Stop()
			return nil
		case err := <-errCh:
			if err != nil && err != http.ErrServerClosed {
				return err
			}
		case <-ticker.C:
			st := platform.Stats()
			fmt.Printf("collected=%d unique=%d ciocs=%d edits=%d merges=%d eiocs=%d riocs=%d stored=%d dropped=%d\n",
				st.EventsCollected, st.EventsUnique, st.CIoCs, st.ClusterEdits,
				st.ClusterMerges, st.EIoCs, st.RIoCs, st.StoredEvents, st.BusDropped)
		}
	}
}

// withReport mounts the analyst situation report, the platform counters
// and the observability surfaces next to the dashboard. /stats surfaces
// the full pipeline Stats — including the streaming correlator's cluster
// add/edit/merge counters and broker-wide drop-oldest losses, which are
// otherwise silent; /metrics serves the same values (and the latency
// histograms) in Prometheus text format, and /debug/traces the slowest
// end-to-end IoC journeys with per-stage breakdowns.
func withReport(platform *core.Platform, checks *health.Registry, pprof bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /report", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
		_, _ = w.Write([]byte(report.Build(platform, 10, time.Now()).Markdown()))
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(platform.Stats())
	})
	mux.Handle("GET /metrics", platform.Metrics().Handler())
	mux.Handle("GET /debug/traces", platform.Tracer().Handler())
	mux.Handle("GET /healthz", checks.Liveness())
	mux.Handle("GET /readyz", checks.Readiness())
	mux.Handle("GET /cluster/status", health.StatusHandler(func() health.NodeStatus {
		d := platform.Durability()
		return health.NodeStatus{
			Node:     platform.NodeName(),
			Role:     "caispd",
			StoreSeq: platform.TIP().StoreSeq(),
			Events:   platform.TIP().Len(),
			WALOps:   d.WALOps,
			// The store sequence advances on every put/edit/delete, so it
			// doubles as the monotonic ingest counter caisp-top
			// differentiates into a rate.
			IngestTotal: int64(platform.TIP().StoreSeq()),
			Clients:     platform.Dashboard().ClientCount(),
			Health:      checks.Evaluate(),
		}
	}))
	if pprof {
		obs.RegisterPprof(mux)
	}
	mux.Handle("/", platform.Dashboard())
	return mux
}

// buildHealth assembles caispd's component checks: WAL writability
// (liveness — a node that cannot commit must restart), compaction
// backlog, lifecycle-scheduler progress and dashboard hub saturation
// (readiness — degraded but alive).
func buildHealth(platform *core.Platform, dataDir string) *health.Registry {
	checks := health.New(platform.Metrics())
	checks.Register("wal_writable", health.DirWritable(dataDir))
	checks.Register("compaction_backlog", health.Max("wal ops since snapshot",
		func() float64 { return float64(platform.Durability().WALOps) }, healthMaxWALBacklog))
	if lc := platform.Lifecycle(); lc != nil {
		checks.Register("lifecycle_progress", health.Progress(
			func() int64 { return int64(lc.Stats().Passes) }, healthLifecycleWithin, nil))
	}
	checks.Register("hub_saturation", health.Max("dashboard hub queue fill",
		platform.Dashboard().HubSaturation, healthMaxHubFill))
	return checks
}

// ingestAlarms replays a syslog-style alert file into the collector.
func ingestAlarms(platform *core.Platform, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	stored, failed := platform.Collector().IngestAlarmLines(
		strings.Split(string(data), "\n"), time.Now())
	fmt.Printf("ingested %d alarms from %s (%d lines failed)\n", len(stored), path, len(failed))
	for i, err := range failed {
		fmt.Printf("  line %d: %v\n", i+1, err)
	}
	return nil
}

// loadSessions reads a JSON array of user sessions and enables the
// dashboard's /api/sessions endpoints.
func loadSessions(platform *core.Platform, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var recorded []sessions.Session
	if err := json.Unmarshal(data, &recorded); err != nil {
		return fmt.Errorf("parse sessions file: %w", err)
	}
	analyzer := sessions.NewAnalyzer()
	loaded := 0
	for _, s := range recorded {
		if err := analyzer.Add(s); err != nil {
			fmt.Printf("  session %s skipped: %v\n", s.ID, err)
			continue
		}
		loaded++
	}
	platform.Dashboard().SetSessionAnalyzer(analyzer)
	fmt.Printf("loaded %d user sessions from %s\n", loaded, path)
	return nil
}

// buildFeeds loads feed files from a directory (inferring category and
// parser from the file name/extension) or falls back to the synthetic
// generator.
func buildFeeds(feedDir string, seed int64, items int, interval time.Duration) ([]feed.Feed, error) {
	if feedDir == "" {
		gen := feedgen.New(feedgen.Config{
			Seed: seed, Items: items,
			DuplicationRate: 0.2, OverlapRate: 0.15, DefangRate: 0.3,
		})
		return gen.Feeds(interval)
	}
	entries, err := os.ReadDir(feedDir)
	if err != nil {
		return nil, err
	}
	var feeds []feed.Feed
	for _, entry := range entries {
		if entry.IsDir() {
			continue
		}
		name := entry.Name()
		path := filepath.Join(feedDir, name)
		base := name[:len(name)-len(filepath.Ext(name))]
		feeds = append(feeds, feed.Feed{
			Name:     base,
			Category: categoryForFile(base),
			Fetcher:  &feed.FileFetcher{Path: path},
			Parser:   parserForFile(name),
			Interval: interval,
		})
	}
	if len(feeds) == 0 {
		return nil, fmt.Errorf("no feed files in %s", feedDir)
	}
	return feeds, nil
}

func parserForFile(name string) feed.Parser {
	switch filepath.Ext(name) {
	case ".csv":
		return feed.CSVParser{ValueColumn: 0, HasHeader: true}
	case ".json":
		if filepath.Base(name) == "osint-misp.json" {
			return feed.MISPFeedParser{}
		}
		return feed.AdvisoryParser{}
	default:
		return feed.PlaintextParser{}
	}
}

func categoryForFile(base string) string {
	switch base {
	case feedgen.FeedMalwareDomains, feedgen.FeedMISP:
		return normalize.CategoryMalwareDomain
	case feedgen.FeedBotnetIPs:
		return normalize.CategoryBotnetC2
	case feedgen.FeedPhishingURLs:
		return normalize.CategoryPhishing
	case feedgen.FeedMalwareHashes:
		return normalize.CategoryMalwareHash
	case feedgen.FeedAdvisories:
		return normalize.CategoryVulnExploit
	default:
		return normalize.CategoryUnknown
	}
}
