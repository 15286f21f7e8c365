// Command caispd runs the full Context-Aware OSINT Platform: OSINT
// collection (synthetic feeds by default, or a directory of feed files),
// the TIP operational module with its REST API, the heuristic component,
// the live dashboard, and the TAXII sharing endpoint.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/caisplatform/caisp/internal/core"
	"github.com/caisplatform/caisp/internal/daemon"
	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/feedgen"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/lifecycle"
	"github.com/caisplatform/caisp/internal/obs/health"
	"github.com/caisplatform/caisp/internal/report"
	"github.com/caisplatform/caisp/internal/sessions"
	"github.com/caisplatform/caisp/internal/tip"
)

// options are caispd's flags beyond the platform's own.
type options struct {
	dashAddr, tipAddr, taxiiAddr, apiKey string
	invPath, feedDir, alarmLog, sessLog  string
	seed                                 int64
	items                                int
	interval                             time.Duration
	pprof                                bool
}

func main() {
	var cfg core.Config
	var o options
	flag.StringVar(&o.dashAddr, "dashboard", ":8450", "dashboard listen address")
	flag.StringVar(&o.tipAddr, "tip", ":8440", "TIP REST API listen address")
	flag.StringVar(&o.taxiiAddr, "taxii", ":8460", "TAXII listen address (empty disables)")
	flag.StringVar(&cfg.DataDir, "data", "", "event store directory (empty = in-memory)")
	flag.StringVar(&o.invPath, "inventory", "", "inventory JSON (empty = paper's Table III inventory)")
	flag.StringVar(&o.feedDir, "feeds", "", "directory of feed files (empty = built-in synthetic feeds)")
	flag.Int64Var(&o.seed, "seed", 1, "synthetic feed seed")
	flag.IntVar(&o.items, "items", 200, "synthetic feed records per feed")
	flag.DurationVar(&o.interval, "interval", time.Minute, "feed polling interval")
	flag.StringVar(&o.apiKey, "key", "", "TIP API key (empty disables auth)")
	flag.StringVar(&o.alarmLog, "alarms", "", "syslog-style alarm file ingested at startup")
	flag.StringVar(&o.sessLog, "sessions", "", "JSON file of user sessions for the §II-B summary endpoints")
	flag.BoolVar(&o.pprof, "pprof", false, "expose pprof profiles under /debug/pprof/ on the dashboard address")
	flag.DurationVar(&cfg.SlowOpThreshold, "slow-op", 0, "log heuristic evaluations and dashboard pushes slower than this (0 disables)")
	flag.BoolVar(&cfg.DisableLifecycle, "no-lifecycle", false, "disable decay-driven re-scoring and expiry (store grows without bound)")
	flag.DurationVar(&cfg.LifecycleInterval, "lifecycle-interval", 0, "cadence of the background re-score batch (0 = engine default)")
	flag.Float64Var(&cfg.LifecycleFloor, "lifecycle-floor", 0, "expire indicators once their decayed score falls to this (0 = engine default)")
	flag.StringVar(&cfg.NodeName, "node", "", "node name in provenance and the fleet view (empty = caisp)")
	flag.Parse()
	if err := run(cfg, o); err != nil {
		fmt.Fprintln(os.Stderr, "caispd:", err)
		os.Exit(1)
	}
}

func run(cfg core.Config, o options) error {
	var err error
	if cfg.Inventory, err = infra.LoadInventory(o.invPath); err != nil {
		return err
	}
	if cfg.Feeds, err = buildFeeds(o.feedDir, o.seed, o.items, o.interval); err != nil {
		return err
	}
	cfg.ShareTAXII = o.taxiiAddr != ""
	platform, err := core.New(cfg)
	if err != nil {
		return err
	}
	defer platform.Close()
	rt := daemon.New(platform.Metrics())

	if o.alarmLog != "" {
		if err := ingestAlarms(platform, o.alarmLog); err != nil {
			return err
		}
	}
	if o.sessLog != "" {
		if err := loadSessions(platform, o.sessLog); err != nil {
			return err
		}
	}

	if err := platform.Start(rt.Context(), 2*time.Second); err != nil {
		return err
	}

	rt.Serve(o.dashAddr, withReport(rt, platform, cfg.DataDir, o.pprof))
	rt.Serve(o.tipAddr, tip.NewAPI(platform.TIP(), o.apiKey))
	fmt.Printf("dashboard:  http://localhost%s\n", o.dashAddr)
	fmt.Printf("TIP API:    http://localhost%s\n", o.tipAddr)
	if cfg.ShareTAXII {
		rt.Serve(o.taxiiAddr, platform.TAXII())
		fmt.Printf("TAXII:      http://localhost%s/taxii2/\n", o.taxiiAddr)
	}
	rt.Every(10*time.Second, func() {
		st := platform.Stats()
		fmt.Printf("collected=%d unique=%d ciocs=%d edits=%d merges=%d eiocs=%d riocs=%d stored=%d\n",
			st.EventsCollected, st.EventsUnique, st.CIoCs, st.ClusterEdits,
			st.ClusterMerges, st.EIoCs, st.RIoCs, st.StoredEvents)
	})
	return rt.Run()
}

// withReport registers caispd's checks and mounts the analyst situation
// report, the platform counters, the lifecycle's endpoints and the shared
// observability surfaces next to the dashboard. The checks are the store checks plus dashboard
// hub saturation: readiness degrades once the deepest client queue
// passes 90%, where the next broadcast starts evicting slow clients.
// /stats surfaces the full pipeline Stats — including the streaming
// correlator's cluster add/edit/merge counters; /metrics serves the
// same values (and the latency histograms) in Prometheus text format,
// and /debug/traces the slowest end-to-end IoC journeys with per-stage
// breakdowns.
func withReport(rt *daemon.Runtime, platform *core.Platform, dataDir string, pprof bool) http.Handler {
	rt.StoreChecks(dataDir, platform.Durability, platform.Lifecycle())
	rt.Health.Register("hub_saturation", health.Max("dashboard hub queue fill",
		platform.Dashboard().HubSaturation, 0.9))
	mux := rt.Mux(platform.Tracer(), pprof, func() health.NodeStatus {
		st := daemon.TIPStatus("caispd", platform.TIP())
		st.Clients = platform.Dashboard().ClientCount()
		return st
	})
	if lc := platform.Lifecycle(); lc != nil {
		mux.Handle("GET /lifecycle/{rest...}", lifecycle.NewAPI(lc))
	}
	mux.HandleFunc("GET /report", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
		_, _ = w.Write([]byte(report.Build(platform, 10, time.Now()).Markdown()))
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(platform.Stats())
	})
	mux.Handle("/", platform.Dashboard())
	return mux
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
			Category: feedgen.FeedCategory(base),
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

// parserForFile infers the parser from the file extension: a feed
// directory may hold files feedgen did not write.
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
