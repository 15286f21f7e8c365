// Command tipd runs a standalone threat-intelligence-platform instance
// (the MISP-equivalent of the paper's Operational Module): a MISP-format
// event store with REST API and export modules. Where MISP publishes
// stored events over zeroMQ, tipd serves its change log: heuristicd
// follows GET /events/changes?wait= from a cursor, and tipd's standing
// STIX-pattern subscriptions follow it in process through the detections
// loop caispd runs (internal/subscribe). With one or more -peer flags it
// also joins a federation mesh, continuously pull-replicating from the
// named peers with durable cursors and echo suppression (internal/mesh).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/caisplatform/caisp/internal/daemon"
	"github.com/caisplatform/caisp/internal/lifecycle"
	"github.com/caisplatform/caisp/internal/mesh"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/obs/health"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/subscribe"
	"github.com/caisplatform/caisp/internal/tip"
)

// peerFlags collects repeatable -peer values ("name=url" or a bare URL,
// in which case the host:port becomes the peer name).
type peerFlags []string

func (p *peerFlags) String() string     { return strings.Join(*p, ",") }
func (p *peerFlags) Set(v string) error { *p = append(*p, v); return nil }

// config is everything run needs, parsed from flags.
type config struct {
	addr, dataDir, apiKey, name string
	pprof                       bool

	peers        peerFlags
	peerKey      string
	syncInterval time.Duration
	syncPage     int
	subsFile     string

	noLifecycle bool
	lcInterval  time.Duration
	lcFloor     float64
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "listen", ":8440", "REST API listen address")
	flag.StringVar(&cfg.dataDir, "data", "", "event store directory (empty = in-memory)")
	flag.StringVar(&cfg.apiKey, "key", "", "API key required in the Authorization header (empty disables auth)")
	flag.StringVar(&cfg.name, "name", "tipd", "instance name")
	flag.BoolVar(&cfg.pprof, "pprof", false, "expose pprof profiles under /debug/pprof/")
	flag.Var(&cfg.peers, "peer", "replication peer as name=url or url (repeatable)")
	flag.StringVar(&cfg.peerKey, "peer-key", "", "API key presented to peers")
	flag.DurationVar(&cfg.syncInterval, "sync-interval", mesh.DefaultInterval, "base anti-entropy poll interval per peer (jittered)")
	flag.IntVar(&cfg.syncPage, "sync-page", mesh.DefaultBasePage, "starting sync page size (adapts up to the peer's cap)")
	flag.StringVar(&cfg.subsFile, "subs-file", "", "subscription sidecar path (default <data>/subscriptions.json; empty with no -data disables)")
	flag.BoolVar(&cfg.noLifecycle, "no-lifecycle", false, "disable decay-driven re-scoring and expiry (store grows without bound)")
	flag.DurationVar(&cfg.lcInterval, "lifecycle-interval", 0, "cadence of the background re-score batch (0 = engine default)")
	flag.Float64Var(&cfg.lcFloor, "lifecycle-floor", 0, "expire indicators once their decayed score falls to this (0 = engine default)")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "tipd:", err)
		os.Exit(1)
	}
}

// parsePeers resolves the -peer flags into mesh peers.
func parsePeers(cfg config) ([]mesh.Peer, error) {
	peers := make([]mesh.Peer, 0, len(cfg.peers))
	for _, raw := range cfg.peers {
		name, target := "", raw
		if i := strings.Index(raw, "="); i > 0 && !strings.Contains(raw[:i], "/") {
			name, target = raw[:i], raw[i+1:]
		}
		u, err := url.Parse(target)
		if err != nil || u.Host == "" {
			return nil, fmt.Errorf("bad -peer %q (want name=url or url)", raw)
		}
		if name == "" {
			name = u.Host
		}
		peers = append(peers, mesh.Peer{
			Name:   name,
			Remote: tip.NewClient(target, cfg.peerKey),
		})
	}
	return peers, nil
}

func run(cfg config) error {
	rt := daemon.New(nil)
	reg := rt.Metrics
	tracer := obs.NewTracer(reg)
	prov := obs.NewProvTable(obs.DefaultProvCap)
	store, err := storage.Open(cfg.dataDir, storage.WithMetrics(reg))
	if err != nil {
		return err
	}
	defer store.Close()
	// The store's compaction trigger bounds the WAL and restart replay;
	// it stops (draining a pending snapshot) before the store closes.
	defer store.StartCompactor(slog.Default())()

	service := tip.NewService(store, tip.WithName(cfg.name),
		tip.WithMetrics(reg), tip.WithProvenance(prov))

	// Streaming detection: clients register STIX patterns over REST and
	// receive match frames on /ws/matches. The detections loop follows
	// the change log from its head as of now, before the mesh imports
	// anything, under caispd's stage rule. The pattern set persists
	// across restarts through the sidecar file.
	subsFile := cfg.subsFile
	if subsFile == "" && cfg.dataDir != "" {
		subsFile = filepath.Join(cfg.dataDir, "subscriptions.json")
	}
	subs := subscribe.NewEngine(
		subscribe.WithMetrics(reg),
		subscribe.WithHubMetrics(reg),
		subscribe.WithPersistPath(subsFile), // empty: no sidecar
	)
	defer subs.Close()
	if subs.Len() > 0 {
		fmt.Printf("restored %d standing subscription(s) from %s\n", subs.Len(), subsFile)
	}
	detections := subs.Detections(service, service.StoreSeq(), nil)
	tip.RegisterLag(reg, map[string]func() uint64{
		"detections": func() uint64 { return detections.Lag(service.StoreSeq()) },
	})
	rt.Go(detections.Run)

	// Federation: each -peer gets a jittered anti-entropy pull worker.
	// Cursors persist next to the event store so a restarted node
	// resumes from its high-water marks.
	peers, err := parsePeers(cfg)
	if err != nil {
		return err
	}
	var engine *mesh.Engine
	if len(peers) > 0 {
		var cursors mesh.CursorStore = mesh.NewMemCursors()
		if cfg.dataDir != "" {
			cursors = mesh.NewFileCursors(filepath.Join(cfg.dataDir, "mesh-cursors.json"))
		}
		engine, err = mesh.New(service, peers, cursors,
			mesh.WithInterval(cfg.syncInterval),
			mesh.WithPageSize(cfg.syncPage, mesh.DefaultMaxPage),
			mesh.WithMetrics(reg),
			mesh.WithProvenance(cfg.name, prov),
			mesh.WithTracer(tracer),
		)
		if err != nil {
			return err
		}
		engine.Start()
		defer engine.Close()
		names := make([]string, len(peers))
		for i, p := range peers {
			names[i] = p.Name
		}
		fmt.Printf("mesh replication from %d peer(s): %s (interval %s)\n",
			len(peers), strings.Join(names, ", "), cfg.syncInterval)
	}

	// Indicator lifecycle: decay re-scoring over the store. An expiry is a
	// store deletion, which tombstones the change log, so it replicates to
	// mesh peers. tipd has no correlator, so ages come from attribute
	// timestamps alone.
	var lifec *lifecycle.Engine
	if !cfg.noLifecycle {
		lifec = lifecycle.New(store,
			lifecycle.WithInterval(cfg.lcInterval),
			lifecycle.WithFloor(cfg.lcFloor),
			lifecycle.WithMetrics(reg),
		)
		lifec.Start()
		defer lifec.Close()
	}

	// Health: the store checks (WAL writability as liveness, compaction
	// backlog and lifecycle progress as readiness) plus mesh-peer
	// staleness as readiness.
	rt.StoreChecks(cfg.dataDir, store.Durability, lifec)
	if engine != nil {
		staleAfter := 5 * cfg.syncInterval
		if staleAfter < 2*time.Minute {
			staleAfter = 2 * time.Minute
		}
		rt.Health.Register("mesh_peers", mesh.PeersCheck(engine, staleAfter))
	}

	// The API is mounted next to the observability surfaces. Specific
	// routes (subscriptions, match stream) sit in front of the TIP
	// catch-all.
	mux := rt.Mux(tracer, cfg.pprof, func() health.NodeStatus {
		st := daemon.TIPStatus(cfg.name, "tipd", service)
		if engine != nil {
			st.Peers = engine.PeerInfos()
		}
		return st
	})
	subAPI := subscribe.NewAPI(subs)
	mux.Handle("POST /subscriptions", subAPI)
	mux.Handle("GET /subscriptions", subAPI)
	mux.Handle("GET /subscriptions/{rest...}", subAPI)
	mux.Handle("DELETE /subscriptions/{id}", subAPI)
	mux.Handle("GET /ws/matches", subAPI)
	if lifec != nil {
		mux.Handle("GET /lifecycle/{rest...}", lifecycle.NewAPI(lifec))
	}
	mux.Handle("/", tip.NewAPI(service, cfg.apiKey))
	rt.Serve(cfg.addr, mux)
	fmt.Printf("%s: serving MISP-like REST API on %s (%d events loaded)\n",
		cfg.name, cfg.addr, service.Len())
	return rt.Run()
}
