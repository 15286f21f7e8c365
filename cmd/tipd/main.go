// Command tipd runs the paper's Operational Module standalone, for the
// split deployment with heuristicd: a core.Node (the MISP-format event
// store, the TIP service, the standing STIX-pattern subscriptions with
// the detections loop caispd runs, and the indicator lifecycle) behind a
// MISP-like REST API. Where MISP publishes over zeroMQ, tipd serves its
// change log: heuristicd follows GET /events/changes?wait= from a cursor.
// With one or more -peer flags it also joins a federation mesh,
// continuously pull-replicating from the named peers with durable cursors
// and echo suppression (internal/mesh).
package main

import (
	"flag"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/caisplatform/caisp/internal/core"
	"github.com/caisplatform/caisp/internal/daemon"
	"github.com/caisplatform/caisp/internal/lifecycle"
	"github.com/caisplatform/caisp/internal/mesh"
	"github.com/caisplatform/caisp/internal/obs/health"
	"github.com/caisplatform/caisp/internal/subscribe"
	"github.com/caisplatform/caisp/internal/tip"
)

// peerFlags collects repeatable -peer values ("name=url" or a bare URL,
// in which case the host:port becomes the peer name).
type peerFlags []string

func (p *peerFlags) String() string     { return strings.Join(*p, ",") }
func (p *peerFlags) Set(v string) error { *p = append(*p, v); return nil }

// config is everything run needs, parsed from flags. node takes -data,
// -name and the lifecycle flags.
type config struct {
	node         core.Config
	addr, apiKey string
	pprof        bool

	peers        peerFlags
	peerKey      string
	syncInterval time.Duration
	syncPage     int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "listen", ":8440", "REST API listen address")
	flag.StringVar(&cfg.node.DataDir, "data", "", "event store directory (empty = in-memory)")
	flag.StringVar(&cfg.apiKey, "key", "", "API key required in the Authorization header (empty disables auth)")
	flag.StringVar(&cfg.node.NodeName, "name", "tipd", "instance name")
	flag.BoolVar(&cfg.pprof, "pprof", false, "expose pprof profiles under /debug/pprof/")
	flag.Var(&cfg.peers, "peer", "replication peer as name=url or url (repeatable)")
	flag.StringVar(&cfg.peerKey, "peer-key", "", "API key presented to peers")
	flag.DurationVar(&cfg.syncInterval, "sync-interval", mesh.DefaultInterval, "base anti-entropy poll interval per peer (jittered)")
	flag.IntVar(&cfg.syncPage, "sync-page", mesh.DefaultBasePage, "starting sync page size (adapts up to the peer's cap)")
	flag.BoolVar(&cfg.node.DisableLifecycle, "no-lifecycle", false, "disable decay-driven re-scoring and expiry (store grows without bound)")
	flag.DurationVar(&cfg.node.LifecycleInterval, "lifecycle-interval", 0, "cadence of the background re-score batch (0 = engine default)")
	flag.Float64Var(&cfg.node.LifecycleFloor, "lifecycle-floor", 0, "expire indicators once their decayed score falls to this (0 = engine default)")
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
	// The node's detections loop follows the change log from its head as
	// of now, before the mesh imports anything. Its pattern set persists
	// across restarts in <data>/subscriptions.json (logged on restore).
	node, err := core.NewNode(cfg.node)
	if err != nil {
		return err
	}
	defer node.Close()
	rt := daemon.New(node.Metrics())
	rt.Go(node.Run)
	service := node.TIP()

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
		if cfg.node.DataDir != "" {
			cursors = mesh.NewFileCursors(filepath.Join(cfg.node.DataDir, "mesh-cursors.json"))
		}
		engine, err = mesh.New(service, peers, cursors,
			mesh.WithInterval(cfg.syncInterval),
			mesh.WithPageSize(cfg.syncPage, mesh.DefaultMaxPage),
			mesh.WithMetrics(node.Metrics()),
			mesh.WithProvenance(service.Name(), service.Provenance()),
			mesh.WithTracer(node.Tracer()),
		)
		if err != nil {
			return err
		}
		engine.Start()
		defer engine.Close()
		fmt.Printf("mesh replication from %d peer(s): %s (interval %s)\n",
			len(peers), &cfg.peers, cfg.syncInterval)
	}

	// Health: the store checks (WAL writability as liveness, compaction
	// backlog and lifecycle progress as readiness) plus mesh-peer
	// staleness as readiness.
	rt.StoreChecks(cfg.node.DataDir, node.Durability, node.Lifecycle())
	if engine != nil {
		staleAfter := max(5*cfg.syncInterval, 2*time.Minute)
		rt.Health.Register("mesh_peers", mesh.PeersCheck(engine, staleAfter))
	}

	// The API is mounted next to the observability surfaces. Specific
	// routes (subscriptions, match stream) sit in front of the TIP
	// catch-all.
	mux := rt.Mux(node.Tracer(), cfg.pprof, func() health.NodeStatus {
		st := daemon.TIPStatus("tipd", service)
		if engine != nil {
			st.Peers = engine.PeerInfos()
		}
		return st
	})
	subscribe.NewAPI(node.Subscriptions()).Register(mux)
	if lc := node.Lifecycle(); lc != nil {
		mux.Handle("GET /lifecycle/{rest...}", lifecycle.NewAPI(lc))
	}
	mux.Handle("/", tip.NewAPI(service, cfg.apiKey))
	rt.Serve(cfg.addr, mux)
	fmt.Printf("%s: serving MISP-like REST API on %s (%d events loaded)\n",
		service.Name(), cfg.addr, service.Len())
	return rt.Run()
}
