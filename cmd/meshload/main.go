// Command meshload is the federation load harness: it spins up an
// in-process N-node TIP mesh over real HTTP (loopback listeners, the
// production tip.API/tip.Client/mesh.Engine stack), sustains ingest at
// one node, optionally crash/restarts another mid-run, and reports
// time-to-convergence and replication throughput.
//
//	meshload -nodes 5 -topology ring -events 5000 -crash
//	meshload -nodes 5 -topology fanin -events 20000
//
// Topologies:
//
//	ring   node i pulls from node i-1 — worst-case propagation depth
//	star   node 0 is the hub; leaves pull from it and it pulls from them
//	full   every node pulls from every other node
//	fanin  nodes 0..N-2 are preloaded producers; node N-1 starts cold and
//	       pulls from all of them at once — the fan-in catch-up
//	       measurement reported in EXPERIMENTS.md §X12
//
// Convergence is verified two ways, per the mesh acceptance criteria:
// the caisp_tip_events gauge scraped over each node's real /metrics
// endpoint, and an order-independent store digest (FNV over every
// event's uuid+timestamp). The process exits nonzero if the mesh fails
// to converge within -drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"encoding/json"

	"github.com/caisplatform/caisp/internal/mesh"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/obs/health"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/tip"
)

type options struct {
	nodes    int
	topology string
	events   int
	batch    int
	interval time.Duration
	page     int
	crash    bool
	drain    time.Duration
	latency  time.Duration
	hold     time.Duration
}

func main() {
	var o options
	flag.IntVar(&o.nodes, "nodes", 5, "mesh size")
	flag.StringVar(&o.topology, "topology", "ring", "ring, star, full or fanin")
	flag.IntVar(&o.events, "events", 5000, "events ingested (at node 0, or spread over producers for fanin)")
	flag.IntVar(&o.batch, "batch", 100, "ingest batch size")
	flag.DurationVar(&o.interval, "interval", 25*time.Millisecond, "mesh poll interval")
	flag.IntVar(&o.page, "page", mesh.DefaultBasePage, "starting sync page size")
	flag.BoolVar(&o.crash, "crash", true, "crash/restart one node mid-ingest (ring/star/full)")
	flag.DurationVar(&o.drain, "drain", 60*time.Second, "max wait for convergence")
	flag.DurationVar(&o.latency, "latency", 0, "simulated one-way link latency added to every API request (WAN model)")
	flag.DurationVar(&o.hold, "hold", 0, "keep the mesh serving after the run for this long (point caisp-top at the printed endpoints)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "meshload:", err)
		os.Exit(1)
	}
}

// node is one in-process TIP instance: durable store, REST API on a real
// loopback listener, and a mesh engine pulling from its peers.
type node struct {
	idx    int
	dir    string
	addr   string
	opts   options
	peers  []mesh.Peer
	noPoll bool // fanin sink: leave the pollers off so SyncOnce is the only pull
	store  *storage.Store
	svc    *tip.Service
	engine *mesh.Engine
	srv    *http.Server
}

// start opens the store, binds the node's address and launches the mesh
// engine. On restart it rebinds the same address so peers reconnect.
func (n *node) start() error {
	store, err := storage.Open(n.dir)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("node%d", n.idx)
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg)
	prov := obs.NewProvTable(obs.DefaultProvCap)
	n.store = store
	n.svc = tip.NewService(store, tip.WithName(name),
		tip.WithMetrics(reg), tip.WithProvenance(prov))

	var ln net.Listener
	for i := 0; ; i++ {
		addr := n.addr
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 100 {
			return fmt.Errorf("node %d: rebind %s: %w", n.idx, n.addr, err)
		}
		time.Sleep(20 * time.Millisecond) // freshly closed port, retry
	}
	n.addr = ln.Addr().String()

	engine, err := mesh.New(n.svc, n.peers,
		mesh.NewFileCursors(filepath.Join(n.dir, "mesh-cursors.json")),
		mesh.WithInterval(n.opts.interval),
		mesh.WithBackoff(n.opts.interval, 20*n.opts.interval),
		mesh.WithPageSize(n.opts.page, mesh.DefaultMaxPage),
		mesh.WithMetrics(reg),
		mesh.WithProvenance(name, prov),
		mesh.WithTracer(tracer),
	)
	if err != nil {
		ln.Close()
		return err
	}
	n.engine = engine

	// Each node carries the full observability surface the daemons do,
	// so caisp-top and the acceptance checks drive the real endpoints.
	checks := health.New(reg)
	checks.Register("wal_writable", health.DirWritable(n.dir))
	staleAfter := 40 * n.opts.interval
	if staleAfter < 2*time.Second {
		staleAfter = 2 * time.Second
	}
	checks.Register("mesh_peers", mesh.PeersCheck(engine, staleAfter))

	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	mux.Handle("GET /debug/traces", tracer.Handler())
	mux.Handle("GET /healthz", checks.Liveness())
	mux.Handle("GET /readyz", checks.Readiness())
	mux.Handle("GET /cluster/status", health.StatusHandler(func() health.NodeStatus {
		return health.NodeStatus{
			Node:        name,
			Role:        "meshload",
			StoreSeq:    n.svc.StoreSeq(),
			Events:      n.svc.Len(),
			WALOps:      n.store.Durability().WALOps,
			IngestTotal: int64(n.svc.StoreSeq()),
			Peers:       engine.PeerInfos(),
			Health:      checks.Evaluate(),
		}
	}))
	mux.Handle("/", tip.NewAPI(n.svc, ""))
	var handler http.Handler = mux
	if n.opts.latency > 0 {
		// WAN model: every request pays the configured one-way latency
		// before being served, so sync concurrency across peers matters
		// the way it does between real organizations.
		delay := n.opts.latency
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(delay)
			mux.ServeHTTP(w, r)
		})
	}
	n.srv = &http.Server{Handler: handler}
	go n.srv.Serve(ln)

	if !n.noPoll {
		engine.Start()
	}
	return nil
}

// stop simulates a crash/shutdown: engine, API and store all go away;
// the WAL and cursor sidecar stay on disk for the restart.
func (n *node) stop() {
	n.engine.Close()
	n.srv.Close()
	n.store.Close()
}

// peersFor wires the pull topology.
func peersFor(i, nodes int, topology string, addrs []string) ([]mesh.Peer, error) {
	peer := func(j int) mesh.Peer {
		return mesh.Peer{
			Name:   fmt.Sprintf("node%d", j),
			Remote: tip.NewClient("http://"+addrs[j], "", tip.WithRequestTimeout(10*time.Second)),
		}
	}
	var out []mesh.Peer
	switch topology {
	case "ring":
		out = append(out, peer((i-1+nodes)%nodes))
	case "star":
		if i == 0 {
			for j := 1; j < nodes; j++ {
				out = append(out, peer(j))
			}
		} else {
			out = append(out, peer(0))
		}
	case "full":
		for j := 0; j < nodes; j++ {
			if j != i {
				out = append(out, peer(j))
			}
		}
	case "fanin":
		// Producers have no peers; the last node pulls from all of them.
		if i == nodes-1 {
			for j := 0; j < nodes-1; j++ {
				out = append(out, peer(j))
			}
		}
	default:
		return nil, fmt.Errorf("unknown topology %q", topology)
	}
	return out, nil
}

func run(o options) error {
	if o.nodes < 2 {
		return fmt.Errorf("need at least 2 nodes")
	}
	root, err := os.MkdirTemp("", "meshload-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	// Reserve addresses first so every node knows its peers up front.
	addrs := make([]string, o.nodes)
	listeners := make([]net.Listener, o.nodes)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs[i] = ln.Addr().String()
		listeners[i] = ln
	}
	for _, ln := range listeners {
		ln.Close()
	}

	nodes := make([]*node, o.nodes)
	for i := range nodes {
		peers, err := peersFor(i, o.nodes, o.topology, addrs)
		if err != nil {
			return err
		}
		nodes[i] = &node{
			idx:    i,
			dir:    filepath.Join(root, fmt.Sprintf("node%d", i)),
			addr:   addrs[i],
			opts:   o,
			peers:  peers,
			noPoll: o.topology == "fanin" && i == o.nodes-1,
		}
		if err := os.MkdirAll(nodes[i].dir, 0o755); err != nil {
			return err
		}
		if err := nodes[i].start(); err != nil {
			return err
		}
	}
	defer func() {
		for _, n := range nodes {
			n.stop()
		}
	}()
	fmt.Printf("meshload: %d nodes, topology=%s, events=%d, interval=%s, crash=%v\n",
		o.nodes, o.topology, o.events, o.interval, o.crash)

	if o.topology == "fanin" {
		err = runFanin(o, nodes)
	} else {
		err = runConvergence(o, nodes)
	}
	if err == nil && o.hold > 0 {
		fmt.Printf("holding the mesh for %s; fleet endpoints:\n", o.hold)
		for _, n := range nodes {
			fmt.Printf("  -node node%d=http://%s\n", n.idx, n.addr)
		}
		time.Sleep(o.hold)
	}
	return err
}

// runConvergence sustains ingest at node 0, crash/restarts a follower
// mid-ingest, and measures how long the mesh takes to converge to
// identical event sets after ingest stops.
func runConvergence(o options, nodes []*node) error {
	crashIdx := -1
	if o.crash && o.nodes > 2 {
		crashIdx = 1 // a node in the propagation path for every topology
	}

	ingestStart := time.Now()
	ingested := 0
	for ingested < o.events {
		n := min(o.batch, o.events-ingested)
		batch := makeBatch(ingested, n)
		if _, err := nodes[0].svc.AddEvents(batch); err != nil {
			return fmt.Errorf("ingest: %w", err)
		}
		ingested += n
		if crashIdx >= 0 && ingested >= o.events/2 && nodes[crashIdx].engine != nil {
			fmt.Printf("crashing node %d at %d/%d events ingested\n", crashIdx, ingested, o.events)
			nodes[crashIdx].stop()
			nodes[crashIdx].engine = nil
		}
	}
	ingestDur := time.Since(ingestStart)
	fmt.Printf("ingested %d events at node 0 in %s (%.0f events/s)\n",
		o.events, ingestDur.Round(time.Millisecond), float64(o.events)/ingestDur.Seconds())

	if crashIdx >= 0 {
		if err := nodes[crashIdx].start(); err != nil {
			return fmt.Errorf("restart node %d: %w", crashIdx, err)
		}
		cur := nodes[crashIdx].engine.Cursor(fmt.Sprintf("node%d", (crashIdx-1+o.nodes)%o.nodes))
		fmt.Printf("restarted node %d (resumes from durable cursor seq=%d)\n", crashIdx, cur.Seq)
	}

	convStart := time.Now()
	deadline := time.Now().Add(o.drain)
	for {
		if converged, detail := checkConverged(nodes, o.events); converged {
			convDur := time.Since(convStart)
			replicated := o.events * (o.nodes - 1)
			fmt.Printf("converged: %s\n", detail)
			fmt.Printf("time-to-convergence after ingest: %s (%d replicated imports, %.0f events/s across the mesh)\n",
				convDur.Round(time.Millisecond), replicated, float64(replicated)/(ingestDur+convDur).Seconds())
			break
		}
		if time.Now().After(deadline) {
			_, detail := checkConverged(nodes, o.events)
			return fmt.Errorf("mesh did not converge within %s: %s", o.drain, detail)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Echo check: let the steady-state mesh run a few more rounds, then
	// confirm no node re-imported anything it already owned.
	before := totalImported(nodes)
	time.Sleep(5 * o.interval)
	after := totalImported(nodes)
	var t mesh.Totals
	for _, n := range nodes {
		tt := n.engine.Totals()
		t.Pulled += tt.Pulled
		t.Imported += tt.Imported
		t.EchoSuppressed += tt.EchoSuppressed
		t.ConflictLocal += tt.ConflictLocal
		t.ConflictRemote += tt.ConflictRemote
		t.Errors += tt.Errors
	}
	fmt.Printf("mesh totals: pulled=%d imported=%d echo_suppressed=%d conflicts(local=%d remote=%d) errors=%d\n",
		t.Pulled, t.Imported, t.EchoSuppressed, t.ConflictLocal, t.ConflictRemote, t.Errors)
	if after != before {
		return fmt.Errorf("echo amplification: %d re-imports after convergence", after-before)
	}
	fmt.Println("steady state: zero re-imports after convergence (echo suppression holds)")
	if o.topology == "ring" {
		if err := checkProvenance(nodes); err != nil {
			return err
		}
	}
	return nil
}

// checkProvenance asserts cross-node trace propagation on the ring: the
// terminal node (deepest in the pull chain from node 0) must expose, on
// its real /debug/traces endpoint, an import record originating at
// node0 whose hop list walks the intermediate nodes. This is the
// multi-hop acceptance check — it fails if any hop on the way dropped
// or re-originated the provenance.
func checkProvenance(nodes []*node) error {
	term := nodes[len(nodes)-1]
	resp, err := http.Get("http://" + term.addr + "/debug/traces")
	if err != nil {
		return fmt.Errorf("provenance: %w", err)
	}
	defer resp.Body.Close()
	var records []struct {
		Origin string `json:"origin"`
		Hops   []struct {
			Node string `json:"node"`
		} `json:"hops"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&records); err != nil {
		return fmt.Errorf("provenance: decode traces: %w", err)
	}
	wantHops := len(nodes) - 1 // 0→1→…→N-1 on the pull ring
	best := 0
	for _, r := range records {
		if r.Origin != "node0" {
			continue
		}
		if len(r.Hops) > best {
			best = len(r.Hops)
		}
		if len(r.Hops) == wantHops && r.Hops[len(r.Hops)-1].Node == term.svc.Name() {
			fmt.Printf("provenance: terminal node%d sees origin=node0 across %d hops\n",
				term.idx, len(r.Hops))
			return nil
		}
	}
	return fmt.Errorf("provenance: no %d-hop trace from node0 on node%d's /debug/traces (deepest seen: %d)",
		wantHops, term.idx, best)
}

// runFanin preloads every producer, then measures one cold node draining
// all of them at once.
func runFanin(o options, nodes []*node) error {
	producers := o.nodes - 1
	per := o.events / producers
	for i := 0; i < producers; i++ {
		if _, err := nodes[i].svc.AddEvents(makeBatch(i*per, per)); err != nil {
			return fmt.Errorf("preload node %d: %w", i, err)
		}
	}
	total := per * producers
	fmt.Printf("preloaded %d producers with %d events each\n", producers, per)

	sink := nodes[o.nodes-1]
	start := time.Now()
	imported, err := sink.engine.SyncOnce(context.Background())
	if err != nil {
		return fmt.Errorf("fan-in sync: %w", err)
	}
	dur := time.Since(start)
	if imported != total {
		return fmt.Errorf("fan-in imported %d, want %d", imported, total)
	}
	fmt.Printf("fan-in: drained %d peers / %d events in %s (%.0f events/s)\n",
		producers, total, dur.Round(time.Millisecond), float64(total)/dur.Seconds())
	return nil
}

// checkConverged verifies all nodes hold identical event sets: the
// caisp_tip_events gauge scraped over real /metrics, plus an
// order-independent FNV digest of (uuid, timestamp) over each store.
func checkConverged(nodes []*node, want int) (bool, string) {
	var parts []string
	ok := true
	var digest0 uint64
	for i, n := range nodes {
		if n.engine == nil { // crashed
			ok = false
			parts = append(parts, fmt.Sprintf("node%d=down", i))
			continue
		}
		count, err := scrapeEvents(n.addr)
		if err != nil {
			ok = false
			parts = append(parts, fmt.Sprintf("node%d=err(%v)", i, err))
			continue
		}
		d := digest(n.svc)
		if i == 0 {
			digest0 = d
		}
		parts = append(parts, fmt.Sprintf("node%d=%d/%x", i, count, d&0xffff))
		if count != want || d != digest0 {
			ok = false
		}
	}
	return ok, strings.Join(parts, " ")
}

// eventsGauge is the scraped caisp_tip_events family, assembled so
// metrics-lint counts only registration-site literals.
const eventsGauge = "caisp" + "_tip_events"

// scrapeEvents reads the event-count gauge off a node's /metrics.
func scrapeEvents(addr string) (int, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, found := strings.CutPrefix(line, eventsGauge+" "); found {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return int(v), err
		}
	}
	return 0, fmt.Errorf("%s not exposed", eventsGauge)
}

// digest folds every event's identity and revision into one
// order-independent hash.
func digest(svc *tip.Service) uint64 {
	events, _, _, err := svc.ChangesPage(0, 0)
	if err != nil {
		return 0
	}
	var sum uint64
	for _, e := range events {
		h := fnv.New64a()
		io.WriteString(h, e.UUID)
		io.WriteString(h, strconv.FormatInt(e.Timestamp.Unix(), 10))
		sum ^= h.Sum64()
	}
	return sum
}

func totalImported(nodes []*node) int64 {
	var total int64
	for _, n := range nodes {
		if n.engine != nil {
			total += n.engine.Totals().Imported
		}
	}
	return total
}

// makeBatch builds n synthetic events with distinct correlation values.
func makeBatch(offset, n int) []*misp.Event {
	now := time.Now().UTC()
	batch := make([]*misp.Event, n)
	for i := range batch {
		e := misp.NewEvent(fmt.Sprintf("meshload event %d", offset+i), now)
		e.AddAttribute("domain", "Network activity",
			fmt.Sprintf("host-%d.mesh.example", offset+i), now)
		e.AddAttribute("ip-dst", "Network activity",
			fmt.Sprintf("10.%d.%d.%d", (offset+i)>>16&0xff, (offset+i)>>8&0xff, (offset+i)&0xff), now)
		batch[i] = e
	}
	return batch
}
