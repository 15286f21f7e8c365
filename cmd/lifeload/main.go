// Command lifeload is the indicator-lifecycle load harness: it drives
// sustained ingest against a store with the decay engine attached and
// asserts that "runs forever under heavy traffic" holds literally — the
// event count and heap plateau once expiry engages, instead of growing
// linearly the way the unbounded baseline does.
//
//	lifeload                      # bounded: assert count + heap plateau
//	lifeload -mode unbounded      # baseline: report linear growth
//	lifeload -mode mesh           # expiry tombstones converge across 3 nodes
//
// Time is virtual: every tick advances the clock by -step and ingests
// -rate indicator events stamped at the virtual now, then runs one
// bounded re-score batch. A multi-week decay horizon therefore runs in
// seconds without waiting on wall time.
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/lifecycle"
	"github.com/caisplatform/caisp/internal/mesh"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/tip"
)

type options struct {
	mode   string
	ticks  int
	rate   int
	step   time.Duration
	tau    time.Duration
	batch  int
	events int // mesh mode ingest size
	drain  time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.mode, "mode", "bounded", "bounded, unbounded or mesh")
	flag.IntVar(&o.ticks, "ticks", 1000, "virtual-clock ticks to run")
	flag.IntVar(&o.rate, "rate", 50, "events ingested per tick")
	flag.DurationVar(&o.step, "step", time.Hour, "virtual time per tick")
	flag.DurationVar(&o.tau, "tau", 200*time.Hour, "decay lifetime for the ingested category")
	flag.IntVar(&o.batch, "batch", 2048, "re-score batch size per tick")
	flag.IntVar(&o.events, "events", 100000, "ingest size for -mode mesh")
	flag.DurationVar(&o.drain, "drain", 30*time.Second, "max wait for mesh convergence")
	flag.Parse()
	var err error
	switch o.mode {
	case "bounded", "unbounded":
		err = runIngest(o)
	case "mesh":
		err = runMesh(o)
	default:
		err = fmt.Errorf("unknown mode %q", o.mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lifeload:", err)
		os.Exit(1)
	}
}

// virtual epoch: any fixed instant works, the decay model only sees ages.
var epoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// indicator builds one scored eIoC-shaped event at the given virtual time.
func indicator(i int, category string, at time.Time) *misp.Event {
	e := misp.NewEvent(fmt.Sprintf("lifeload indicator %d", i), at)
	e.AddTag("caisp:cioc")
	e.AddTag("caisp:eioc")
	e.AddTag("caisp:category=\"" + category + "\"")
	e.AddAttribute("domain", "Network activity",
		fmt.Sprintf("host-%d.life.example", i), at)
	heuristic.SetBaseScore(e, 4.0, at)
	return e
}

func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runIngest is the plateau measurement: infinite ingest against a store
// with (bounded) or without (unbounded) the lifecycle engine attached.
func runIngest(o options) error {
	s, err := storage.Open("")
	if err != nil {
		return err
	}
	defer s.Close()

	bounded := o.mode == "bounded"
	var eng *lifecycle.Engine
	if bounded {
		eng = lifecycle.New(s,
			lifecycle.WithPolicies(map[string]lifecycle.Policy{
				"scanner": {Tau: o.tau, Delta: 1},
				"unknown": {Tau: o.tau, Delta: 1},
			}),
			lifecycle.WithBatchSize(o.batch))
	}

	// The floor (0.3 of base 4.0) expires an indicator at ~92.5% of τ, so
	// the steady-state population is rate × (0.925·τ/step), plus scheduler
	// lag of up to one full cursor pass.
	liveTicks := float64(o.tau) / float64(o.step) * (1 - lifecycle.DefaultFloor/4.0)
	plateau := int(liveTicks * float64(o.rate))
	fmt.Printf("lifeload: mode=%s ticks=%d rate=%d/tick step=%s tau=%s batch=%d (plateau estimate %d)\n",
		o.mode, o.ticks, o.rate, o.step, o.tau, o.batch, plateau)

	ingested := 0
	samples := make(map[int]int) // tick → store length
	heaps := make(map[int]float64)
	sampleAt := func(t int) bool {
		return t == o.ticks/2 || t == 3*o.ticks/4 || t == o.ticks
	}
	start := time.Now()
	for tick := 1; tick <= o.ticks; tick++ {
		vnow := epoch.Add(time.Duration(tick) * o.step)
		batch := make([]*misp.Event, o.rate)
		for i := range batch {
			batch[i] = indicator(ingested+i, "scanner", vnow)
		}
		if err := s.PutBatch(batch); err != nil {
			return err
		}
		ingested += o.rate
		if eng != nil {
			if _, err := eng.RunOnce(vnow); err != nil {
				return err
			}
		}
		if sampleAt(tick) {
			samples[tick] = s.Len()
			heaps[tick] = heapMiB()
			fmt.Printf("tick %4d: ingested=%d stored=%d heap=%.1fMiB\n",
				tick, ingested, samples[tick], heaps[tick])
		}
	}
	dur := time.Since(start)
	fmt.Printf("%d ticks in %s (%.0f events/s ingest)\n",
		o.ticks, dur.Round(time.Millisecond), float64(ingested)/dur.Seconds())
	if eng != nil {
		st := eng.Stats()
		fmt.Printf("lifecycle: scanned=%d rescored=%d expired=%d passes=%d tracked=%d\n",
			st.Scanned, st.Rescored, st.Expired, st.Passes, st.Tracked)
	}

	mid, threeQ, end := samples[o.ticks/2], samples[3*o.ticks/4], samples[o.ticks]
	if !bounded {
		if end != ingested {
			return fmt.Errorf("unbounded baseline lost events: stored %d of %d", end, ingested)
		}
		fmt.Printf("unbounded baseline: store grew linearly to %d events (heap %.1fMiB) — no plateau\n",
			end, heaps[o.ticks])
		return nil
	}

	// Plateau assertions. The run must be long enough that expiry engaged
	// well before the midpoint sample.
	if float64(o.ticks) < 1.5*liveTicks {
		return fmt.Errorf("run too short for a plateau: %d ticks < 1.5× live window %.0f", o.ticks, liveTicks)
	}
	// One full cursor pass of lag on top of the analytic plateau.
	bound := plateau + (plateau/o.batch+2)*o.rate
	for tick, got := range samples {
		if got > bound {
			return fmt.Errorf("tick %d: stored %d exceeds plateau bound %d", tick, got, bound)
		}
	}
	// Flat, not growing: the last half of the run may drift only ~10%.
	drift := func(a, b int) float64 { return float64(b-a) / float64(a) }
	if d := drift(mid, end); d > 0.10 {
		return fmt.Errorf("store still growing after plateau: %d → %d (+%.0f%%)", mid, end, 100*d)
	}
	if d := heaps[o.ticks] / heaps[o.ticks/2]; d > 2.0 {
		return fmt.Errorf("heap still growing after plateau: %.1f → %.1f MiB", heaps[o.ticks/2], heaps[o.ticks])
	}
	fmt.Printf("bounded: plateau holds (stored %d/%d/%d at 50/75/100%% of run, bound %d; ingested %d total)\n",
		mid, threeQ, end, bound, ingested)
	return nil
}

// --- mesh mode: expiry tombstones converge across a 3-node ring ---

type node struct {
	idx   int
	addr  string
	store *storage.Store
	svc   *tip.Service
	eng   *mesh.Engine
	srv   *http.Server
}

func (n *node) digest() uint64 {
	events, _, _, err := n.svc.ChangesPage(0, 0)
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

// runMesh ingests a mixed-lifetime population at node 0 of a 3-node
// ring, lets it replicate, then advances virtual time so the short-lived
// category decays through the floor. The expiry deletions must tombstone
// through the change feed and converge on every node.
func runMesh(o options) error {
	const nodes = 3
	root, err := os.MkdirTemp("", "lifeload-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	addrs := make([]string, nodes)
	lns := make([]net.Listener, nodes)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs[i] = ln.Addr().String()
		lns[i] = ln
	}
	all := make([]*node, nodes)
	for i := range all {
		dir := filepath.Join(root, fmt.Sprintf("node%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		store, err := storage.Open(dir)
		if err != nil {
			return err
		}
		n := &node{idx: i, addr: addrs[i], store: store}
		n.svc = tip.NewService(store, tip.WithName(fmt.Sprintf("node%d", i)))
		mux := http.NewServeMux()
		mux.Handle("/", tip.NewAPI(n.svc, ""))
		n.srv = &http.Server{Handler: mux}
		go n.srv.Serve(lns[i])
		all[i] = n
	}
	defer func() {
		for _, n := range all {
			n.eng.Close()
			n.srv.Close()
			n.store.Close()
		}
	}()
	for i, n := range all {
		prev := all[(i-1+nodes)%nodes]
		peers := []mesh.Peer{{
			Name:   fmt.Sprintf("node%d", prev.idx),
			Remote: tip.NewClient("http://"+prev.addr, "", tip.WithRequestTimeout(10*time.Second)),
		}}
		eng, err := mesh.New(n.svc, peers, mesh.NewMemCursors(),
			mesh.WithInterval(25*time.Millisecond))
		if err != nil {
			return err
		}
		n.eng = eng
		eng.Start()
	}

	// Mixed population: 2/3 short-lived scanners, 1/3 long-lived hashes.
	total := min(o.events, 600)
	keep := 0
	batch := make([]*misp.Event, 0, total)
	for i := 0; i < total; i++ {
		cat := "scanner"
		if i%3 == 0 {
			cat = "malware-hash"
			keep++
		}
		batch = append(batch, indicator(i, cat, epoch))
	}
	if _, err := all[0].svc.AddEvents(batch); err != nil {
		return err
	}
	fmt.Printf("lifeload mesh: ingested %d indicators at node 0 (%d long-lived)\n", total, keep)

	wait := func(want int, what string) error {
		deadline := time.Now().Add(o.drain)
		for {
			ok := true
			var parts []string
			d0 := all[0].digest()
			for _, n := range all {
				c := n.svc.Len()
				parts = append(parts, fmt.Sprintf("node%d=%d", n.idx, c))
				if c != want || n.digest() != d0 {
					ok = false
				}
			}
			if ok {
				fmt.Printf("%s converged: %s\n", what, strings.Join(parts, " "))
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s did not converge within %s: %s", what, o.drain, strings.Join(parts, " "))
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	if err := wait(total, "ingest"); err != nil {
		return err
	}

	// Advance virtual time past the scanner lifetime and expire at node 0.
	// Deletions route through the TIP so they tombstone the change feed.
	lc := lifecycle.New(all[0].store,
		lifecycle.WithPolicies(map[string]lifecycle.Policy{
			"scanner":      {Tau: o.tau, Delta: 1},
			"malware-hash": {Tau: 1000 * o.tau, Delta: 1},
			"unknown":      {Tau: 1000 * o.tau, Delta: 1},
		}),
		lifecycle.WithBatchSize(o.batch),
		lifecycle.WithExpireHook(all[0].svc.DeleteEvent))
	vnow := epoch.Add(2 * o.tau)
	for {
		res, err := lc.RunOnce(vnow)
		if err != nil {
			return err
		}
		if res.Wrapped {
			break
		}
	}
	fmt.Printf("node 0 expired %d short-lived indicators\n", total-keep)
	if got := all[0].svc.Len(); got != keep {
		return fmt.Errorf("node 0 holds %d events after expiry, want %d", got, keep)
	}
	if err := wait(keep, "expiry"); err != nil {
		return err
	}
	fmt.Println("deletion tombstones replicated: all nodes converged on the expired set")
	return nil
}
