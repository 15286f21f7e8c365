package mesh

import (
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"

	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/tip"
)

// diskNode is one durable TIP instance behind real HTTP: a WAL store in
// its own directory, the REST API on an httptest server and an engine
// whose cursors live in a file beside the WAL. The server looks the API
// up per request, so a restarted node answers on the URL its downstream
// peer already holds.
type diskNode struct {
	name   string
	dir    string
	store  *storage.Store
	svc    *tip.Service
	engine *Engine
	api    atomic.Pointer[tip.API]
	srv    *httptest.Server
}

func newDiskNode(t *testing.T, name string) *diskNode {
	t.Helper()
	n := &diskNode{name: name, dir: t.TempDir()}
	n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.api.Load().ServeHTTP(w, r)
	}))
	t.Cleanup(n.srv.Close)
	n.open(t)
	return n
}

// open loads the node's store from its directory (replaying the WAL on
// a restart) and serves it.
func (n *diskNode) open(t *testing.T) {
	t.Helper()
	store, err := storage.Open(n.dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	n.store = store
	n.svc = tip.NewService(store, tip.WithName(n.name))
	n.api.Store(tip.NewAPI(n.svc, ""))
}

// pullFrom builds the node's engine against up, resuming from the
// node's cursor file.
func (n *diskNode) pullFrom(t *testing.T, up *diskNode) {
	t.Helper()
	e, err := New(n.svc, []Peer{{Name: up.name, Remote: tip.NewClient(up.srv.URL, "")}},
		NewFileCursors(filepath.Join(n.dir, "mesh-cursors.json")))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	n.engine = e
}

// digest folds every stored event's (uuid, timestamp) into one
// order-independent hash.
func (n *diskNode) digest(t *testing.T) uint64 {
	t.Helper()
	events, _, _, err := n.svc.ChangesPage(0, 0)
	if err != nil {
		t.Fatal(err)
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

// TestRingNodeRestartsFromDiskAndConverges crashes a ring node mid-ingest
// and restarts it from what it left on disk: its store replays the WAL,
// its engine resumes from the cursor file and pulls only what it missed,
// and every node ends with the same event set and no steady-state
// re-imports. Each node pulls its predecessor (node1 ← node0 ← node2 ←
// node1) through the production client and API.
func TestRingNodeRestartsFromDiskAndConverges(t *testing.T) {
	const batches, perBatch = 6, 100
	nodes := make([]*diskNode, 3)
	for i := range nodes {
		nodes[i] = newDiskNode(t, fmt.Sprintf("node%d", i))
	}
	for i, n := range nodes {
		n.pullFrom(t, nodes[(i+2)%3])
	}
	n0, n1, n2 := nodes[0], nodes[1], nodes[2]
	round := func(ns ...*diskNode) {
		t.Helper()
		for _, n := range ns {
			if _, err := n.engine.SyncOnce(t.Context()); err != nil {
				t.Fatalf("%s: %v", n.name, err)
			}
		}
	}

	// Ingest at node0 in batches with a sync round after each. Halfway,
	// node1 crashes: engine and store go away, the WAL and cursor file
	// stay. node2 pulls from node1, so only node0 keeps syncing.
	var held int
	var cursor uint64
	for b := 0; b < batches; b++ {
		if _, err := n0.svc.AddEvents(sampleEvents(t, perBatch)); err != nil {
			t.Fatal(err)
		}
		switch {
		case b < batches/2:
			round(nodes...)
			continue
		case b == batches/2:
			held, cursor = n1.svc.Len(), n1.engine.Cursor(n0.name).Seq
			n1.engine.Close()
			if err := n1.store.Close(); err != nil {
				t.Fatal(err)
			}
		}
		round(n0)
	}
	if held != batches/2*perBatch || cursor == 0 {
		t.Fatalf("node1 held %d events at cursor %d when it crashed", held, cursor)
	}

	n1.open(t)
	if got := n1.svc.Len(); got != held {
		t.Fatalf("node1 recovered %d events from its WAL, want %d", got, held)
	}
	n1.pullFrom(t, n0)
	if got := n1.engine.Cursor(n0.name).Seq; got != cursor {
		t.Fatalf("node1 resumed at seq %d, want its saved %d", got, cursor)
	}

	want := batches * perBatch
	converged := func() bool {
		d := n0.digest(t)
		for _, n := range nodes {
			if n.svc.Len() != want || n.digest(t) != d {
				return false
			}
		}
		return true
	}
	for r := 0; r < 10 && !converged(); r++ {
		round(nodes...)
	}
	if !converged() {
		t.Fatalf("no convergence: node0=%d node1=%d node2=%d", n0.svc.Len(), n1.svc.Len(), n2.svc.Len())
	}
	if got := n1.engine.Totals().Pulled; got != int64(want-held) {
		t.Fatalf("restarted node1 pulled %d events, want only the %d it missed", got, want-held)
	}

	imported := func() (sum int64) {
		for _, n := range nodes {
			sum += n.engine.Totals().Imported
		}
		return sum
	}
	before := imported()
	for r := 0; r < 3; r++ {
		round(nodes...)
	}
	if after := imported(); after != before {
		t.Fatalf("steady-state re-imports: %d", after-before)
	}
}
