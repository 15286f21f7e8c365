package mesh

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/tip"
)

var now = time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC)

// newNode is one in-process TIP instance: the mesh engine is exercised
// against the real service + store stack, only the HTTP hop is elided.
func newNode(t *testing.T) *tip.Service {
	t.Helper()
	store, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return tip.NewService(store)
}

// The production peers: tipd pulls each -peer through a *tip.Client and
// imports into its *tip.Service.
var (
	_ Remote = (*tip.Client)(nil)
	_ Local  = (*tip.Service)(nil)
)

// svcRemote adapts a local service into the Remote pull surface, the
// in-process stand-in for tip.Client.
type svcRemote struct{ svc *tip.Service }

func (r svcRemote) Changes(_ context.Context, afterSeq uint64, limit int) ([]storage.Change, uint64, bool, error) {
	return r.svc.Changes(afterSeq, limit)
}

func sampleEvents(t *testing.T, n int) []*misp.Event {
	t.Helper()
	out := make([]*misp.Event, n)
	for i := range out {
		e := misp.NewEvent(fmt.Sprintf("evt-%d", i), now)
		e.AddAttribute("domain", "Network activity", fmt.Sprintf("h%d.example", i), now)
		out[i] = e
	}
	return out
}

func newEngine(t *testing.T, local *tip.Service, cursors CursorStore, peers map[string]*tip.Service, opts ...Option) *Engine {
	t.Helper()
	var ps []Peer
	for name, svc := range peers {
		ps = append(ps, Peer{Name: name, Remote: svcRemote{svc}})
	}
	e, err := New(local, ps, cursors, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestRingConvergesWithoutEchoes(t *testing.T) {
	// Three nodes in a pull ring: a <- c <- b <- a. All events share one
	// timestamp — the worst case for time cursors, routine for the seq
	// feed.
	a, b, c := newNode(t), newNode(t), newNode(t)
	if _, err := a.AddEvents(sampleEvents(t, 120)); err != nil {
		t.Fatal(err)
	}
	ea := newEngine(t, a, nil, map[string]*tip.Service{"c": c})
	eb := newEngine(t, b, nil, map[string]*tip.Service{"a": a})
	ec := newEngine(t, c, nil, map[string]*tip.Service{"b": b})
	engines := []*Engine{ea, eb, ec}

	for round := 0; round < 10; round++ {
		for _, e := range engines {
			if _, err := e.SyncOnce(t.Context()); err != nil {
				t.Fatal(err)
			}
		}
		if a.Len() == 120 && b.Len() == 120 && c.Len() == 120 {
			break
		}
	}
	if a.Len() != 120 || b.Len() != 120 || c.Len() != 120 {
		t.Fatalf("no convergence: a=%d b=%d c=%d", a.Len(), b.Len(), c.Len())
	}

	// Steady state: more rounds import nothing; the copies coming back
	// around the ring are counted as suppressed echoes, not conflicts.
	before := ea.Totals().Imported + eb.Totals().Imported + ec.Totals().Imported
	for round := 0; round < 3; round++ {
		for _, e := range engines {
			if _, err := e.SyncOnce(t.Context()); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := ea.Totals().Imported + eb.Totals().Imported + ec.Totals().Imported
	if after != before {
		t.Fatalf("steady-state re-imports: %d", after-before)
	}
	if echoes := ea.Totals().EchoSuppressed; echoes == 0 {
		t.Fatal("origin node counted no suppressed echoes")
	}
	if conf := ea.Totals().ConflictLocal + ea.Totals().ConflictRemote; conf != 0 {
		t.Fatalf("echoes misclassified as %d conflicts", conf)
	}
}

// TestOrgOnlyEventsStayHome: a peer pulling over HTTP receives the
// community event stored beside an organisation-only one, never the
// org-only one, and its cursor still moves past both.
func TestOrgOnlyEventsStayHome(t *testing.T) {
	origin, peer := newNode(t), newNode(t)
	events := sampleEvents(t, 2)
	events[1].Distribution = misp.DistributionOrganisation
	if _, err := origin.AddEvents(events); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(tip.NewAPI(origin, ""))
	t.Cleanup(srv.Close)
	e, err := New(peer, []Peer{{Name: "origin", Remote: tip.NewClient(srv.URL, "")}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	if n, err := e.SyncOnce(t.Context()); err != nil || n != 1 {
		t.Fatalf("imported %d, err %v; want the community event only", n, err)
	}
	if _, err := peer.GetEvent(events[0].UUID); err != nil {
		t.Fatalf("community event: %v", err)
	}
	if _, err := peer.GetEvent(events[1].UUID); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("org-only event reached the peer (err %v)", err)
	}
	if got, want := e.Cursor("origin").Seq, origin.StoreSeq(); got != want {
		t.Fatalf("cursor %d, want %d past the skipped event", got, want)
	}
}

func TestConflictNewestTimestampWins(t *testing.T) {
	a, b := newNode(t), newNode(t)
	orig := sampleEvents(t, 1)[0]
	if _, err := a.AddEvents([]*misp.Event{orig}); err != nil {
		t.Fatal(err)
	}
	edited := orig.Clone()
	edited.Info = "edited"
	edited.Timestamp = misp.UT(now.Add(2 * time.Second))
	if _, err := b.AddEvents([]*misp.Event{edited}); err != nil {
		t.Fatal(err)
	}

	// a pulls b: remote revision is newer, the edit replaces the local.
	ea := newEngine(t, a, nil, map[string]*tip.Service{"b": b})
	if _, err := ea.SyncOnce(t.Context()); err != nil {
		t.Fatal(err)
	}
	got, err := a.GetEvent(orig.UUID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Info != "edited" || got.Timestamp.Unix() != edited.Timestamp.Unix() {
		t.Fatalf("newer remote revision did not win: %q @%d", got.Info, got.Timestamp.Unix())
	}
	if ea.Totals().ConflictRemote != 1 {
		t.Fatalf("conflict(remote) = %d, want 1", ea.Totals().ConflictRemote)
	}

	// b pulls a: a's feed now serves the same revision b already has —
	// an echo; and a stale older revision must never claw back.
	eb := newEngine(t, b, nil, map[string]*tip.Service{"a": a})
	if _, err := eb.SyncOnce(t.Context()); err != nil {
		t.Fatal(err)
	}
	got, err = b.GetEvent(orig.UUID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Info != "edited" {
		t.Fatalf("stale revision clawed back: %q", got.Info)
	}
	if eb.Totals().ConflictLocal != 0 || eb.Totals().EchoSuppressed == 0 {
		t.Fatalf("totals = %+v, want the round-trip counted as echo", eb.Totals())
	}
}

// failingLocal passes through to the real service but fails the
// failOn-th ImportEvents call (1-based), modeling a node whose store
// rejects a batch mid-sync.
type failingLocal struct {
	svc    *tip.Service
	calls  atomic.Int32
	failOn int32
}

func (f *failingLocal) ImportEvents(events []*misp.Event, raw [][]byte) ([]*misp.Event, error) {
	if f.calls.Add(1) == f.failOn {
		return nil, errors.New("injected import failure")
	}
	return f.svc.ImportEvents(events, raw)
}

func (f *failingLocal) GetEvent(uuid string) (*misp.Event, error) { return f.svc.GetEvent(uuid) }

func (f *failingLocal) DeleteEventsAt(dels []storage.Deletion) (int, error) {
	return f.svc.DeleteEventsAt(dels)
}

func TestFailedImportResumesFromDurableCursorWithoutDuplicates(t *testing.T) {
	source, sink := newNode(t), newNode(t)
	if _, err := source.AddEvents(sampleEvents(t, 10)); err != nil {
		t.Fatal(err)
	}
	cursors := NewFileCursors(t.TempDir() + "/cursors.json")
	local := &failingLocal{svc: sink, failOn: 2} // page 2 of the first sync dies

	run := func() (*Engine, error) {
		e, err := New(local, []Peer{{Name: "src", Remote: svcRemote{source}}}, cursors,
			WithPageSize(4, 4))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		_, serr := e.SyncOnce(t.Context())
		return e, serr
	}

	// First engine lifetime: page 1 (4 events) lands, page 2 fails — the
	// cursor must stay at page 1's high-water mark.
	e1, err := run()
	if err == nil {
		t.Fatal("expected the injected import failure")
	}
	if got := e1.Totals().Imported; got != 4 {
		t.Fatalf("imported %d before the failure, want 4", got)
	}
	if sink.Len() != 4 {
		t.Fatalf("sink holds %d events, want 4", sink.Len())
	}

	// Second lifetime (fresh engine, same sidecar — a daemon restart):
	// resumes from the durable cursor, pulls only the missing 6, and
	// nothing is imported twice.
	e2, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 10 {
		t.Fatalf("sink holds %d events after resume, want 10", sink.Len())
	}
	tt := e2.Totals()
	if tt.Imported != 6 || tt.Pulled != 6 || tt.EchoSuppressed != 0 {
		t.Fatalf("resume pulled=%d imported=%d echoes=%d, want exactly the missing 6",
			tt.Pulled, tt.Imported, tt.EchoSuppressed)
	}
}

// pageRemote serves its changes as one page, then an empty feed.
type pageRemote []storage.Change

func (p pageRemote) Changes(_ context.Context, afterSeq uint64, _ int) ([]storage.Change, uint64, bool, error) {
	if afterSeq >= uint64(len(p)) {
		return nil, afterSeq, false, nil
	}
	return p, uint64(len(p)), false, nil
}

// TestPageWithAnInvalidRevisionImportsTheRest: a pulled page holding one
// revision the TIP refuses as invalid imports the valid rest and moves
// the cursor past the page, so the refused revision is not pulled again.
func TestPageWithAnInvalidRevisionImportsTheRest(t *testing.T) {
	events := sampleEvents(t, 3)
	events[1].Attributes[0].UUID = "not-a-uuid"
	var remote pageRemote
	for i, ev := range events {
		remote = append(remote, storage.Change{Seq: uint64(i + 1), UUID: ev.UUID, Event: ev})
	}
	sink := newNode(t)
	e, err := New(sink, []Peer{{Name: "src", Remote: remote}}, NewMemCursors())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for round := 0; round < 2; round++ {
		if _, err := e.SyncOnce(t.Context()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if sink.Len() != 2 {
		t.Fatalf("sink holds %d events, want the 2 valid ones", sink.Len())
	}
	if _, err := sink.GetEvent(events[1].UUID); err == nil {
		t.Fatal("the invalid revision was stored")
	}
	if cur := e.Cursor("src"); cur.Seq != 3 {
		t.Fatalf("cursor at %d, want 3: past the page", cur.Seq)
	}
	if tt := e.Totals(); tt.Pulled != 3 || tt.Imported != 2 {
		t.Fatalf("pulled %d, imported %d; want the page pulled once and its 2 valid revisions imported", tt.Pulled, tt.Imported)
	}
}

func TestBadPeerConfigRejected(t *testing.T) {
	svc := newNode(t)
	if _, err := New(nil, nil, nil); err == nil {
		t.Fatal("nil local accepted")
	}
	if _, err := New(svc, []Peer{{Name: "", Remote: svcRemote{svc}}}, nil); err == nil {
		t.Fatal("unnamed peer accepted")
	}
	dup := []Peer{
		{Name: "p", Remote: svcRemote{svc}},
		{Name: "p", Remote: svcRemote{svc}},
	}
	if _, err := New(svc, dup, nil); err == nil {
		t.Fatal("duplicate peer accepted")
	}
}

// slowRemote serves a fixed backlog with a simulated per-request link
// latency — the WAN model for the fan-in benchmark.
type slowRemote struct {
	changes []storage.Change
	latency time.Duration
}

func (r slowRemote) Changes(ctx context.Context, afterSeq uint64, limit int) ([]storage.Change, uint64, bool, error) {
	select {
	case <-time.After(r.latency):
	case <-ctx.Done():
		return nil, afterSeq, false, ctx.Err()
	}
	i := int(afterSeq)
	if i >= len(r.changes) {
		return nil, afterSeq, false, nil
	}
	end := min(i+limit, len(r.changes))
	return r.changes[i:end], uint64(end), end < len(r.changes), nil
}

// discardLocal imports into the void: the benchmark isolates sync
// orchestration and transfer latency from store write costs.
type discardLocal struct{}

func (discardLocal) ImportEvents(events []*misp.Event, _ [][]byte) ([]*misp.Event, error) {
	return events, nil
}
func (discardLocal) GetEvent(string) (*misp.Event, error) {
	return nil, errors.New("not held")
}
func (discardLocal) DeleteEventsAt([]storage.Deletion) (int, error) { return 0, nil }

// BenchmarkFanIn drains eight slow peers at once through SyncOnce.
func BenchmarkFanIn(b *testing.B) {
	changes := make([]storage.Change, 2000)
	for i := range changes {
		ev := misp.NewEvent(fmt.Sprintf("evt-%d", i), now)
		changes[i] = storage.Change{UUID: ev.UUID, Event: ev}
	}
	var peers []Peer
	for p := 0; p < 8; p++ {
		peers = append(peers, Peer{
			Name:   fmt.Sprintf("peer%d", p),
			Remote: slowRemote{changes: changes, latency: 2 * time.Millisecond},
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := New(discardLocal{}, peers, nil, WithPageSize(500, 500))
		if err != nil {
			b.Fatal(err)
		}
		n, err := e.SyncOnce(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if n != len(peers)*len(changes) {
			b.Fatalf("imported %d events, want all %d of every peer", n, len(changes))
		}
		e.Close()
	}
}
