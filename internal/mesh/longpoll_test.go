package mesh

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/tip"
)

// revision builds one revision of a cluster under a stable UUID, stamped
// at the package's fixed second: the given members, and — when scored —
// the eIoC write-back the analyzer adds (a threat-score comment, which
// does not correlate, and the caisp:eioc tag).
func revision(scored bool, members ...string) *misp.Event {
	e := misp.NewEvent("cIoC", now)
	e.UUID = "5f0c1a1e-0000-4000-8000-00000000c1c1"
	e.AddTag("caisp:cioc")
	for _, m := range members {
		e.AddAttribute("domain", "Network activity", m, now)
	}
	e.AddAttribute("text", "Other", "os:linux", now) // context, not a member
	if scored {
		e.AddAttribute("comment", "Other", "threat-score:3.1", now)
		e.AddTag("caisp:eioc")
	}
	return e
}

func TestExtendsOrdersSameSecondRevisions(t *testing.T) {
	decayed := revision(true, "a.example", "b.example")
	decayed.AddAttribute("comment", "Other", "decayed-score:1.2", now)
	for _, tc := range []struct {
		name          string
		remote, local *misp.Event
		want          bool
	}{
		{"grown cluster", revision(false, "a.example", "b.example"), revision(false, "a.example"), true},
		{"cIoC to eIoC", revision(true, "a.example"), revision(false, "a.example"), true},
		{"eIoC to grown cIoC", revision(false, "a.example", "b.example"), revision(true, "a.example"), true},
		{"stale R1 after R2", revision(false, "a.example"), revision(false, "a.example", "b.example"), false},
		{"stale cIoC after its eIoC", revision(false, "a.example"), revision(true, "a.example"), false},
		{"identical copy", revision(true, "a.example"), revision(true, "a.example"), false},
		{"decayed-score only", decayed, revision(true, "a.example", "b.example"), false},
		{"decayed-score only, reversed", revision(true, "a.example", "b.example"), decayed, false},
		{"disjoint members", revision(true, "b.example"), revision(false, "a.example"), false},
		{"overlapping, neither covers", revision(false, "a.example", "c.example"), revision(false, "a.example", "b.example"), false},
	} {
		if got := extends(tc.remote, tc.local); got != tc.want {
			t.Errorf("%s: extends = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSameSecondRevisionsReachThePartner is the sequence a partner woken
// by every commit sees: a cluster stored, scored, grown and scored again
// within one clock second. After each pull the partner holds exactly the
// origin's revision; pulling back imports nothing.
func TestSameSecondRevisionsReachThePartner(t *testing.T) {
	origin, partner := newNode(t), newNode(t)
	pull := newEngine(t, partner, nil, map[string]*tip.Service{"origin": origin})
	back := newEngine(t, origin, nil, map[string]*tip.Service{"partner": partner})

	for i, rev := range []*misp.Event{
		revision(false, "a.example"),
		revision(true, "a.example"),
		revision(false, "a.example", "b.example"),
		revision(true, "a.example", "b.example"),
	} {
		if _, err := origin.AddEvent(rev); err != nil {
			t.Fatal(err)
		}
		if n, err := pull.SyncOnce(t.Context()); err != nil || n != 1 {
			t.Fatalf("revision %d: imported %d, err %v", i, n, err)
		}
		got, err := partner.GetEvent(rev.UUID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Attributes, rev.Attributes) || !reflect.DeepEqual(got.Tags, rev.Tags) {
			t.Fatalf("revision %d: partner holds %d attributes %v, origin %d attributes %v",
				i, len(got.Attributes), got.Tags, len(rev.Attributes), rev.Tags)
		}
	}
	if tot := pull.Totals(); tot.ConflictRemote != 3 || tot.EchoSuppressed != 0 {
		t.Fatalf("partner totals %+v, want the three same-second revisions counted as remote wins", tot)
	}

	// A stale revision served late must not claw the partner back.
	stale := newNode(t)
	if _, err := stale.AddEvent(revision(false, "a.example")); err != nil {
		t.Fatal(err)
	}
	late := newEngine(t, partner, nil, map[string]*tip.Service{"stale": stale})
	if n, err := late.SyncOnce(t.Context()); err != nil || n != 0 {
		t.Fatalf("stale revision: imported %d, err %v", n, err)
	}

	if n, err := back.SyncOnce(t.Context()); err != nil || n != 0 {
		t.Fatalf("origin pulling back imported %d (err %v), want 0", n, err)
	}
	if tot := back.Totals(); tot.EchoSuppressed != 1 || tot.ConflictRemote != 0 {
		t.Fatalf("origin totals %+v, want one echo", tot)
	}
}

// countingRemote serves a node's feed and counts requests. With park set
// it honours the wait a request's context asks for the way a current peer
// does (an idle request is held until the wait runs out); without, it
// answers at once like a peer that predates wait.
type countingRemote struct {
	svc      *tip.Service
	park     bool
	requests atomic.Int64
}

func (r *countingRemote) Changes(ctx context.Context, afterSeq uint64, limit int) ([]storage.Change, uint64, bool, error) {
	r.requests.Add(1)
	if wait := storage.WaitFrom(ctx); r.park && wait > 0 && r.svc.StoreSeq() == afterSeq {
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, afterSeq, false, ctx.Err()
		}
	}
	return r.svc.Changes(afterSeq, limit)
}

// TestPollLoopRequestBudget counts requests over 30 intervals. An idle
// engine makes one per interval whether the peer holds requests or not
// (the fallback sleep is jittered around the interval, hence the slack),
// and a peer that does not hold them costs one more per interval while
// it has news: the pull that found entries is followed at once by one
// that finds none and falls back to sleeping.
func TestPollLoopRequestBudget(t *testing.T) {
	const interval, intervals = 20 * time.Millisecond, 30
	for _, tc := range []struct {
		name     string
		park     bool
		writes   bool
		min, max int64
	}{
		{"idle, parking peer", true, false, 10, intervals + 2},
		{"idle, peer without wait", false, false, 10, intervals * 4 / 3},
		{"steady writes, peer without wait", false, true, 20, intervals * 8 / 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := newNode(t)
			remote := &countingRemote{svc: src, park: tc.park}
			e, err := New(newNode(t), []Peer{{Name: "src", Remote: remote}}, nil, WithInterval(interval))
			if err != nil {
				t.Fatal(err)
			}
			e.Start()
			stop := time.After(intervals * interval)
			tick := time.NewTicker(interval)
			defer tick.Stop()
		run:
			for i := 0; ; i++ {
				select {
				case <-stop:
					break run
				case <-tick.C:
					if tc.writes {
						if _, err := src.AddEvents(sampleEvents(t, 1)); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			e.Close()
			if got := remote.requests.Load(); got < tc.min || got > tc.max {
				t.Fatalf("%d requests in %d intervals, want %d..%d", got, intervals, tc.min, tc.max)
			}
			if tc.writes && e.Totals().Imported == 0 {
				t.Fatal("steady writes never reached the engine")
			}
			if errs := e.Totals().Errors; errs != 0 {
				t.Fatalf("Close counted %d sync errors", errs)
			}
		})
	}
}

// gatedRemote holds every request that asks to wait until the test opens
// the gate, however long that takes, and announces each one it holds.
type gatedRemote struct {
	svc    *tip.Service
	parked chan struct{}
	gate   chan struct{}
}

func (r gatedRemote) Changes(ctx context.Context, afterSeq uint64, limit int) ([]storage.Change, uint64, bool, error) {
	if storage.WaitFrom(ctx) > 0 {
		select {
		case r.parked <- struct{}{}:
		case <-ctx.Done():
			return nil, afterSeq, false, ctx.Err()
		}
		select {
		case <-r.gate:
		case <-ctx.Done():
			return nil, afterSeq, false, ctx.Err()
		}
	}
	return r.svc.Changes(afterSeq, limit)
}

// TestSyncOnceDoesNotWaitForParkedWorker: the worker's parked request
// does not hold busy, SyncOnce itself never asks to
// wait, and the page the worker was finally handed is dropped because the
// cursor moved on meanwhile.
func TestSyncOnceDoesNotWaitForParkedWorker(t *testing.T) {
	src := newNode(t)
	remote := gatedRemote{svc: src, parked: make(chan struct{}), gate: make(chan struct{})}
	e, err := New(newNode(t), []Peer{{Name: "src", Remote: remote}}, nil, WithInterval(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	if _, err := src.AddEvents(sampleEvents(t, 5)); err != nil {
		t.Fatal(err)
	}
	e.Start()
	<-remote.parked // the worker now sits in its opening request
	if n, err := e.SyncOnce(t.Context()); err != nil || n != 5 {
		t.Fatalf("SyncOnce beside a parked worker imported %d, err %v", n, err)
	}
	close(remote.gate) // the worker gets the same five events, from cursor 0
	<-remote.parked    // ... and is back in its next request: the round is over
	if tot := e.Totals(); tot.Imported != 5 || tot.EchoSuppressed != 0 || e.Cursor("src").Seq != 5 {
		t.Fatalf("totals %+v cursor %d: the worker's stale page was not dropped", tot, e.Cursor("src").Seq)
	}
}

// TestImportedProvenanceIsInPlaceAtCommit: a peer parked on this node's
// feed is woken by the import's commit, so the page it is then served
// must already carry the forwarded provenance, not a self-origin record.
func TestImportedProvenanceIsInPlaceAtCommit(t *testing.T) {
	a := newObsNode(t, "a")
	store, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	prov := obs.NewProvTable(0)
	b := tip.NewService(store, tip.WithName("b"), tip.WithProvenance(prov))
	e, err := New(b, []Peer{{Name: "a", Remote: svcRemote{a.svc}}}, nil, WithProvenance("b", prov))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	events := sampleEvents(t, 20)
	if _, err := a.svc.AddEvents(events); err != nil {
		t.Fatal(err)
	}

	committed := store.Committed()
	served := make(chan []storage.Change, 1)
	go func() {
		<-committed
		changes, _, _, _ := b.Changes(0, 0)
		served <- changes
	}()
	if n, err := e.SyncOnce(t.Context()); err != nil || n != 20 {
		t.Fatalf("imported %d, err %v", n, err)
	}
	for _, ch := range <-served {
		if p := ch.Prov; p == nil || p.Origin != "a" || len(p.Hops) != 1 || p.Hops[0].Node != "b" {
			t.Fatalf("served at commit with provenance %+v, want origin a and one hop at b", p)
		}
	}
	// A later local edit on b re-originates the revision as before.
	edit := events[0].Clone()
	edit.Info = "edited on b"
	if _, err := b.AddEvent(edit); err != nil {
		t.Fatal(err)
	}
	if p := prov.Lookup(edit.UUID); p == nil || p.Origin != "b" {
		t.Fatalf("local write recorded %+v", p)
	}
}
