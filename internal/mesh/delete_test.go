package mesh

import (
	"context"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/bus"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/tip"
)

func syncAll(t *testing.T, engines ...*Engine) {
	t.Helper()
	for round := 0; round < 10; round++ {
		for _, e := range engines {
			if _, err := e.SyncOnce(t.Context()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestDeletionReplicatesAcrossRing(t *testing.T) {
	a, b, c := newNode(t), newNode(t), newNode(t)
	events := sampleEvents(t, 30)
	if _, err := a.AddEvents(events); err != nil {
		t.Fatal(err)
	}
	ea := newEngine(t, a, nil, map[string]*tip.Service{"c": c})
	eb := newEngine(t, b, nil, map[string]*tip.Service{"a": a})
	ec := newEngine(t, c, nil, map[string]*tip.Service{"b": b})
	syncAll(t, ea, eb, ec)
	if a.Len() != 30 || b.Len() != 30 || c.Len() != 30 {
		t.Fatalf("no convergence before delete: a=%d b=%d c=%d", a.Len(), b.Len(), c.Len())
	}

	// Expire five indicators on a; the tombstones must walk the ring,
	// landing on each node as one commit that counts all five.
	var doomed []storage.Deletion
	for _, e := range events[7:12] {
		doomed = append(doomed, storage.Deletion{UUID: e.UUID, At: now.Add(time.Minute)})
	}
	if n, err := a.DeleteEventsAt(doomed); err != nil || n != len(doomed) {
		t.Fatalf("DeleteEventsAt = %d, %v", n, err)
	}
	syncAll(t, ea, eb, ec)
	for name, svc := range map[string]*tip.Service{"a": a, "b": b, "c": c} {
		for _, d := range doomed {
			if _, err := svc.GetEvent(d.UUID); err == nil {
				t.Fatalf("node %s still holds the deleted event %s", name, d.UUID)
			}
		}
		if svc.Len() != 25 {
			t.Fatalf("node %s Len = %d, want 25", name, svc.Len())
		}
	}
	if got := eb.Totals().Deleted; got != int64(len(doomed)) {
		t.Fatalf("pull from a counted %d applied deletions, want %d", got, len(doomed))
	}

	// Steady state: the tombstone keeps riding the feed but never
	// re-applies (GetEvent misses are silent skips, not errors).
	before := eb.Totals().Deleted
	syncAll(t, ea, eb, ec)
	if eb.Totals().Deleted != before {
		t.Fatal("tombstone re-applied in steady state")
	}
}

func TestConcurrentEditOutlivesDeletion(t *testing.T) {
	a, b := newNode(t), newNode(t)
	orig := sampleEvents(t, 1)[0]
	if _, err := a.AddEvents([]*misp.Event{orig.Clone()}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddEvents([]*misp.Event{orig.Clone()}); err != nil {
		t.Fatal(err)
	}

	// a deletes at t+1s while b concurrently edits at t+2s: the newer
	// edit must win on both nodes once the partition heals.
	if _, err := a.DeleteEventsAt([]storage.Deletion{{UUID: orig.UUID, At: now.Add(time.Second)}}); err != nil {
		t.Fatal(err)
	}
	edited := orig.Clone()
	edited.Info = "revised verdict"
	edited.Timestamp = misp.UT(now.Add(2 * time.Second))
	if _, err := b.AddEvents([]*misp.Event{edited}); err != nil {
		t.Fatal(err)
	}

	// b pulls first so the tombstone actually reaches the node holding
	// the newer edit (the other order resurrects on a before b ever sees
	// the deletion — also correct, but it would not exercise the
	// conflict path).
	ea := newEngine(t, a, nil, map[string]*tip.Service{"b": b})
	eb := newEngine(t, b, nil, map[string]*tip.Service{"a": a})
	syncAll(t, eb, ea)

	for name, svc := range map[string]*tip.Service{"a": a, "b": b} {
		got, err := svc.GetEvent(orig.UUID)
		if err != nil {
			t.Fatalf("node %s lost the concurrent edit to the tombstone", name)
		}
		if got.Info != "revised verdict" {
			t.Fatalf("node %s holds %q, want the edit", name, got.Info)
		}
	}
	if eb.Totals().ConflictLocal == 0 {
		t.Fatal("edit-vs-tombstone conflict not counted")
	}
}

func TestDeletionNewerThanEventWinsBothWays(t *testing.T) {
	a, b := newNode(t), newNode(t)
	orig := sampleEvents(t, 1)[0]
	if _, err := a.AddEvents([]*misp.Event{orig.Clone()}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddEvents([]*misp.Event{orig.Clone()}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.DeleteEventsAt([]storage.Deletion{{UUID: orig.UUID, At: now.Add(time.Hour)}}); err != nil {
		t.Fatal(err)
	}

	ea := newEngine(t, a, nil, map[string]*tip.Service{"b": b})
	eb := newEngine(t, b, nil, map[string]*tip.Service{"a": a})
	syncAll(t, ea, eb)

	if _, err := b.GetEvent(orig.UUID); err == nil {
		t.Fatal("b did not apply the newer deletion")
	}
	// a pulls b's live-but-older copy: it must not resurrect. a's feed
	// application path sees the event, but a's copy is tombstoned newer.
	if _, err := a.GetEvent(orig.UUID); err == nil {
		t.Fatal("deletion clawed back on a")
	}
}

// TestRevisionOlderThanLocalDeletionNotImported: a peer that still holds
// a copy older than this node's deletion of it serves that copy, and the
// import must neither count it, nor hold it, nor announce it locally.
func TestRevisionOlderThanLocalDeletionNotImported(t *testing.T) {
	a := newNode(t)
	store, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	broker := bus.NewBroker()
	defer broker.Close()
	b := tip.NewService(store, tip.WithBroker(broker))
	orig := sampleEvents(t, 1)[0]
	for _, node := range []*tip.Service{a, b} {
		if _, err := node.AddEvents([]*misp.Event{orig.Clone()}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.DeleteEventsAt([]storage.Deletion{{UUID: orig.UUID, At: now.Add(time.Hour)}}); err != nil {
		t.Fatal(err)
	}
	sub := broker.Subscribe(tip.TopicEventPrefix)

	eb := newEngine(t, b, nil, map[string]*tip.Service{"a": a})
	n, err := eb.SyncOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tot := eb.Totals(); n != 0 || tot.Imported != 0 || tot.Pulled != 1 {
		t.Fatalf("SyncOnce = %d, totals %+v; want the stale copy pulled and not imported", n, tot)
	}
	if _, err := b.GetEvent(orig.UUID); err == nil {
		t.Fatal("stale copy resurrected the deleted event")
	}
	if got := len(sub.C()); got != 0 {
		t.Fatalf("%d announcements of an event b does not hold", got)
	}
}
