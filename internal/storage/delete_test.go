package storage

import (
	"fmt"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
)

// drainFullChanges pages the tombstone-bearing feed from afterSeq and
// returns every entry in feed order plus the final resume sequence.
func drainFullChanges(t *testing.T, s *Store, afterSeq uint64, limit int) ([]Change, uint64) {
	t.Helper()
	var out []Change
	for {
		page, next, more, err := s.Changes(afterSeq, limit)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, page...)
		afterSeq = next
		if !more {
			return out, afterSeq
		}
	}
}

func TestDeleteSurvivesWALReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := event(t, "a")
	b := event(t, "b")
	if err := putOne(s, a); err != nil {
		t.Fatal(err)
	}
	if err := putOne(s, b); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(a.UUID); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Get(a.UUID); err == nil {
		t.Fatal("deleted event resurrected by WAL replay")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after replayed delete, want 1", s.Len())
	}
}

func TestDeleteSurvivesCompactionAndRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := event(t, "a")
	b := event(t, "b")
	if err := putOne(s, a); err != nil {
		t.Fatal(err)
	}
	if err := putOne(s, b); err != nil {
		t.Fatal(err)
	}
	// Compact first so the doomed event lives in the snapshot, then
	// delete and compact again: the deletion must carry into the new
	// snapshot as a tombstone, not vanish with the WAL.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(a.UUID); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Get(a.UUID); err == nil {
		t.Fatal("delete lost across compaction + restart")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	// The tombstone still rides the change feed so a peer resuming an
	// old cursor after our restart still learns about the deletion.
	all, _ := drainFullChanges(t, s, 0, 16)
	var sawTomb bool
	for _, ch := range all {
		if ch.Event == nil && ch.UUID == a.UUID {
			sawTomb = true
		}
	}
	if !sawTomb {
		t.Fatal("tombstone missing from change feed after restart")
	}
}

func TestChangesFeedCarriesTombstones(t *testing.T) {
	s, _ := openTemp(t)
	a := event(t, "a")
	b := event(t, "b")
	if err := putOne(s, a); err != nil {
		t.Fatal(err)
	}
	if err := putOne(s, b); err != nil {
		t.Fatal(err)
	}
	_, head := drainFullChanges(t, s, 0, 16)

	when := time.Date(2020, 3, 1, 10, 0, 0, 0, time.UTC)
	if err := s.DeleteAt(a.UUID, when); err != nil {
		t.Fatal(err)
	}
	fresh, _ := drainFullChanges(t, s, head, 16)
	if len(fresh) != 1 {
		t.Fatalf("feed after delete = %d entries, want 1 tombstone", len(fresh))
	}
	if fresh[0].Event != nil || fresh[0].UUID != a.UUID || !fresh[0].DeletedAt.Equal(when) {
		t.Fatalf("tombstone entry = %+v", fresh[0])
	}

	// Re-putting the UUID with a revision newer than the deletion
	// resurrects it: the tombstone disappears from the feed and the live
	// revision is served instead. An older revision must stay dead, left
	// out of what PutBatch installed.
	stale := event(t, "a stale")
	stale.UUID = a.UUID
	if seqs, err := s.PutBatch([]*misp.Event{stale}, nil); err != nil || seqs[0] != 0 {
		t.Fatalf("PutBatch of a revision older than its deletion installed it at %v, err %v; want it refused", seqs, err)
	}
	if _, err := s.Get(a.UUID); err == nil {
		t.Fatal("revision older than the deletion resurrected the event")
	}
	revived := event(t, "a reborn")
	revived.UUID = a.UUID
	revived.Timestamp = misp.UT(when.Add(time.Hour))
	if err := putOne(s, revived); err != nil {
		t.Fatal(err)
	}
	all, _ := drainFullChanges(t, s, 0, 16)
	for _, ch := range all {
		if ch.Event == nil && ch.UUID == a.UUID {
			t.Fatal("stale tombstone served after re-put")
		}
	}
	if _, err := s.Get(a.UUID); err != nil {
		t.Fatal("re-put after delete did not resurrect the event")
	}
}

func TestTombstoneRetentionBounded(t *testing.T) {
	s, _ := openTemp(t)
	s.tombstoneCap = 64
	for i := 0; i < 300; i++ {
		e := event(t, fmt.Sprintf("evt-%d", i))
		if err := putOne(s, e); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(e.UUID); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Durability().Tombstones; got > 64 {
		t.Fatalf("tombstone set grew past retention cap: %d > 64", got)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
}
