package storage

import (
	"fmt"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
)

// drainChanges pages the whole change feed from afterSeq and returns the
// events in feed order plus the final resume sequence.
func drainChanges(t *testing.T, s *Store, afterSeq uint64, limit int) ([]*misp.Event, uint64) {
	t.Helper()
	var out []*misp.Event
	for {
		events, next, more, err := s.ChangesPage(afterSeq, limit)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, events...)
		afterSeq = next
		if !more {
			return out, afterSeq
		}
	}
}

func TestChangesPageAssignsPerEventSeqInBatches(t *testing.T) {
	s, _ := openTemp(t)
	batch := make([]*misp.Event, 1200)
	for i := range batch {
		batch[i] = event(t, fmt.Sprintf("evt-%d", i))
	}
	if _, err := s.PutBatch(batch, nil); err != nil {
		t.Fatal(err)
	}
	var (
		after uint64
		total int
		pages int
	)
	for {
		events, next, more, err := s.ChangesPage(after, 500)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		total += len(events)
		if next <= after && len(events) > 0 {
			t.Fatalf("page %d did not advance: after=%d next=%d", pages, after, next)
		}
		after = next
		if !more {
			break
		}
	}
	if total != 1200 || pages != 3 {
		t.Fatalf("drained %d events in %d pages, want 1200 in 3", total, pages)
	}
}

func TestChangesFeedServesLateArrivalsPastOldCursors(t *testing.T) {
	// The scenario that makes a (timestamp, uuid) cursor unsound: the
	// cursor drains to head, then an event with an *older* timestamp is
	// imported (e.g. relayed late from a third mesh node). A time-ordered
	// cursor would sort it behind itself forever; the change feed must
	// serve it.
	s, _ := openTemp(t)
	for i := 0; i < 5; i++ {
		if err := s.Put(event(t, fmt.Sprintf("evt-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	_, head := drainChanges(t, s, 0, 2)

	late := misp.NewEvent("late import", now.Add(-time.Hour))
	late.Timestamp = misp.UT(now.Add(-time.Hour))
	if err := s.Put(late); err != nil {
		t.Fatal(err)
	}

	fresh, _ := drainChanges(t, s, head, 10)
	if len(fresh) != 1 || fresh[0].UUID != late.UUID {
		t.Fatalf("cursor at %d missed the late import: got %d events", head, len(fresh))
	}
}

func TestChangesFeedReputMovesEventToTail(t *testing.T) {
	s, _ := openTemp(t)
	a := event(t, "a")
	b := event(t, "b")
	for _, e := range []*misp.Event{a, b} {
		if err := s.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	_, head := drainChanges(t, s, 0, 10)

	edited := a.Clone()
	edited.Info = "a v2"
	if err := s.Put(edited); err != nil {
		t.Fatal(err)
	}
	fresh, _ := drainChanges(t, s, head, 10)
	if len(fresh) != 1 || fresh[0].UUID != a.UUID || fresh[0].Info != "a v2" {
		t.Fatalf("re-put not served at tail: %+v", fresh)
	}

	// A full drain serves the edited revision exactly once: the stale
	// entry for the first revision is skipped.
	all, _ := drainChanges(t, s, 0, 10)
	seen := map[string]int{}
	for _, e := range all {
		seen[e.UUID]++
	}
	if len(all) != 2 || seen[a.UUID] != 1 || seen[b.UUID] != 1 {
		t.Fatalf("full drain = %d events, counts %v", len(all), seen)
	}
}

func TestChangesFeedSkipsDeleted(t *testing.T) {
	s, _ := openTemp(t)
	a := event(t, "a")
	b := event(t, "b")
	for _, e := range []*misp.Event{a, b} {
		if err := s.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(a.UUID); err != nil {
		t.Fatal(err)
	}
	all, _ := drainChanges(t, s, 0, 10)
	if len(all) != 1 || all[0].UUID != b.UUID {
		t.Fatalf("feed after delete = %d events", len(all))
	}
}

func TestChangesFeedStableAcrossRestartAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := make([]*misp.Event, 40)
	for i := range first {
		first[i] = event(t, fmt.Sprintf("evt-%d", i))
	}
	if _, err := s.PutBatch(first, nil); err != nil {
		t.Fatal(err)
	}
	// A peer drains to head and durably remembers this sequence.
	_, head := drainChanges(t, s, 0, 16)

	// Compact (events move WAL -> snapshot) and crash/restart.
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

	// The old cursor must still mean "everything already seen": nothing
	// new yet, and events stored after the restart appear past it.
	fresh, next := drainChanges(t, s, head, 16)
	if len(fresh) != 0 {
		t.Fatalf("cursor %d re-served %d events after restart", head, len(fresh))
	}
	late := event(t, "post-restart")
	if err := s.Put(late); err != nil {
		t.Fatal(err)
	}
	fresh, _ = drainChanges(t, s, next, 16)
	if len(fresh) != 1 || fresh[0].UUID != late.UUID {
		t.Fatalf("post-restart put not served: got %d events", len(fresh))
	}
	// And a from-scratch drain still yields the full set exactly once.
	all, _ := drainChanges(t, s, 0, 16)
	if len(all) != 41 {
		t.Fatalf("full drain after restart = %d events, want 41", len(all))
	}
}

func TestChangesLogCompactsStaleEntries(t *testing.T) {
	s, _ := openTemp(t)
	events := make([]*misp.Event, 50)
	for i := range events {
		events[i] = event(t, fmt.Sprintf("evt-%d", i))
		if err := s.Put(events[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Churn far past the compaction threshold.
	for round := 0; round < 60; round++ {
		for _, e := range events {
			edited := e.Clone()
			edited.Info = fmt.Sprintf("round %d", round)
			if err := s.Put(edited); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.mu.RLock()
	logLen, stale := len(s.changes), s.staleChanges
	s.mu.RUnlock()
	if logLen > 2*len(events)+2048 {
		t.Fatalf("change log grew unbounded: %d entries (%d stale) for %d live events",
			logLen, stale, len(events))
	}
	all, _ := drainChanges(t, s, 0, 16)
	if len(all) != len(events) {
		t.Fatalf("drain after churn = %d events, want %d", len(all), len(events))
	}
}
