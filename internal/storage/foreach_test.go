package storage

import (
	"fmt"
	"slices"
	"sync"

	"github.com/caisplatform/caisp/internal/misp"
	"testing"
)

// TestForEachParallelVisitsAllOnce checks that every stored event is
// visited exactly once, for worker counts below, at and above the event
// count, and that the callback runs outside the store lock (a visitor
// may issue reads against the store without deadlocking).
func TestForEachParallelVisitsAllOnce(t *testing.T) {
	s, _ := openTemp(t)
	const n = 57
	uuids := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		e := event(t, fmt.Sprintf("evt-%d", i),
			[2]string{"domain", fmt.Sprintf("h%d.example", i)})
		if err := putOne(s, e); err != nil {
			t.Fatal(err)
		}
		uuids[e.UUID] = true
	}
	for _, workers := range []int{0, 1, 4, n + 10} {
		var mu sync.Mutex
		seen := make(map[string]int, n)
		s.ForEachParallel(workers, func(e *misp.Event) {
			// Reads against the store must not deadlock: the callback
			// runs on a frozen snapshot outside the store lock.
			if !s.Has(e.UUID) {
				t.Errorf("workers=%d: visited event %s not in store", workers, e.UUID)
			}
			mu.Lock()
			seen[e.UUID]++
			mu.Unlock()
		})
		if len(seen) != n {
			t.Fatalf("workers=%d: visited %d events, want %d", workers, len(seen), n)
		}
		for u, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: event %s visited %d times", workers, u, c)
			}
			if !uuids[u] {
				t.Fatalf("workers=%d: unknown event %s visited", workers, u)
			}
		}
	}
}

// TestCorrelatedWithoutIndexesMultiValue checks the full-scan reference
// with a query event carrying several attribute values: the scan must
// match stored events against the full value set, not just one value per
// pass, and the indexed lookup must agree with it.
func TestCorrelatedWithoutIndexesMultiValue(t *testing.T) {
	s, _ := openTemp(t)
	a := event(t, "a", [2]string{"domain", "one.example"})
	b := event(t, "b", [2]string{"ip-dst", "198.51.100.7"})
	c := event(t, "c", [2]string{"domain", "other.example"})
	for _, e := range []*misp.Event{a, b, c} {
		if err := putOne(s, e); err != nil {
			t.Fatal(err)
		}
	}
	q := event(t, "q",
		[2]string{"domain", "one.example"},
		[2]string{"ip-dst", "198.51.100.7"})
	got := correlatedScan(s, q, correlatingValues(q))
	if indexed := s.Correlated(q); !slices.Equal(indexed, got) {
		t.Fatalf("Correlated = %v, scan = %v", indexed, got)
	}
	found := make(map[string]bool, len(got))
	for _, u := range got {
		found[u] = true
	}
	if !found[a.UUID] || !found[b.UUID] || found[c.UUID] || len(got) != 2 {
		t.Fatalf("Correlated = %v", got)
	}
}
