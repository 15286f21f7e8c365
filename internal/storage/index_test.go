package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
)

// TestIndexMatchesARebuild drives a store through random puts, re-puts
// that grow or shrink a revision, deletes, writes under a compaction
// overlay, compactions and reopens. After every step the value index
// must equal one rebuilt from the live events, and SearchValue must
// answer from it.
func TestIndexMatchesARebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	uuids := make([]string, 6)
	for i := range uuids {
		uuids[i] = fmt.Sprintf("00000000-0000-4000-8000-%012d", i)
	}
	values := make([]string, 10)
	for i := range values {
		values[i] = fmt.Sprintf("v%d.example", i)
	}
	clock := now
	tick := func() time.Time { clock = clock.Add(time.Second); return clock }
	revision := func(uuid string) *misp.Event {
		e := misp.NewEvent("index", tick())
		e.UUID = uuid
		for n := rng.Intn(7); n > 0; n-- { // duplicates and empty revisions too
			e.AddAttribute("domain", "Network activity", values[rng.Intn(len(values))], clock)
		}
		if rng.Intn(3) == 0 {
			o := e.AddObject("file", "file")
			o.AddAttribute("filename", "Payload delivery", values[rng.Intn(len(values))], clock)
		}
		return e
	}
	merge := func() {
		s.mu.Lock()
		for uuid, se := range s.overlay {
			if se == nil {
				delete(s.events, uuid)
			} else {
				s.events[uuid] = se
			}
		}
		s.overlay = nil
		s.mu.Unlock()
	}

	for step := 0; step < 400; step++ {
		var op string
		switch r := rng.Intn(20); {
		case r < 12:
			op = "put"
			if err := s.Put(revision(uuids[rng.Intn(len(uuids))])); err != nil {
				t.Fatal(err)
			}
		case r < 15:
			op = "batch"
			batch := []*misp.Event{revision(uuids[rng.Intn(len(uuids))]), revision(uuids[rng.Intn(len(uuids))])}
			if _, err := s.PutBatch(batch, nil); err != nil {
				t.Fatal(err)
			}
		case r < 17:
			op = "delete"
			_ = s.DeleteAt(uuids[rng.Intn(len(uuids))], tick()) // ErrNotFound for an absent UUID
		case r < 18:
			op = "overlay"
			s.mu.Lock()
			installed := s.overlay != nil
			if !installed {
				s.overlay = make(map[string]*storedEvent) // Compact's capture phase
			}
			s.mu.Unlock()
			if installed {
				merge()
			}
		case r < 19:
			op = "compact"
			merge()
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		default:
			op = "reopen"
			merge()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(dir); err != nil {
				t.Fatal(err)
			}
		}

		want := make(map[string][]string)
		s.mu.RLock()
		s.forEach(func(uuid string, se *storedEvent) {
			for _, a := range allAttributes(se.event) {
				if !slices.Contains(want[a.Value], uuid) {
					want[a.Value] = append(want[a.Value], uuid)
				}
			}
		})
		got := make(map[string][]string, len(s.byValue))
		for value, p := range s.byValue {
			for uuid := range p.set {
				got[value] = append(got[value], uuid)
			}
		}
		s.mu.RUnlock()
		for _, m := range []map[string][]string{want, got} {
			for _, list := range m {
				sort.Strings(list)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d (%s): index\n%v\nrebuilt\n%v", step, op, got, want)
		}
		for _, value := range values {
			hits, err := s.SearchValue(value)
			if err != nil {
				t.Fatal(err)
			}
			var found []string
			for _, e := range hits {
				found = append(found, e.UUID)
			}
			if !slices.Equal(found, want[value]) {
				t.Fatalf("step %d (%s): SearchValue(%s) = %v, want %v", step, op, value, found, want[value])
			}
		}
	}
}
