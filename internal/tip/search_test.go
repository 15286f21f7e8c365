package tip

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/storage"
)

func searchUUIDs(t *testing.T, s *Service, q SearchQuery) []string {
	t.Helper()
	hits, err := s.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(hits))
	for i, e := range hits {
		out[i] = e.UUID
	}
	return out
}

// TestSearchTypeAndTag: type and tag are answered by a scan, not an
// index, and see loose and object attributes, replaced revisions and
// deletions alike.
func TestSearchTypeAndTag(t *testing.T) {
	s := newService(t)
	a := sampleEvent(t, "a", "evil.example")
	a.AddAttribute("ip-dst", "Network activity", "203.0.113.7", now)
	b := sampleEvent(t, "b", "other.example")
	b.AddTag("tlp:red")
	c := sampleEvent(t, "c", "third.example")
	c.AddTag("tlp:amber")
	obj := c.AddObject("vulnerability", "vulnerability")
	obj.AddAttribute("vulnerability", "External analysis", "CVE-2021-44228", now)
	if _, err := s.AddEvents([]*misp.Event{a, b, c}); err != nil {
		t.Fatal(err)
	}
	sorted := func(uuids ...string) []string { sort.Strings(uuids); return uuids }
	for _, tc := range []struct {
		q    SearchQuery
		want []string
	}{
		{SearchQuery{Type: "domain"}, sorted(a.UUID, b.UUID, c.UUID)},
		{SearchQuery{Type: "ip-dst"}, sorted(a.UUID)},
		{SearchQuery{Type: "vulnerability"}, sorted(c.UUID)},
		{SearchQuery{Tag: "tlp:red"}, sorted(b.UUID)},
		{SearchQuery{Type: "domain", Tag: "tlp:amber"}, sorted(c.UUID)},
		{SearchQuery{Type: "hostname"}, nil},
	} {
		if got := searchUUIDs(t, s, tc.q); !slices.Equal(got, tc.want) {
			t.Errorf("Search(%+v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	// A replaced revision answers with its own attributes and tags; a
	// deleted event answers nothing.
	a2 := sampleEvent(t, "a v2", "evil.example")
	a2.UUID = a.UUID
	a2.AddTag("tlp:amber")
	if _, err := s.AddEvent(a2); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteEvent(c.UUID); err != nil {
		t.Fatal(err)
	}
	if got := searchUUIDs(t, s, SearchQuery{Type: "ip-dst"}); len(got) != 0 {
		t.Errorf("dropped attribute type still found: %v", got)
	}
	if got := searchUUIDs(t, s, SearchQuery{Tag: "tlp:amber"}); !slices.Equal(got, []string{a.UUID}) {
		t.Errorf("Search(tlp:amber) = %v, want only the edited event", got)
	}
	if got := searchUUIDs(t, s, SearchQuery{Type: "vulnerability"}); len(got) != 0 {
		t.Errorf("deleted event still found: %v", got)
	}
}

// TestSearchTypeTagAgainstScan drives a durable TIP with a randomized
// sequence of puts, edits that drop a tag or an attribute, deletes, and
// compactions followed by a reopen, and checks every type and tag query
// against a linear scan of a reference model, in UUID order. A reader
// searches by type throughout.
func TestSearchTypeTagAgainstScan(t *testing.T) {
	types := []string{"domain", "ip-dst", "url", "sha256"}
	tags := []string{"tlp:red", "tlp:amber", "caisp:cioc"}
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	store, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewService(store)
	model := map[string]*misp.Event{}
	var uuids []string
	clock := now

	var (
		mu      sync.RWMutex // held for writing across a reopen
		stop    atomic.Bool
		readers sync.WaitGroup
	)
	readers.Add(1)
	go func() {
		defer readers.Done()
		for !stop.Load() {
			mu.RLock()
			_, err := s.Search(SearchQuery{Type: "domain"})
			mu.RUnlock()
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		stop.Store(true)
		readers.Wait()
		store.Close()
	}()

	randomEvent := func(info string) *misp.Event {
		clock = clock.Add(time.Second)
		e := misp.NewEvent(info, clock)
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			typ := types[rng.Intn(len(types))]
			e.AddAttribute(typ, "Network activity", fmt.Sprintf("%s-%d", typ, rng.Intn(50)), clock)
		}
		for _, tag := range tags {
			if rng.Intn(2) == 0 {
				e.AddTag(tag)
			}
		}
		return e
	}
	check := func(step int) {
		t.Helper()
		for _, q := range []SearchQuery{{Type: types[0]}, {Type: types[1]}, {Type: types[2]}, {Type: types[3]},
			{Tag: tags[0]}, {Tag: tags[1]}, {Tag: tags[2]}, {Type: types[0], Tag: tags[0]}} {
			var want []string
			for uuid, e := range model {
				if (q.Type == "" || hasType(e, q.Type)) && (q.Tag == "" || e.HasTag(q.Tag)) {
					want = append(want, uuid)
				}
			}
			sort.Strings(want)
			if got := searchUUIDs(t, s, q); !slices.Equal(got, want) {
				t.Fatalf("step %d: Search(%+v) = %v, scan = %v", step, q, got, want)
			}
		}
	}

	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 4 || len(uuids) == 0: // put a batch of new events
			batch := make([]*misp.Event, 1+rng.Intn(4))
			for i := range batch {
				batch[i] = randomEvent(fmt.Sprintf("evt-%d-%d", step, i))
				model[batch[i].UUID] = batch[i]
				uuids = append(uuids, batch[i].UUID)
			}
			if _, err := s.AddEvents(batch); err != nil {
				t.Fatal(err)
			}
		case op < 7: // edit: drop a tag or an attribute
			uuid := uuids[rng.Intn(len(uuids))]
			old, ok := model[uuid]
			if !ok {
				continue
			}
			e := old.Clone()
			clock = clock.Add(time.Second)
			e.Timestamp = misp.UT(clock)
			if len(e.Tags) > 0 && rng.Intn(2) == 0 {
				e.Tags = slices.Delete(e.Tags, 0, 1)
			} else if len(e.Attributes) > 1 {
				e.Attributes = slices.Delete(e.Attributes, 0, 1)
			}
			if _, err := s.AddEvent(e); err != nil {
				t.Fatal(err)
			}
			model[uuid] = e
		case op < 9: // delete
			uuid := uuids[rng.Intn(len(uuids))]
			if _, ok := model[uuid]; !ok {
				continue
			}
			if err := s.DeleteEvent(uuid); err != nil {
				t.Fatal(err)
			}
			delete(model, uuid)
		default: // compact, then reopen
			if err := store.Compact(); err != nil {
				t.Fatal(err)
			}
			// mu is released before any t.Fatal: the deferred Wait needs
			// the reader to get past its RLock.
			mu.Lock()
			err := store.Close()
			if err == nil {
				var reopened *storage.Store
				if reopened, err = storage.Open(dir); err == nil {
					store, s = reopened, NewService(reopened)
				}
			}
			mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
		}
		check(step)
	}
}
