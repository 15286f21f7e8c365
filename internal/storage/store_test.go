package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
)

var now = time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC)

func event(t testing.TB, info string, attrs ...[2]string) *misp.Event {
	t.Helper()
	e := misp.NewEvent(info, now)
	for _, kv := range attrs {
		e.AddAttribute(kv[0], "Network activity", kv[1], now)
	}
	return e
}

// optionFunc sets a Store field that only tests change.
type optionFunc func(*Store)

func (f optionFunc) apply(s *Store) { f(s) }

// putOne stores e alone, as a one-event PutBatch.
func putOne(s *Store, e *misp.Event) error {
	_, err := s.PutBatch([]*misp.Event{e}, nil)
	return err
}

// withSegmentSize seals WAL segments at roughly n bytes instead of
// defaultSegmentSize, so a test crosses segment boundaries with few events.
func withSegmentSize(n int64) Option {
	return optionFunc(func(s *Store) { s.segmentSize = n })
}

func openTemp(t *testing.T, opts ...Option) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, dir
}

func TestPutGetDelete(t *testing.T) {
	s, _ := openTemp(t)
	e := event(t, "evt", [2]string{"domain", "evil.example"})
	if err := putOne(s, e); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(e.UUID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Info != "evt" || len(got.Attributes) != 1 {
		t.Fatalf("Get = %+v", got)
	}
	if err := s.Delete(e.UUID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(e.UUID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v, want ErrNotFound", err)
	}
	if err := s.Delete(e.UUID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete = %v, want ErrNotFound", err)
	}
}

func TestGetCloneReturnsCopy(t *testing.T) {
	s, _ := openTemp(t)
	e := event(t, "evt", [2]string{"domain", "evil.example"})
	if err := putOne(s, e); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetClone(e.UUID)
	if err != nil {
		t.Fatal(err)
	}
	got.Info = "mutated"
	got.Attributes[0].Value = "mutated.example"
	again, err := s.Get(e.UUID)
	if err != nil {
		t.Fatal(err)
	}
	if again.Info != "evt" || again.Attributes[0].Value != "evil.example" {
		t.Fatal("GetClone result aliases internal state")
	}
	if _, err := s.GetClone("00000000-0000-4000-8000-00000000dead"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetClone(missing) = %v, want ErrNotFound", err)
	}
}

func TestGetReturnsSharedFrozenView(t *testing.T) {
	s, _ := openTemp(t)
	e := event(t, "evt", [2]string{"domain", "evil.example"})
	if err := putOne(s, e); err != nil {
		t.Fatal(err)
	}
	first, err := s.Get(e.UUID)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Get(e.UUID)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("Get allocated a copy; want the shared frozen revision")
	}
	// Replacing the event installs a fresh revision; the captured pointer
	// keeps describing the old one, unchanged.
	e2 := event(t, "evt v2", [2]string{"domain", "new.example"})
	e2.UUID = e.UUID
	if err := putOne(s, e2); err != nil {
		t.Fatal(err)
	}
	if first.Info != "evt" || first.Attributes[0].Value != "evil.example" {
		t.Fatal("captured snapshot mutated by a later Put")
	}
	current, err := s.Get(e.UUID)
	if err != nil {
		t.Fatal(err)
	}
	if current == first || current.Info != "evt v2" {
		t.Fatalf("Get after replace = %+v", current)
	}
}

func TestHas(t *testing.T) {
	s, _ := openTemp(t)
	e := event(t, "evt", [2]string{"domain", "evil.example"})
	if s.Has(e.UUID) {
		t.Fatal("Has before Put")
	}
	if err := putOne(s, e); err != nil {
		t.Fatal(err)
	}
	if !s.Has(e.UUID) {
		t.Fatal("Has after Put")
	}
	if err := s.Delete(e.UUID); err != nil {
		t.Fatal(err)
	}
	if s.Has(e.UUID) {
		t.Fatal("Has after Delete")
	}
}

func TestPutReplacesAndReindexes(t *testing.T) {
	s, _ := openTemp(t)
	e := event(t, "evt", [2]string{"domain", "old.example"})
	if err := putOne(s, e); err != nil {
		t.Fatal(err)
	}
	e2 := event(t, "evt v2", [2]string{"domain", "new.example"})
	e2.UUID = e.UUID
	if err := putOne(s, e2); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	hits, err := s.SearchValue("old.example")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("old value still indexed: %d hits", len(hits))
	}
	hits, err = s.SearchValue("new.example")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("new value not indexed: %d hits", len(hits))
	}
}

func TestSearches(t *testing.T) {
	s, _ := openTemp(t)
	a := event(t, "a", [2]string{"domain", "evil.example"}, [2]string{"ip-dst", "203.0.113.7"})
	b := event(t, "b", [2]string{"domain", "other.example"})
	b.AddTag("tlp:red")
	for _, e := range []*misp.Event{a, b} {
		if err := putOne(s, e); err != nil {
			t.Fatal(err)
		}
	}
	byVal, err := s.SearchValue("evil.example")
	if err != nil {
		t.Fatal(err)
	}
	if len(byVal) != 1 || byVal[0].UUID != a.UUID {
		t.Fatalf("SearchValue = %+v", byVal)
	}
}

// TestSearchesWithoutIndexes checks the value search against a full scan
// of the store, across a put, a replace and a delete. (Type and tag are
// not indexed; tip.TestSearchTypeAndTag covers them.)
func TestSearchesWithoutIndexes(t *testing.T) {
	s, _ := openTemp(t)
	a := event(t, "a", [2]string{"domain", "evil.example"})
	a.AddTag("tlp:amber")
	b := event(t, "b", [2]string{"domain", "evil.example"}, [2]string{"ip-dst", "203.0.113.7"})
	c := event(t, "c", [2]string{"ip-dst", "203.0.113.7"})
	c.AddTag("tlp:amber")
	for _, e := range []*misp.Event{a, b, c} {
		if err := putOne(s, e); err != nil {
			t.Fatal(err)
		}
	}
	b2 := event(t, "b v2", [2]string{"hostname", "evil.example"}, [2]string{"ip-dst", "203.0.113.9"})
	b2.UUID = b.UUID
	if err := putOne(s, b2); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(c.UUID); err != nil {
		t.Fatal(err)
	}
	// check compares one search's hits with a scan of All for match.
	check := func(name string, hits []*misp.Event, err error, match func(*misp.Event) bool) {
		t.Helper()
		all, aerr := s.All()
		if err != nil || aerr != nil {
			t.Fatal(err, aerr)
		}
		var want []*misp.Event
		for _, e := range all {
			if match(e) {
				want = append(want, e)
			}
		}
		if got := uuidsOf(hits); len(want) == 0 || !slices.Equal(got, uuidsOf(want)) {
			t.Errorf("search by %s = %v, scan = %v", name, got, uuidsOf(want))
		}
	}
	hits, err := s.SearchValue("evil.example")
	check("value", hits, err, func(e *misp.Event) bool {
		return slices.ContainsFunc(allAttributes(e), func(a misp.Attribute) bool { return a.Value == "evil.example" })
	})
}

func TestCorrelated(t *testing.T) {
	s, _ := openTemp(t)
	a := event(t, "a", [2]string{"domain", "shared.example"})
	b := event(t, "b", [2]string{"hostname", "shared.example"})
	c := event(t, "c", [2]string{"domain", "unrelated.example"})
	for _, e := range []*misp.Event{a, b, c} {
		if err := putOne(s, e); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Correlated(a)
	if len(got) != 1 || got[0] != b.UUID {
		t.Fatalf("Correlated = %v, want [%s]", got, b.UUID)
	}
	// The full-scan reference gives the same answer.
	if got := correlatedScan(s, a, correlatingValues(a)); len(got) != 1 || got[0] != b.UUID {
		t.Fatalf("Correlated (no index) = %v", got)
	}
}

func TestReplayAfterClose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var uuids []string
	for i := 0; i < 10; i++ {
		e := event(t, fmt.Sprintf("evt-%d", i), [2]string{"domain", fmt.Sprintf("h%d.example", i)})
		uuids = append(uuids, e.UUID)
		if err := putOne(s, e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(uuids[3]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 9 {
		t.Fatalf("replayed Len = %d, want 9", s2.Len())
	}
	if _, err := s2.Get(uuids[3]); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted event resurrected by replay")
	}
	hits, err := s2.SearchValue("h5.example")
	if err != nil || len(hits) != 1 {
		t.Fatalf("indexes not rebuilt on replay: %v, %v", hits, err)
	}
}

func TestCompactAndReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := putOne(s, event(t, fmt.Sprintf("evt-%d", i), [2]string{"domain", fmt.Sprintf("h%d.example", i)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := s.Durability().WALOps; n != 0 {
		t.Fatalf("WALOps after compact = %d", n)
	}
	// Writes after the snapshot land in the fresh WAL.
	post := event(t, "post-compact", [2]string{"domain", "late.example"})
	if err := putOne(s, post); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The WAL should be small (one record) across all live segments.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for i, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		fs, _, err := scanSegment(data, i == len(segs)-1)
		if err != nil {
			t.Fatal(err)
		}
		frames += len(fs)
	}
	if frames != 1 {
		t.Fatalf("wal has %d records after compaction, want 1", frames)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 6 {
		t.Fatalf("Len after snapshot+wal replay = %d, want 6", s2.Len())
	}
	if _, err := s2.Get(post.UUID); err != nil {
		t.Fatalf("post-compact event lost: %v", err)
	}
}

func TestTornWALTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := event(t, "evt", [2]string{"domain", "evil.example"})
	if err := putOne(s, e); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn final write: a frame header promising more payload
	// than ever reached the disk, at the tail of the active segment.
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1].path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, frameHdrLen+4)
	torn[0] = 200 // header claims a 200-byte payload; only 4 follow
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s2.Len())
	}
}

func TestCorruptWALMiddleRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := putOne(s, event(t, "evt", [2]string{"domain", "a.example"})); err != nil {
		t.Fatal(err)
	}
	if err := putOne(s, event(t, "evt2", [2]string{"domain", "b.example"})); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first frame's payload: a CRC mismatch with an
	// intact frame after it is corruption, not a torn tail → must fail loudly.
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	path := segs[len(segs)-1].path
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHdrLen+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

func TestMemoryOnlyStore(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e := event(t, "evt", [2]string{"domain", "evil.example"})
	if err := putOne(s, e); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact on memory store: %v", err)
	}
}

func TestWithSync(t *testing.T) {
	s, _ := openTemp(t, WithSync(true))
	if err := putOne(s, event(t, "evt", [2]string{"domain", "evil.example"})); err != nil {
		t.Fatal(err)
	}
}

func TestAllSorted(t *testing.T) {
	s, _ := openTemp(t)
	for i := 0; i < 20; i++ {
		if err := putOne(s, event(t, fmt.Sprintf("evt-%d", i), [2]string{"domain", fmt.Sprintf("h%d.example", i)})); err != nil {
			t.Fatal(err)
		}
	}
	all, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 20 {
		t.Fatalf("All = %d events", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].UUID >= all[i].UUID {
			t.Fatal("All not sorted by UUID")
		}
	}
}

func TestConcurrentPutsAndReads(t *testing.T) {
	s, _ := openTemp(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				e := event(t, fmt.Sprintf("g%d-%d", g, i), [2]string{"domain", fmt.Sprintf("g%d-%d.example", g, i)})
				if err := putOne(s, e); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.SearchValue(fmt.Sprintf("g%d-%d.example", g, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 200 {
		t.Fatalf("Len = %d, want 200", s.Len())
	}
}

func TestObjectAttributesIndexed(t *testing.T) {
	s, _ := openTemp(t)
	e := misp.NewEvent("with object", now)
	obj := e.AddObject("vulnerability", "vulnerability")
	obj.AddAttribute("vulnerability", "External analysis", "CVE-2021-44228", now)
	if err := putOne(s, e); err != nil {
		t.Fatal(err)
	}
	hits, err := s.SearchValue("CVE-2021-44228")
	if err != nil || len(hits) != 1 {
		t.Fatalf("SearchValue over object attrs = %d, %v", len(hits), err)
	}
	// Correlation across loose and object attributes.
	loose := misp.NewEvent("loose", now)
	loose.AddAttribute("vulnerability", "External analysis", "CVE-2021-44228", now)
	if err := putOne(s, loose); err != nil {
		t.Fatal(err)
	}
	if got := s.Correlated(loose); len(got) != 1 || got[0] != e.UUID {
		t.Fatalf("Correlated = %v", got)
	}
}

func TestWrappedJSONCache(t *testing.T) {
	s, _ := openTemp(t)
	e := event(t, "evt", [2]string{"domain", "evil.example"})
	if err := putOne(s, e); err != nil {
		t.Fatal(err)
	}
	first, err := s.WrappedJSON(e.UUID)
	if err != nil {
		t.Fatal(err)
	}
	var w misp.Wrapped
	if err := json.Unmarshal(first, &w); err != nil || w.Event == nil || w.Event.Info != "evt" {
		t.Fatalf("WrappedJSON decode = %+v, %v", w.Event, err)
	}
	second, err := s.WrappedJSON(e.UUID)
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] != &second[0] {
		t.Fatal("WrappedJSON re-encoded; want the cached bytes")
	}
	// A new revision invalidates the cache by replacing the stored entry.
	e2 := event(t, "evt v2", [2]string{"domain", "new.example"})
	e2.UUID = e.UUID
	if err := putOne(s, e2); err != nil {
		t.Fatal(err)
	}
	third, err := s.WrappedJSON(e.UUID)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(third, &w); err != nil || w.Event.Info != "evt v2" {
		t.Fatalf("WrappedJSON after replace = %+v, %v", w.Event, err)
	}
	if _, err := s.WrappedJSON("00000000-0000-4000-8000-00000000dead"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("WrappedJSON(missing) = %v, want ErrNotFound", err)
	}
}

func TestWrappedJSONFor(t *testing.T) {
	s, _ := openTemp(t)
	e := event(t, "evt", [2]string{"domain", "evil.example"})
	if err := putOne(s, e); err != nil {
		t.Fatal(err)
	}
	stored, err := s.Get(e.UUID)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := s.WrappedJSONFor(stored)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.WrappedJSON(e.UUID)
	if err != nil {
		t.Fatal(err)
	}
	if &cached[0] != &again[0] {
		t.Fatal("WrappedJSONFor(stored revision) missed the cache")
	}
	// A foreign event with the same UUID (e.g. a caller's pre-Put copy) is
	// encoded fresh, never served a different revision's bytes.
	foreign := stored.Clone()
	foreign.Info = "caller copy"
	fresh, err := s.WrappedJSONFor(foreign)
	if err != nil {
		t.Fatal(err)
	}
	var w misp.Wrapped
	if err := json.Unmarshal(fresh, &w); err != nil || w.Event.Info != "caller copy" {
		t.Fatalf("WrappedJSONFor(foreign) = %+v, %v", w.Event, err)
	}
}
