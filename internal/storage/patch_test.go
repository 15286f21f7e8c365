package storage

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"github.com/caisplatform/caisp/internal/misp"
)

// cluster builds an event of n domain attributes, a composed cluster's
// shape.
func cluster(t testing.TB, info string, n int) *misp.Event {
	e := event(t, info)
	for i := 0; i < n; i++ {
		e.AddAttribute("domain", "Network activity", fmt.Sprintf("%s-%d.example", info, i), now)
	}
	return e
}

// grown is a private copy of the stored revision of uuid with attributes
// added at the end and one inserted at the front, as a flush grows a
// cluster by new members.
func grown(t testing.TB, s *Store, uuid string, tag string) *misp.Event {
	t.Helper()
	e, err := s.GetClone(uuid)
	if err != nil {
		t.Fatal(err)
	}
	e.AddAttribute("ip-dst", "Network activity", tag+"-tail", now)
	e.AddAttribute("domain", "Network activity", tag+"-front.example", now)
	front := e.Attributes[len(e.Attributes)-1]
	e.Attributes = append([]misp.Attribute{front}, e.Attributes[:len(e.Attributes)-1]...)
	return e
}

// rescored is a private copy of the stored revision of uuid whose
// attribute i has a new value, as a decayed-score write changes one.
func rescored(t testing.TB, s *Store, uuid string, i int, value string) *misp.Event {
	t.Helper()
	e, err := s.GetClone(uuid)
	if err != nil {
		t.Fatal(err)
	}
	e.Attributes[i].Value = value
	return e
}

// walOps counts the committed frames in dir's WAL by op.
func walOps(t *testing.T, dir string) map[string]int {
	t.Helper()
	ops := map[string]int{}
	for _, p := range walPayloads(t, dir) {
		var rec walRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			t.Fatal(err)
		}
		ops[rec.Op]++
	}
	return ops
}

// feed renders the store's whole change feed: sequence, UUID and either
// the event's canonical JSON or the deletion time.
func feed(t testing.TB, s *Store) []string {
	t.Helper()
	changes, _, _, err := s.Changes(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(changes))
	for i, c := range changes {
		if c.Event == nil {
			out[i] = fmt.Sprintf("%d %s deleted %d", c.Seq, c.UUID, c.DeletedAt.Unix())
			continue
		}
		data, err := json.Marshal(c.Event)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = fmt.Sprintf("%d %s %s", c.Seq, c.UUID, data)
	}
	return out
}

func reopenFeed(t *testing.T, dir string) []string {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	return feed(t, s)
}

// writePatches fills a store with clusters and revises them: grown in a
// batch, rescored one by one, one deleted and one replaced whole.
func writePatches(t *testing.T, s *Store) {
	t.Helper()
	batch := make([]*misp.Event, 5)
	for i := range batch {
		batch[i] = cluster(t, fmt.Sprintf("c%d", i), 20)
	}
	if _, err := s.PutBatch(batch, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutBatch([]*misp.Event{grown(t, s, batch[0].UUID, "g0"), grown(t, s, batch[1].UUID, "g1"), grown(t, s, batch[2].UUID, "g2")}, nil); err != nil {
		t.Fatal(err)
	}
	for i, uuid := range []string{batch[0].UUID, batch[3].UUID, batch[0].UUID} {
		if err := putOne(s, rescored(t, s, uuid, 5+i, fmt.Sprintf("decayed-score:0.%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(batch[4].UUID); err != nil {
		t.Fatal(err)
	}
	whole := cluster(t, "whole", 3)
	whole.UUID = batch[2].UUID
	if err := putOne(s, whole); err != nil {
		t.Fatal(err)
	}
}

// TestPatchRecordsReopenWithSameChanges: a store whose WAL holds patch
// records reopens to the same change feed, sequences and event content
// alike, after a plain reopen and after a compaction that folds the
// patches into the snapshot.
func TestPatchRecordsReopenWithSameChanges(t *testing.T) {
	for _, compact := range []bool{false, true} {
		t.Run(fmt.Sprintf("compact=%v", compact), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, withSegmentSize(4<<10))
			if err != nil {
				t.Fatal(err)
			}
			writePatches(t, s)
			if ops := walOps(t, dir); ops["patch"] != 6 || ops["put"] != 6 || ops["delete"] != 1 {
				t.Fatalf("WAL holds %v, want 6 patches, 6 puts and 1 delete", ops)
			}
			if compact {
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			want := feed(t, s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			got := reopenFeed(t, dir)
			if !slices.Equal(got, want) {
				t.Fatalf("reopened feed:\n%q\nwant\n%q", got, want)
			}
			if again := reopenFeed(t, dir); !slices.Equal(again, want) {
				t.Fatalf("second reopen differs:\n%q", again)
			}
		})
	}
}

// TestPatchOnBaseInSnapshot: a patch whose base was compacted into the
// snapshot, with the segment that logged the base deleted, resolves
// against the base's sequence kept in the snapshot.
func TestPatchOnBaseInSnapshot(t *testing.T) {
	s, dir := openTemp(t)
	c := cluster(t, "c", 30)
	if err := putOne(s, c); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := putOne(s, grown(t, s, c.UUID, "g")); err != nil {
		t.Fatal(err)
	}
	if err := putOne(s, rescored(t, s, c.UUID, 3, "decayed-score:0.5")); err != nil {
		t.Fatal(err)
	}
	payloads := walPayloads(t, dir)
	if len(payloads) != 2 {
		t.Fatalf("%d frames after the compaction, want the 2 revisions", len(payloads))
	}
	var rec walRecord
	if err := json.Unmarshal(payloads[0], &rec); err != nil || rec.Op != "patch" || rec.Base != 1 {
		t.Fatalf("first frame after the compaction = %s, %v; want a patch on seq 1", payloads[0], err)
	}
	want := feed(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reopenFeed(t, dir); !slices.Equal(got, want) {
		t.Fatalf("reopened feed:\n%q\nwant\n%q", got, want)
	}
}

// TestPatchOnlyOnAnUnambiguousBase: a revision is logged in full when it
// arrives with raw bytes, shares no attribute with the stored revision,
// is the UUID's first, or is put twice in one batch.
func TestPatchOnlyOnAnUnambiguousBase(t *testing.T) {
	s, dir := openTemp(t)
	a, b := cluster(t, "a", 4), cluster(t, "b", 4)
	if _, err := s.PutBatch([]*misp.Event{a, b}, nil); err != nil {
		t.Fatal(err)
	}
	twice := []*misp.Event{grown(t, s, a.UUID, "x"), grown(t, s, a.UUID, "y")}
	if _, err := s.PutBatch(twice, nil); err != nil {
		t.Fatal(err)
	}
	raw := grown(t, s, b.UUID, "raw")
	data, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutBatch([]*misp.Event{raw}, [][]byte{data}); err != nil {
		t.Fatal(err)
	}
	replaced := cluster(t, "replaced", 4)
	replaced.UUID = b.UUID
	if err := putOne(s, replaced); err != nil {
		t.Fatal(err)
	}
	if ops := walOps(t, dir); ops["put"] != 6 || ops["patch"] != 0 {
		t.Fatalf("WAL holds %v, want 6 full puts", ops)
	}
	if err := putOne(s, grown(t, s, b.UUID, "z")); err != nil {
		t.Fatal(err)
	}
	if ops := walOps(t, dir); ops["patch"] != 1 {
		t.Fatalf("WAL holds %v, want the last revision as a patch", ops)
	}
}

// TestConcurrentRevisionsOfOneUUID: writers growing the same UUID race
// between their diff and the lock; a revision whose base was replaced
// meanwhile is logged in full, and the store reopens to what it held.
func TestConcurrentRevisionsOfOneUUID(t *testing.T) {
	s, dir := openTemp(t)
	c := cluster(t, "c", 10)
	if err := putOne(s, c); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				e, err := s.GetClone(c.UUID)
				if err != nil {
					t.Error(err)
					return
				}
				e.AddAttribute("domain", "Network activity", fmt.Sprintf("w%d-%d.example", w, i), now)
				if err := putOne(s, e); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	want := feed(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reopenFeed(t, dir); !slices.Equal(got, want) {
		t.Fatalf("reopened feed:\n%q\nwant\n%q", got, want)
	}
}

// TestDiffAttributes pins the runs a revision's diff yields for the
// writes that revise a stored event.
func TestDiffAttributes(t *testing.T) {
	base := cluster(t, "b", 6).Attributes
	changed := slices.Clone(base)
	changed[2].Value = "decayed-score:0.1"
	fresh := misp.NewAttribute("domain", "Network activity", "new.example", now)
	fresh.UUID = "new"
	restamped := slices.Clone(base)
	restamped[4].Timestamp = misp.UT(now.Add(1e9))
	for _, tc := range []struct {
		name  string
		attrs []misp.Attribute
		runs  [][3]int
		fresh int
	}{
		{"unchanged", base, [][3]int{{0, 0, 6}}, 0},
		{"appended", append(slices.Clone(base), fresh), [][3]int{{0, 0, 6}}, 1},
		{"inserted", slices.Insert(slices.Clone(base), 3, fresh), [][3]int{{0, 0, 3}, {4, 3, 3}}, 1},
		{"changed in place", changed, [][3]int{{0, 0, 2}, {3, 3, 3}}, 1},
		{"restamped", restamped, [][3]int{{0, 0, 4}, {5, 5, 1}}, 1},
		{"dropped", slices.Delete(slices.Clone(base), 1, 3), [][3]int{{0, 0, 1}, {1, 3, 3}}, 0},
		{"reordered", []misp.Attribute{base[3], base[0], base[4]}, [][3]int{{0, 3, 1}, {2, 4, 1}}, 1},
		{"disjoint", []misp.Attribute{fresh}, nil, 1},
	} {
		runs, fr := diffAttributes(base, tc.attrs)
		if !slices.Equal(runs, tc.runs) || len(fr) != tc.fresh {
			t.Errorf("%s: runs %v with %d fresh, want %v with %d", tc.name, runs, len(fr), tc.runs, tc.fresh)
			continue
		}
		if runs == nil {
			continue
		}
		s := &Store{events: map[string]*storedEvent{"e": {event: &misp.Event{Attributes: base}, seq: 1}}}
		rec := walRecord{Base: 1, Runs: runs, Event: &misp.Event{UUID: "e", Attributes: fr}}
		err := s.unpatch(&rec)
		if err != nil || !slices.EqualFunc(rec.Event.Attributes, tc.attrs, func(a, b misp.Attribute) bool { return sameAttribute(&a, &b) }) {
			t.Errorf("%s: patch rebuilds %v, %v", tc.name, rec.Event.Attributes, err)
		}
	}
}

// FuzzReplayPatch builds a WAL segment holding a base put and the patch
// a revision of it is logged as, then mutates the patch's runs and base
// sequence and may put a delete or a re-put of the base between the two
// records. Open must either reopen to exactly the state the segment
// gives with the patch replaced by a full put of the event it describes,
// or, when the patch does not fit the UUID's current revision, fail with
// ErrPatchBase. It must never panic.
func FuzzReplayPatch(f *testing.F) {
	f.Add(uint8(6), []byte{0, 1, 0, 2, 0}, []byte{}, int8(0), uint8(0))
	f.Add(uint8(6), []byte{0, 1, 0}, []byte{0, 0, 1, 5}, int8(0), uint8(0))    // run out of range
	f.Add(uint8(6), []byte{0, 1, 0}, []byte{0, 1, 0, 0xfe}, int8(0), uint8(0)) // overlapping runs
	f.Add(uint8(6), []byte{0, 1, 0}, []byte{1, 0, 0, 0}, int8(0), uint8(0))    // a run dropped: not covering
	f.Add(uint8(6), []byte{0, 1, 0}, []byte{2, 0, 0, 0}, int8(0), uint8(0))    // a run repeated
	f.Add(uint8(6), []byte{0, 3, 0}, []byte{0, 0, 0, 3}, int8(0), uint8(0))    // a run moved
	f.Add(uint8(6), []byte{0, 2, 0, 1}, []byte{}, int8(1), uint8(0))           // wrong base sequence
	f.Add(uint8(6), []byte{1, 0}, []byte{}, int8(0), uint8(1))                 // base deleted between
	f.Add(uint8(6), []byte{1, 0}, []byte{}, int8(0), uint8(2))                 // base re-put between
	f.Add(uint8(6), []byte{1, 0}, []byte{}, int8(1), uint8(2))                 // patch on the re-put
	f.Add(uint8(0), []byte{2}, []byte{0, 0, 2, 0x80}, int8(-1), uint8(0))      // zero base, negative length
	f.Fuzz(func(t *testing.T, nBase uint8, edits, mutations []byte, baseDelta int8, between uint8) {
		// The revision: the base's attributes kept, inserted before,
		// changed or dropped, one edit per byte; the rest kept.
		base := &misp.Event{UUID: "00000000-0000-4000-8000-000000000001", Info: "base", Date: "2019-06-24", ThreatLevelID: 4, Timestamp: misp.UT(now)}
		for i := 0; i < int(nBase%12)+1; i++ {
			a := misp.NewAttribute("domain", "Network activity", fmt.Sprintf("b%d.example", i), now)
			a.UUID = fmt.Sprintf("00000000-0000-4000-8000-1000000000%02d", i)
			base.Attributes = append(base.Attributes, a)
		}
		rev := base.Clone()
		rev.Info = "revision"
		rev.Attributes = nil
		next := 0
		for i, op := range edits {
			if next >= len(base.Attributes) {
				break
			}
			switch op % 4 {
			case 0:
				rev.Attributes = append(rev.Attributes, base.Attributes[next])
				next++
			case 1:
				a := misp.NewAttribute("ip-dst", "Network activity", fmt.Sprintf("n%d", i), now)
				a.UUID = fmt.Sprintf("00000000-0000-4000-8000-2000000000%02d", i%100)
				rev.Attributes = append(rev.Attributes, a)
			case 2:
				a := base.Attributes[next]
				a.Value = fmt.Sprintf("changed-%d", i)
				rev.Attributes = append(rev.Attributes, a)
				next++
			case 3:
				next++
			}
		}
		rev.Attributes = append(rev.Attributes, base.Attributes[next:]...)

		// Log the base and the revision through a store.
		src := t.TempDir()
		s, err := Open(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := putOne(s, base); err != nil {
			t.Fatal(err)
		}
		if err := putOne(s, rev); err != nil {
			t.Fatal(err)
		}
		s.Close()
		payloads := walPayloads(t, src)
		var patch walRecord
		if err := json.Unmarshal(payloads[1], &patch); err != nil {
			t.Fatal(err)
		}
		if patch.Op != "patch" {
			return // nothing carried: logged in full
		}

		// Mutate the patch, four bytes an edit: kind, run, field, delta.
		unmutated := len(mutations) < 4 && baseDelta == 0 && between%3 == 0
		for ; len(mutations) >= 4 && len(patch.Runs) > 0; mutations = mutations[4:] {
			k := int(mutations[1]) % len(patch.Runs)
			switch mutations[0] % 3 {
			case 0:
				patch.Runs[k][mutations[2]%3] += int(int8(mutations[3]))
			case 1:
				patch.Runs = slices.Delete(patch.Runs, k, k+1)
			case 2:
				run := patch.Runs[k]
				run[mutations[2]%3] += int(int8(mutations[3]))
				patch.Runs = slices.Insert(patch.Runs, k+1, run)
			}
		}
		patch.Base = uint64(int64(patch.Base) + int64(baseDelta))

		// The records as a segment: the base, what stands between, the
		// patch; and the same with the patch as a full put of what it
		// describes, if it fits the reference's current revision.
		var putBase walRecord
		if err := json.Unmarshal(payloads[0], &putBase); err != nil {
			t.Fatal(err)
		}
		recs := []walRecord{putBase}
		cur, curSeq := putBase.Event, uint64(1)
		switch between % 3 {
		case 1:
			recs = append(recs, walRecord{Seq: 2, Op: "delete", UUID: base.UUID, At: now.Unix()})
			cur = nil
		case 2:
			recs = append(recs, walRecord{Seq: 2, Op: "put", Event: putBase.Event})
			curSeq = 2
		}
		patch.Seq = uint64(len(recs)) + 1
		var want []walRecord
		if cur != nil && curSeq == patch.Base {
			if attrs, ok := referencePatch(cur.Attributes, patch.Event.Attributes, patch.Runs); ok {
				full := *patch.Event
				full.Attributes = attrs
				want = append(slices.Clone(recs), walRecord{Seq: patch.Seq, Op: "put", Event: &full})
			}
		}
		got, err := openRecords(t, append(recs, patch))
		if want == nil {
			if !errors.Is(err, ErrPatchBase) {
				t.Fatalf("patch %+v on %d opened with %v, want ErrPatchBase", patch.Runs, patch.Base, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("patch %+v on %d: %v", patch.Runs, patch.Base, err)
		}
		full, err := openRecords(t, want)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, full) {
			t.Fatalf("patch %+v replays to\n%q\nfull put to\n%q", patch.Runs, got, full)
		}
		if unmutated {
			if data, _ := json.Marshal(rev); !bytes.HasSuffix([]byte(got[0]), data) {
				t.Fatalf("unmutated patch replays to %s, want %s", got[0], data)
			}
		}
	})
}

// referencePatch rebuilds a patch's attributes by marking the positions
// each run fills, then filling the rest with fresh in order. Runs must
// ascend without overlap on both sides, be non-empty and stay within
// base and the revision.
func referencePatch(base, fresh []misp.Attribute, runs [][3]int) ([]misp.Attribute, bool) {
	total := len(fresh)
	for _, r := range runs {
		if r[2] < 1 {
			return nil, false
		}
		total += r[2]
	}
	if len(runs) == 0 {
		return nil, false
	}
	slots := make([]*misp.Attribute, total)
	atEnd, fromEnd := 0, 0
	for _, r := range runs {
		at, from, n := r[0], r[1], r[2]
		if at < atEnd || from < fromEnd || from+n > len(base) || at+n > total {
			return nil, false
		}
		for k := 0; k < n; k++ {
			slots[at+k] = &base[from+k]
		}
		atEnd, fromEnd = at+n, from+n
	}
	out := make([]misp.Attribute, 0, total)
	next := 0
	for _, p := range slots {
		if p == nil {
			p = &fresh[next]
			next++
		}
		out = append(out, *p)
	}
	return out, true
}

// openRecords writes recs as one segment, a commit group each, opens a
// store on it and returns its change feed.
func openRecords(t *testing.T, recs []walRecord) ([]string, error) {
	t.Helper()
	frames := make([]walFrame, len(recs))
	for i := range recs {
		payload, err := json.Marshal(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = walFrame{payload: payload, commit: true}
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-00000000000000000001.seg"), reframe(frames), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return feed(t, s), nil
}
