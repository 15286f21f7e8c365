package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/caisplatform/caisp/internal/misp"
)

// TestCompactSnapshotFailureKeepsStoreUsable is the regression test for
// the error path that used to leave the store holding a closed or stale
// WAL handle after a failed compaction: a snapshot that cannot be
// written must leave the WAL appendable, the overlay merged back, and a
// later compaction able to succeed.
func TestCompactSnapshotFailureKeepsStoreUsable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := putOne(s, event(t, "before", [2]string{"domain", "a.example"})); err != nil {
		t.Fatal(err)
	}
	// A directory squatting on the temp path makes os.Create fail even
	// for root, which a chmod-based injection would not.
	blocker := filepath.Join(dir, snapshotFile+".tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err == nil {
		t.Fatal("Compact succeeded despite blocked snapshot temp file")
	}
	if s.overlay != nil {
		t.Fatal("overlay left active after failed compaction")
	}
	// The WAL must still accept writes after the failure.
	after := event(t, "after", [2]string{"domain", "b.example"})
	if err := putOne(s, after); err != nil {
		t.Fatalf("Put after failed compaction: %v", err)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact after clearing blocker: %v", err)
	}
	if got := s.Durability().Compactions; got != 1 {
		t.Fatalf("Compactions = %d, want 1 (failed attempt must not count)", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("Len after reopen = %d, want 2", s2.Len())
	}
	if _, err := s2.Get(after.UUID); err != nil {
		t.Fatalf("post-failure write lost: %v", err)
	}
}

// TestSegmentRotationAndPruning drives enough writes through a tiny
// segment bound to force several rotations, then checks that compaction
// deletes exactly the sealed segments the snapshot covers.
func TestSegmentRotationAndPruning(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, withSegmentSize(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 40; i++ {
		if err := putOne(s, event(t, fmt.Sprintf("evt-%d", i), [2]string{"domain", fmt.Sprintf("h%d.example", i)})); err != nil {
			t.Fatal(err)
		}
	}
	d := s.Durability()
	if d.WALSegments < 3 {
		t.Fatalf("WALSegments = %d, want several with a 1 KiB bound", d.WALSegments)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	d = s.Durability()
	if d.WALSegments != 1 {
		t.Fatalf("WALSegments after compact = %d, want 1 (sealed segments pruned)", d.WALSegments)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("%d segment files on disk after compact, want 1", len(segs))
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 40 {
		t.Fatalf("Len after reopen = %d, want 40", s2.Len())
	}
}

// TestWritesDuringCompactionVisible checks the copy-on-write overlay:
// puts and deletes racing a slowed-down snapshot must be visible
// immediately and survive the merge.
func TestWritesDuringCompactionVisible(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keep := event(t, "keep", [2]string{"domain", "keep.example"})
	drop := event(t, "drop", [2]string{"domain", "drop.example"})
	for _, e := range []*misp.Event{keep, drop} {
		if err := putOne(s, e); err != nil {
			t.Fatal(err)
		}
	}
	// Install the overlay by hand — the capture phase of Compact — and
	// exercise the read/write paths while it is active.
	s.mu.Lock()
	s.overlay = make(map[string]*storedEvent)
	s.mu.Unlock()

	during := event(t, "during", [2]string{"domain", "during.example"})
	if err := putOne(s, during); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(drop.UUID); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len with overlay = %d, want 2", s.Len())
	}
	if _, err := s.Get(during.UUID); err != nil {
		t.Fatalf("overlay write invisible: %v", err)
	}
	if s.Has(drop.UUID) {
		t.Fatal("tombstoned event still visible")
	}
	hits, err := s.SearchValue("during.example")
	if err != nil || len(hits) != 1 {
		t.Fatalf("index lookup through overlay = %v, %v", hits, err)
	}
	all, err := s.All()
	if err != nil || len(all) != 2 {
		t.Fatalf("All through overlay = %d events, %v", len(all), err)
	}

	// Merge — the finish phase of Compact.
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

	if s.Len() != 2 || s.Has(drop.UUID) {
		t.Fatal("overlay merge lost state")
	}
	if _, err := s.Get(during.UUID); err != nil {
		t.Fatalf("overlay write lost by merge: %v", err)
	}
}

// TestLegacyFormatRejected checks that Open refuses both
// pre-segmentation layouts — a JSON-lines events.wal and a monolithic
// {"seq":…,"events":[…]} snapshot — with ErrLegacyFormat naming the file,
// instead of opening as if their events did not exist.
func TestLegacyFormatRejected(t *testing.T) {
	e := event(t, "legacy", [2]string{"domain", "legacy.example"})
	rec, err := json.Marshal(walRecord{Seq: 1, Op: "put", Event: e})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := json.Marshal(struct {
		Seq    uint64        `json:"seq"`
		Events []*misp.Event `json:"events"`
	}{Seq: 1, Events: []*misp.Event{e}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		file string
		data []byte
	}{
		{"events.wal", append(rec, '\n')},
		{snapshotFile, snap},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, tc.file), tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err == nil {
			s.Close()
			t.Fatalf("%s: Open succeeded on a legacy layout", tc.file)
		}
		if !errors.Is(err, ErrLegacyFormat) || !strings.Contains(err.Error(), tc.file) {
			t.Fatalf("%s: Open error = %v, want ErrLegacyFormat naming the file", tc.file, err)
		}
	}
}

// TestConcurrentBatchesDuringBackgroundCompaction is the -race stress
// test from the acceptance criteria: concurrent PutBatch writers and
// readers race a compaction loop; after reopening, every committed batch
// must be present in full — nothing lost, nothing partial.
func TestConcurrentBatchesDuringBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, withSegmentSize(8<<10))
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers    = 4
		batches    = 25
		batchSize  = 4
		compactors = 1
	)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		want = make(map[string]string) // uuid -> info of every committed event
	)
	stop := make(chan struct{})
	for c := 0; c < compactors; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if err := s.Compact(); err != nil {
						t.Errorf("Compact: %v", err)
						return
					}
				}
			}
		}()
	}
	// Readers hammer the overlay-aware read paths while snapshots run.
	readerStop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-readerStop:
					return
				default:
					s.Len()
					if _, _, _, err := s.ChangesPage(0, 0); err != nil {
						t.Errorf("ChangesPage: %v", err)
						return
					}
				}
			}
		}()
	}
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for b := 0; b < batches; b++ {
				batch := make([]*misp.Event, batchSize)
				for i := range batch {
					batch[i] = event(t, fmt.Sprintf("w%d-b%d-i%d", w, b, i),
						[2]string{"domain", fmt.Sprintf("w%d-b%d-i%d.example", w, b, i)})
				}
				if _, err := s.PutBatch(batch, nil); err != nil {
					t.Errorf("PutBatch: %v", err)
					return
				}
				mu.Lock()
				for _, e := range batch {
					want[e.UUID] = e.Info
				}
				mu.Unlock()
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	close(readerStop)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != len(want) {
		t.Fatalf("recovered %d events, want %d", s2.Len(), len(want))
	}
	for uuid, info := range want {
		e, err := s2.Get(uuid)
		if err != nil {
			t.Fatalf("committed event %s lost: %v", uuid, err)
		}
		if e.Info != info {
			t.Fatalf("event %s recovered with info %q, want %q", uuid, e.Info, info)
		}
	}
}
