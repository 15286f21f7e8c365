package storage

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
)

// TestSnapshotIsolationUnderConcurrentIngest hammers the copy-free read
// path with concurrent readers while a writer commits batches, asserting
// the two snapshot-isolation invariants (DESIGN.md §8):
//
//   - batch atomicity: every event of a PutBatch becomes visible at once,
//     so a reader never observes a partial batch (SearchValue over a
//     batch-shared value returns 0 or batchSize hits, all from the same
//     revision pass; the change log lists whole batches, each one
//     contiguous);
//   - immutability: an event captured by a reader keeps its contents
//     unchanged even after the writer overwrites the same UUIDs.
//
// Meant to run under -race (make race), where any lock-discipline slip in
// the shared-pointer read path turns into a report.
func TestSnapshotIsolationUnderConcurrentIngest(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const (
		batches   = 60
		batchSize = 8
		readers   = 4
	)

	// Pre-build every batch. All events of batch i share one attribute
	// value and one timestamp; pass 2 overwrites the same UUIDs with new
	// Info ("rev2-…") but the same value and timestamp.
	batchValue := func(i int) string { return fmt.Sprintf("batch-%d.example", i) }
	batchTime := func(i int) time.Time { return now.Add(time.Duration(i) * time.Second) }
	rev1 := make([][]*misp.Event, batches)
	rev2 := make([][]*misp.Event, batches)
	for i := 0; i < batches; i++ {
		for j := 0; j < batchSize; j++ {
			e := misp.NewEvent(fmt.Sprintf("rev1-%d-%d", i, j), batchTime(i))
			e.AddAttribute("domain", "Network activity", batchValue(i), batchTime(i))
			rev1[i] = append(rev1[i], e)
			e2 := misp.NewEvent(fmt.Sprintf("rev2-%d-%d", i, j), batchTime(i))
			e2.UUID = e.UUID
			e2.AddAttribute("domain", "Network activity", batchValue(i), batchTime(i))
			rev2[i] = append(rev2[i], e2)
		}
	}

	var committed atomic.Int64 // rev1 batches fully committed
	done := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // writer: commit every batch twice (install, then overwrite)
		defer wg.Done()
		defer close(done)
		for i := 0; i < batches; i++ {
			if _, err := s.PutBatch(rev1[i], nil); err != nil {
				t.Error(err)
				return
			}
			committed.Store(int64(i + 1))
		}
		for i := 0; i < batches; i++ {
			if _, err := s.PutBatch(rev2[i], nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	type capture struct {
		event *misp.Event
		info  string
		value string
	}
	captures := make([][]capture, readers)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			probe := misp.NewEvent("probe", now)
			for {
				select {
				case <-done:
					return
				default:
				}
				i := rng.Intn(batches)

				// Atomicity over the value index: 0 or batchSize hits, and
				// every hit from the same write pass.
				hits, err := s.SearchValue(batchValue(i))
				if err != nil {
					t.Error(err)
					return
				}
				if len(hits) != 0 && len(hits) != batchSize {
					t.Errorf("partial batch visible: SearchValue(%s) = %d hits", batchValue(i), len(hits))
					return
				}
				if len(hits) == batchSize {
					pass := hits[0].Info[:4]
					for _, h := range hits {
						if !strings.HasPrefix(h.Info, pass) {
							t.Errorf("mixed revisions in one read: %q vs %q", hits[0].Info, h.Info)
							return
						}
					}
					if len(captures[r]) < batches {
						captures[r] = append(captures[r], capture{
							event: hits[0],
							info:  hits[0].Info,
							value: hits[0].Attributes[0].Value,
						})
					}
				}

				// Atomicity over the change log: a batch commits at
				// consecutive sequences, so the live listing is whole
				// batches back to back.
				listed, _, _, err := s.ChangesPage(0, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if len(listed)%batchSize != 0 {
					t.Errorf("partial batch visible: ChangesPage = %d events, not a multiple of %d", len(listed), batchSize)
					return
				}
				for k := 0; k < len(listed); k += batchSize {
					want := listed[k].Attributes[0].Value
					for _, e := range listed[k : k+batchSize] {
						if e.Attributes[0].Value != want {
							t.Errorf("batch split in the change log: %s listed among %s", e.Attributes[0].Value, want)
							return
						}
					}
				}

				// Correlation sees the whole batch or none of it.
				probe.Attributes = probe.Attributes[:0]
				probe.AddAttribute("domain", "Network activity", batchValue(i), now)
				if got := s.Correlated(probe); len(got) != 0 && len(got) != batchSize {
					t.Errorf("partial batch visible: Correlated = %d uuids", len(got))
					return
				}

				// Point reads on a committed batch must always succeed.
				if n := committed.Load(); n > 0 {
					j := rng.Intn(int(n))
					if !s.Has(rev1[j][0].UUID) {
						t.Errorf("committed event %s missing", rev1[j][0].UUID)
						return
					}
					if _, err := s.Get(rev1[j][0].UUID); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(r)
	}

	wg.Wait()
	if t.Failed() {
		return
	}

	// Immutability: everything captured mid-run still reads exactly as it
	// did, even though the writer overwrote every UUID afterwards.
	for r, caps := range captures {
		for _, c := range caps {
			if c.event.Info != c.info || c.event.Attributes[0].Value != c.value {
				t.Fatalf("reader %d: captured snapshot mutated: Info=%q (was %q)", r, c.event.Info, c.info)
			}
		}
	}

	// The final state is pass-2 everywhere.
	for i := 0; i < batches; i++ {
		e, err := s.Get(rev1[i][0].UUID)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(e.Info, "rev2-") {
			t.Fatalf("final revision = %q, want rev2", e.Info)
		}
	}
	if s.Len() != batches*batchSize {
		t.Fatalf("Len = %d, want %d", s.Len(), batches*batchSize)
	}
}
