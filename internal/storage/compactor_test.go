package storage

import (
	"fmt"
	"log/slog"
	"testing"

	"github.com/caisplatform/caisp/internal/misp"
)

// pastThreshold is one batch of CompactAfterOps+1 distinct events.
func pastThreshold(t *testing.T) []*misp.Event {
	batch := make([]*misp.Event, CompactAfterOps+1)
	for i := range batch {
		batch[i] = event(t, fmt.Sprintf("e%d", i), [2]string{"domain", fmt.Sprintf("h%d.example", i)})
	}
	return batch
}

// TestMemoryStoreCountsNoWALOps: a memory-only store has no log, so no
// write path counts toward the compaction backlog that health checks
// and the compactor read.
func TestMemoryStoreCountsNoWALOps(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 60; i++ {
		if err := s.Put(event(t, fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	batch := []*misp.Event{event(t, "b0"), event(t, "b1")}
	if _, err := s.PutBatch(batch, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteBatch([]Deletion{{UUID: batch[0].UUID, At: now}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if d := s.Durability(); d.WALOps != 0 {
		t.Fatalf("memory store Durability %+v, want no WAL ops", d)
	}
}

// TestCompactorSnapshotsPastThreshold: a backlog past CompactAfterOps is
// snapshotted whether it was replayed before the compactor started or
// committed while it ran, and stop drains a trigger that is still
// pending when it is called — so both counts are exact once stop
// returns.
func TestCompactorSnapshotsPastThreshold(t *testing.T) {
	for _, tc := range []struct {
		name   string
		before bool // commit before StartCompactor
	}{{"backlog at start", true}, {"commit then stop", false}} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := openTemp(t)
			var stop func()
			if !tc.before {
				stop = s.StartCompactor(slog.Default())
			}
			if _, err := s.PutBatch(pastThreshold(t), nil); err != nil {
				t.Fatal(err)
			}
			if tc.before {
				stop = s.StartCompactor(slog.Default())
			}
			stop()
			stop() // idempotent
			if d := s.Durability(); d.Compactions != 1 || d.WALOps != 0 {
				t.Fatalf("after stop: %+v, want one compaction and an empty backlog", d)
			}
		})
	}
}

// TestCompactorStopsAfterClose: a store closed under a running compactor
// leaves it parked, not spinning on the closed commit channel, and stop
// still returns.
func TestCompactorStopsAfterClose(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stop := s.StartCompactor(slog.Default())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	stop()
	if d := s.Durability(); d.Compactions != 0 {
		t.Fatalf("compacted a closed store: %+v", d)
	}
}
