package storage

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
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
		if err := putOne(s, event(t, fmt.Sprintf("p%d", i))); err != nil {
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

// runCompactor runs s.RunCompactor on a goroutine of its own; the
// returned stop ends its context and waits for it to return.
func runCompactor(s *Store) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.RunCompactor(ctx, slog.Default())
	}()
	return func() {
		cancel()
		<-done
	}
}

// TestCompactorSnapshotsPastThreshold: a backlog past CompactAfterOps is
// snapshotted whether it was replayed before the compactor started or
// committed while it ran, and ending its context drains a trigger that
// is still pending — so both counts are exact once RunCompactor
// returns.
func TestCompactorSnapshotsPastThreshold(t *testing.T) {
	for _, tc := range []struct {
		name   string
		before bool // commit before RunCompactor
	}{{"backlog at start", true}, {"commit then stop", false}} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := openTemp(t)
			var stop func()
			if !tc.before {
				stop = runCompactor(s)
			}
			if _, err := s.PutBatch(pastThreshold(t), nil); err != nil {
				t.Fatal(err)
			}
			if tc.before {
				stop = runCompactor(s)
			}
			stop()
			if d := s.Durability(); d.Compactions != 1 || d.WALOps != 0 {
				t.Fatalf("after stop: %+v, want one compaction and an empty backlog", d)
			}
		})
	}
}

// TestCompactorStopsAfterClose: a store closed under a running compactor
// ends it, not spinning on the closed commit channel, without waiting
// for its context.
func TestCompactorStopsAfterClose(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.RunCompactor(context.Background(), slog.Default())
	}()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if d := s.Durability(); d.Compactions != 0 {
		t.Fatalf("compacted a closed store: %+v", d)
	}
}

// TestMemoryCompactorReturnsAtOnce: a memory-only store has no WAL to
// bound, so RunCompactor returns without waiting for its context.
func TestMemoryCompactorReturnsAtOnce(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.RunCompactor(context.Background(), slog.Default())
}

// TestWriteFileAtomic: the file holds the last data written and no
// temporary file is left beside it.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sidecar.json")
	for _, data := range []string{"first\n", "second\n"} {
		if err := WriteFileAtomic(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != data {
			t.Fatalf("read back %q, %v; want %q", got, err, data)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("%d files in the directory, want the sidecar alone", len(entries))
	}
	if err := WriteFileAtomic(filepath.Join(dir, "absent", "x.json"), nil); err == nil {
		t.Fatal("a write into a missing directory succeeded")
	}
}
