package storage

import (
	"fmt"
	"testing"

	"github.com/caisplatform/caisp/internal/misp"
)

func TestPutBatchStoresAndIndexes(t *testing.T) {
	s, _ := openTemp(t)
	batch := []*misp.Event{
		event(t, "a", [2]string{"domain", "a.example"}),
		event(t, "b", [2]string{"domain", "b.example"}),
		event(t, "c", [2]string{"ip-dst", "203.0.113.9"}),
	}
	if _, err := s.PutBatch(batch, nil); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if n := s.Durability().WALOps; n != 3 {
		t.Fatalf("wal ops = %d", n)
	}
	hits, err := s.SearchValue("b.example")
	if err != nil || len(hits) != 1 || hits[0].UUID != batch[1].UUID {
		t.Fatalf("indexed lookup after batch: %d, %v", len(hits), err)
	}
}

func TestPutBatchIsAllOrNothing(t *testing.T) {
	s, _ := openTemp(t)
	batch := []*misp.Event{event(t, "good", [2]string{"domain", "good.example"}), nil}
	if _, err := s.PutBatch(batch, nil); err == nil {
		t.Fatal("nil event accepted")
	}
	if n := s.Durability().WALOps; s.Len() != 0 || n != 0 {
		t.Fatalf("partial batch applied: len=%d walops=%d", s.Len(), n)
	}
	if _, err := s.PutBatch(nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestPutBatchIsolatesCaller(t *testing.T) {
	s, _ := openTemp(t)
	e := event(t, "evt", [2]string{"domain", "before.example"})
	if _, err := s.PutBatch([]*misp.Event{e}, nil); err != nil {
		t.Fatal(err)
	}
	// Mutating the caller's event after the batch must not leak into the
	// stored copy (PutBatch clones, like Put).
	e.Attributes[0].Value = "after.example"
	got, err := s.Get(e.UUID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Attributes[0].Value != "before.example" {
		t.Fatalf("stored copy mutated through caller: %q", got.Attributes[0].Value)
	}
}

func TestPutBatchDurableAcrossRestart(t *testing.T) {
	s, dir := openTemp(t, WithSync(true))
	batch := make([]*misp.Event, 20)
	for i := range batch {
		batch[i] = event(t, fmt.Sprintf("evt-%d", i),
			[2]string{"domain", fmt.Sprintf("h%d.example", i)})
	}
	if _, err := s.PutBatch(batch, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(batch) {
		t.Fatalf("after replay: %d events, want %d", re.Len(), len(batch))
	}
	for _, e := range batch {
		if _, err := re.Get(e.UUID); err != nil {
			t.Fatalf("event %s lost: %v", e.UUID, err)
		}
	}
}

func TestPutBatchReplacesExisting(t *testing.T) {
	s, _ := openTemp(t)
	e := event(t, "original", [2]string{"domain", "old.example"})
	if err := putOne(s, e); err != nil {
		t.Fatal(err)
	}
	update := event(t, "updated", [2]string{"domain", "new.example"})
	update.UUID = e.UUID
	if _, err := s.PutBatch([]*misp.Event{update}, nil); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	if hits, _ := s.SearchValue("old.example"); len(hits) != 0 {
		t.Fatal("stale index entry survived batch replace")
	}
	if hits, _ := s.SearchValue("new.example"); len(hits) != 1 {
		t.Fatal("replacement not indexed")
	}
}
