package storage

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
)

// feedView is everything a reader can learn from a store: the change
// feed with sequences and deletion times, the live listing in change-log
// order and the live set.
type feedView struct {
	Changes []string
	Listed  []string
	Live    map[string]int64
	Seq     uint64
}

func viewOf(t *testing.T, s *Store) feedView {
	t.Helper()
	v := feedView{Live: map[string]int64{}, Seq: s.Seq()}
	changes, _ := drainFullChanges(t, s, 0, 7)
	for _, c := range changes {
		v.Changes = append(v.Changes, fmt.Sprintf("%d %s live=%v at=%d", c.Seq, c.UUID, c.Event != nil, c.DeletedAt.Unix()))
	}
	listed, _, _, err := s.ChangesPage(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range listed {
		v.Listed = append(v.Listed, e.UUID)
	}
	all, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range all {
		v.Live[e.UUID] = e.Timestamp.Unix()
	}
	return v
}

// TestDeleteBatchEqualsDeleteAtLoop: a batch leaves exactly what a loop
// of DeleteAt leaves — feed, live listing, live set, sequences — before and
// after recovery, skipping absent and repeated UUIDs as the loop's
// ErrNotFound does.
func TestDeleteBatchEqualsDeleteAtLoop(t *testing.T) {
	events := make([]*misp.Event, 40)
	for i := range events {
		events[i] = event(t, fmt.Sprintf("e%d", i), [2]string{"domain", fmt.Sprintf("d%d.example", i%7)})
		events[i].Timestamp = misp.UT(now.Add(time.Duration(i*37%11) * time.Second)) // ties and disorder in timestamp order
	}
	var dels []Deletion
	for i := 0; i < len(events); i += 3 {
		dels = append(dels, Deletion{UUID: events[len(events)-1-i].UUID, At: now.Add(time.Hour + time.Duration(i)*time.Minute)})
	}
	dels = append(dels, Deletion{UUID: "00000000-0000-4000-8000-00000000dead", At: now}, dels[2])
	resurrect := events[len(events)-1].Clone() // stamped before its deletion time: must stay dead
	revive := events[len(events)-4].Clone()
	revive.Timestamp = misp.UT(now.Add(24 * time.Hour))

	run := func(batch bool) (feedView, feedView) {
		s, dir := openTemp(t)
		if _, err := s.PutBatch(events, nil); err != nil {
			t.Fatal(err)
		}
		if batch {
			n, err := s.DeleteBatch(dels)
			if err != nil || n != len(dels)-2 {
				t.Fatalf("DeleteBatch = %d, %v; want %d", n, err, len(dels)-2)
			}
		} else {
			for _, d := range dels {
				if err := s.DeleteAt(d.UUID, d.At); err != nil && !errors.Is(err, ErrNotFound) {
					t.Fatal(err)
				}
			}
		}
		if _, err := s.PutBatch([]*misp.Event{resurrect, revive}, nil); err != nil {
			t.Fatal(err)
		}
		live := viewOf(t, s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		return live, viewOf(t, r)
	}
	loopLive, loopRecovered := run(false)
	batchLive, batchRecovered := run(true)
	if !reflect.DeepEqual(batchLive, loopLive) {
		t.Errorf("live state differs:\nbatch %+v\n loop %+v", batchLive, loopLive)
	}
	if !reflect.DeepEqual(batchRecovered, loopRecovered) {
		t.Errorf("recovered state differs:\nbatch %+v\n loop %+v", batchRecovered, loopRecovered)
	}
	if !reflect.DeepEqual(batchRecovered, batchLive) {
		t.Errorf("recovery changed the batch store:\nbefore %+v\n after %+v", batchLive, batchRecovered)
	}
	if len(batchLive.Live) != len(events)-(len(dels)-2)+1 {
		t.Errorf("%d events live, want %d", len(batchLive.Live), len(events)-(len(dels)-2)+1)
	}
}

// TestDeleteBatchIsAllOrNothingAcrossCrash cuts the WAL inside a delete
// group: without the group's commit frame recovery replays none of it.
func TestDeleteBatchIsAllOrNothingAcrossCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	events := make([]*misp.Event, 10)
	for i := range events {
		events[i] = event(t, fmt.Sprintf("e%d", i))
	}
	if _, err := s.PutBatch(events, nil); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	before := segs[0].size
	var dels []Deletion
	for _, e := range events[:6] {
		dels = append(dels, Deletion{UUID: e.UUID, At: now})
	}
	if n, err := s.DeleteBatch(dels); err != nil || n != 6 {
		t.Fatalf("DeleteBatch = %d, %v", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	after := int64(len(wal))
	for _, cut := range []int64{before, before + 1, (before + after) / 2, after - 1, after} {
		if err := os.WriteFile(segs[0].path, wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		want := len(events)
		if cut == after {
			want -= len(dels)
		}
		if r.Len() != want {
			t.Errorf("cut at %d of %d..%d: %d events recovered, want %d", cut, before, after, r.Len(), want)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
