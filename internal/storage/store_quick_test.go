package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
)

// TestRandomOpsReplayEquivalence drives the store with random put/delete
// sequences and verifies that closing and reopening reproduces exactly the
// same state — the WAL replay invariant.
func TestRandomOpsReplayEquivalence(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			base := time.Date(2019, 6, 24, 0, 0, 0, 0, time.UTC)
			var live []string
			for op := 0; op < 200; op++ {
				switch {
				case len(live) > 0 && r.Intn(4) == 0: // delete
					idx := r.Intn(len(live))
					if err := s.Delete(live[idx]); err != nil {
						t.Fatal(err)
					}
					live = append(live[:idx], live[idx+1:]...)
				case len(live) > 0 && r.Intn(4) == 0: // update
					e := misp.NewEvent(fmt.Sprintf("updated-%d", op), base.Add(time.Duration(op)*time.Minute))
					e.UUID = live[r.Intn(len(live))]
					e.AddAttribute("domain", "Network activity", fmt.Sprintf("u%d.example", op), base)
					if err := putOne(s, e); err != nil {
						t.Fatal(err)
					}
				default: // insert
					e := misp.NewEvent(fmt.Sprintf("evt-%d", op), base.Add(time.Duration(op)*time.Minute))
					e.AddAttribute("domain", "Network activity", fmt.Sprintf("h%d.example", op), base)
					if err := putOne(s, e); err != nil {
						t.Fatal(err)
					}
					live = append(live, e.UUID)
				}
				// Occasionally compact mid-stream.
				if op%67 == 66 {
					if err := s.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}
			before, err := s.All()
			if err != nil {
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
			after, err := s2.All()
			if err != nil {
				t.Fatal(err)
			}
			if len(before) != len(after) {
				t.Fatalf("replay size %d, want %d", len(after), len(before))
			}
			for i := range before {
				if !reflect.DeepEqual(before[i], after[i]) {
					t.Fatalf("event %d differs after replay:\n%+v\n%+v", i, before[i], after[i])
				}
			}
			// Secondary indexes answer identically after replay.
			for _, e := range after {
				for _, a := range e.Attributes {
					hits, err := s2.SearchValue(a.Value)
					if err != nil || len(hits) == 0 {
						t.Fatalf("index lookup of %q after replay: %d hits, %v", a.Value, len(hits), err)
					}
				}
			}
		})
	}
}
