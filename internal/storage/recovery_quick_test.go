package storage

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"github.com/caisplatform/caisp/internal/misp"
)

// storeState captures the logical store content at one commit point:
// each live event's canonical JSON, so a replay that drops, reorders or
// alters an attribute shows.
type storeState map[string]string // uuid -> json.Marshal of the event

func captureState(t *testing.T, s *Store) storeState {
	t.Helper()
	all, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	st := make(storeState, len(all))
	for _, e := range all {
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		st[e.UUID] = string(data)
	}
	return st
}

func statesEqual(a, b storeState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// runRandomWorkload drives a seeded mix of Put, PutBatch, Delete, update,
// grow, rescore and Compact against a store with tiny segments,
// recording the logical state after every commit point. Grow and rescore
// revise stored events, so their frames are patches. It returns the
// recorded states (states[0] is the empty store) and leaves the store
// closed, its final segment holding at least the last commit.
func runRandomWorkload(t *testing.T, dir string, rng *rand.Rand, ops int) []storeState {
	t.Helper()
	s, err := Open(dir, withSegmentSize(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	states := []storeState{{}}
	var live []string
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(12); {
		case r < 4: // single put
			e := event(t, fmt.Sprintf("put-%d", i), [2]string{"domain", fmt.Sprintf("p%d.example", i)})
			if err := putOne(s, e); err != nil {
				t.Fatal(err)
			}
			live = append(live, e.UUID)
		case r < 7: // batch put, all-or-nothing
			n := 2 + rng.Intn(4)
			batch := make([]*misp.Event, n)
			for j := range batch {
				batch[j] = event(t, fmt.Sprintf("batch-%d-%d", i, j), [2]string{"domain", fmt.Sprintf("b%d-%d.example", i, j)})
			}
			if _, err := s.PutBatch(batch, nil); err != nil {
				t.Fatal(err)
			}
			for _, e := range batch {
				live = append(live, e.UUID)
			}
		case r < 8 && len(live) > 0: // update an existing event in place
			uuid := live[rng.Intn(len(live))]
			if s.Has(uuid) {
				e := event(t, fmt.Sprintf("update-%d", i), [2]string{"domain", fmt.Sprintf("u%d.example", i)})
				e.UUID = uuid
				if err := putOne(s, e); err != nil {
					t.Fatal(err)
				}
			}
		case r < 9 && len(live) > 0: // delete
			uuid := live[rng.Intn(len(live))]
			if s.Has(uuid) {
				if err := s.Delete(uuid); err != nil {
					t.Fatal(err)
				}
			}
		case r < 10 && len(live) > 0: // grow up to three events in one batch, the flush's shape
			var batch []*misp.Event
			for j, n := 0, 1+rng.Intn(3); j < n; j++ {
				uuid := live[rng.Intn(len(live))]
				if slices.ContainsFunc(batch, func(e *misp.Event) bool { return e.UUID == uuid }) {
					continue
				}
				if e, err := s.GetClone(uuid); err == nil {
					for k, n := 0, 1+rng.Intn(3); k < n; k++ {
						e.AddAttribute("domain", "Network activity", fmt.Sprintf("g%d-%d-%d.example", i, j, k), now)
					}
					batch = append(batch, e)
				}
			}
			if _, err := s.PutBatch(batch, nil); err != nil {
				t.Fatal(err)
			}
		case r < 11 && len(live) > 0: // rescore: one attribute's value changes
			if e, err := s.GetClone(live[rng.Intn(len(live))]); err == nil {
				e.Attributes[rng.Intn(len(e.Attributes))].Value = fmt.Sprintf("decayed-score:%d", i)
				if err := putOne(s, e); err != nil {
					t.Fatal(err)
				}
			}
		default: // checkpoint
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		states = append(states, captureState(t, s))
	}
	if s.wal.size == 0 {
		// The last commit sealed the active segment (or the last op was
		// a checkpoint): one more put leaves a final segment to cut.
		if err := putOne(s, event(t, "last", [2]string{"domain", "last.example"})); err != nil {
			t.Fatal(err)
		}
		states = append(states, captureState(t, s))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return states
}

// assertPrefixState reopens the store and requires its content to equal
// one of the recorded commit points — the per-op (and per-batch)
// atomicity property: a crash may lose a suffix of commits, never a
// middle slice or a partial batch.
func assertPrefixState(t *testing.T, dir string, states []storeState, context string) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("%s: reopen failed: %v", context, err)
	}
	defer s.Close()
	got := captureState(t, s)
	for i := len(states) - 1; i >= 0; i-- {
		if statesEqual(got, states[i]) {
			return
		}
	}
	t.Fatalf("%s: recovered state (%d events) matches no commit point", context, len(got))
}

// TestCrashRecoveryTruncatedTail truncates the active WAL segment at
// arbitrary byte offsets — simulating a crash mid-write — and checks
// that recovery always lands exactly on a committed prefix.
func TestCrashRecoveryTruncatedTail(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			dir := t.TempDir()
			states := runRandomWorkload(t, dir, rng, 60)
			segs, err := listSegments(dir)
			if err != nil || len(segs) == 0 {
				t.Fatalf("no wal segments: %v", err)
			}
			last := segs[len(segs)-1]
			if last.size == 0 {
				t.Skip("final segment empty after workload")
			}
			cut := int64(rng.Intn(int(last.size)))
			if err := os.Truncate(last.path, cut); err != nil {
				t.Fatal(err)
			}
			assertPrefixState(t, dir, states, fmt.Sprintf("truncate at %d/%d", cut, last.size))
		})
	}
}

// TestCrashRecoveryCorruptedByte flips one byte at an arbitrary offset
// in an arbitrary segment. Recovery must either refuse to open (detected
// corruption) or — when the flip lands in the reparable tail — recover a
// committed prefix. It must never silently produce a state that was
// never committed.
func TestCrashRecoveryCorruptedByte(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(2000 + trial)))
			dir := t.TempDir()
			states := runRandomWorkload(t, dir, rng, 60)
			segs, err := listSegments(dir)
			if err != nil || len(segs) == 0 {
				t.Fatalf("no wal segments: %v", err)
			}
			nonEmpty := segs[:0]
			for _, sg := range segs {
				if sg.size > 0 {
					nonEmpty = append(nonEmpty, sg)
				}
			}
			if len(nonEmpty) == 0 {
				t.Skip("all segments empty after workload")
			}
			seg := nonEmpty[rng.Intn(len(nonEmpty))]
			data, err := os.ReadFile(seg.path)
			if err != nil {
				t.Fatal(err)
			}
			off := rng.Intn(len(data))
			data[off] ^= 1 << uint(rng.Intn(8))
			if err := os.WriteFile(seg.path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir)
			if err != nil {
				return // detected corruption: the honest outcome
			}
			got := captureState(t, s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			for i := len(states) - 1; i >= 0; i-- {
				if statesEqual(got, states[i]) {
					return
				}
			}
			t.Fatalf("flip at %s:%d silently recovered a state that was never committed", seg.path, off)
		})
	}
}
