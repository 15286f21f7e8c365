package lifecycle

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/heuristic"
)

// TestConcurrentRescoreIngestReads drives re-scoring, ingest, point
// reads, a change-log walk and the history API concurrently — the
// interleaving `go test -race` exists for. Correctness bar: no data
// race, no error, and a final full pass leaves every surviving score a
// pure function of its base and age.
func TestConcurrentRescoreIngestReads(t *testing.T) {
	s := openStore(t)
	pols := map[string]Policy{
		"botnet-c2": {Tau: 1000 * time.Hour, Delta: 1},
		"unknown":   {Tau: 1000 * time.Hour, Delta: 1},
	}
	e := New(s, withPolicies(pols), WithFloor(0.01), withBatchSize(16))
	for i := 0; i < 64; i++ {
		if err := s.Put(eioc(fmt.Sprintf("seed-%03d", i), "botnet-c2", 3.0,
			t0.Add(time.Duration(i)*time.Minute))); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 200
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	wg.Add(4)
	go func() { // re-score scheduler
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := e.RunOnce(t0.Add(time.Duration(i) * time.Hour)); err != nil {
				errCh <- err
				return
			}
		}
	}()
	go func() { // concurrent ingest
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			ev := eioc(fmt.Sprintf("live-%03d", i), "botnet-c2", 4.0,
				t0.Add(time.Duration(i)*time.Hour))
			if err := s.Put(ev); err != nil {
				errCh <- err
				return
			}
		}
	}()
	go func() { // point reads + stats
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			_, _, _, _ = s.ChangesPage(0, 32)
			_ = e.Stats()
		}
	}()
	go func() { // history API
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			for _, uuid := range e.Tracked() {
				e.History(uuid)
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Settle: full passes at one instant, then check purity.
	finalNow := t0.Add(2000 * time.Hour)
	fin := New(s, withPolicies(pols), WithFloor(0.01), withBatchSize(10000))
	for i := 0; i < 3; i++ {
		if _, err := fin.RunOnce(finalNow); err != nil {
			t.Fatal(err)
		}
	}
	all, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range all {
		base, ok := heuristic.BaseScoreOf(ev)
		if !ok {
			t.Fatalf("%s lost its base score", ev.Info)
		}
		var seen time.Time
		for i := range ev.Attributes {
			a := &ev.Attributes[i]
			if a.Type == "domain" && a.Timestamp.After(seen) {
				seen = a.Timestamp.Time
			}
		}
		want := quantize(Score(base, finalNow.Sub(seen), pols["botnet-c2"]))
		if d, _ := heuristic.DecayedScoreOf(ev); d != want {
			t.Fatalf("%s decayed=%v want %v", ev.Info, d, want)
		}
	}
}
