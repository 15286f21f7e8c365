package lifecycle

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
)

// TestStorePlateausUnderSustainedIngest is the bounded-working-set claim:
// under ingest that never stops, floor expiry holds the store at the
// analytic plateau rate·(1−floor/base)·τ/step, plus at most one cursor
// pass of expiry lag, while total ingest keeps growing. Time is virtual:
// each tick advances the clock one step, ingests a batch stamped at that
// instant and runs one bounded re-score batch.
func TestStorePlateausUnderSustainedIngest(t *testing.T) {
	const (
		ticks = 300
		rate  = 20 // indicators per tick
		step  = time.Hour
		tau   = 60 * time.Hour
		batch = 1024
		base  = 4.0
	)
	s := openStore(t)
	e := New(s, withPolicies(map[string]Policy{
		"scanner": {Tau: tau, Delta: 1},
		"unknown": {Tau: tau, Delta: 1},
	}), withBatchSize(batch))

	// Linear decay (δ = 1) reaches the floor at (1 − floor/base)·τ.
	liveTicks := float64(tau) / float64(step) * (1 - defaultFloor/base)
	if ticks < 1.5*liveTicks {
		t.Fatalf("%d ticks cannot show a plateau with a %.0f-tick live window", ticks, liveTicks)
	}
	plateau := int(liveTicks * rate)
	bound := plateau + (plateau/batch+2)*rate

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	mid, threeQ := ticks/2, 3*ticks/4
	stored := map[int]int{}
	heaps := map[int]uint64{}
	for tick := 1; tick <= ticks; tick++ {
		now := t0.Add(time.Duration(tick) * step)
		events := make([]*misp.Event, rate)
		for i := range events {
			events[i] = eioc(fmt.Sprintf("tick%d-%d", tick, i), "scanner", base, now)
		}
		if _, err := s.PutBatch(events, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := e.RunOnce(now); err != nil {
			t.Fatal(err)
		}
		if tick == mid || tick == threeQ || tick == ticks {
			stored[tick] = s.Len()
			heaps[tick] = heap()
		}
	}

	for _, tick := range []int{mid, threeQ, ticks} {
		if stored[tick] > bound {
			t.Fatalf("tick %d: stored %d exceeds the plateau bound %d (analytic %d)", tick, stored[tick], bound, plateau)
		}
	}
	if drift := float64(stored[ticks]-stored[mid]) / float64(stored[mid]); drift > 0.10 {
		t.Fatalf("store still growing after the plateau: %d → %d (+%.0f%%)", stored[mid], stored[ticks], 100*drift)
	}
	if heaps[ticks] > 2*heaps[mid] {
		t.Fatalf("heap still growing after the plateau: %d → %d bytes", heaps[mid], heaps[ticks])
	}
}
