package lifecycle

import (
	"fmt"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
)

// benchEngine preloads n scored indicators (sightings spread over the
// first half of τ so nothing expires) and warms the decayed scores, so
// the measured passes are pure scans.
func benchEngine(b *testing.B, n int) (*Engine, time.Time) {
	b.Helper()
	s := openStore(b)
	pols := map[string]Policy{
		"botnet-c2": {Tau: 1000 * time.Hour, Delta: 1},
		"unknown":   {Tau: 1000 * time.Hour, Delta: 1},
	}
	const chunk = 1024
	for off := 0; off < n; off += chunk {
		m := min(chunk, n-off)
		batch := make([]*misp.Event, m)
		for i := range batch {
			seen := t0.Add(time.Duration(int64(500*time.Hour) * int64(off+i) / int64(n)))
			batch[i] = eioc(fmt.Sprintf("b-%06d", off+i), "botnet-c2", 4.0, seen)
		}
		if _, err := s.PutBatch(batch, nil); err != nil {
			b.Fatal(err)
		}
	}
	now := t0.Add(500 * time.Hour)
	// One batch as large as the store warms every score in one run.
	warm := New(s, WithPolicies(pols), WithBatchSize(n))
	if _, err := warm.RunOnce(now); err != nil {
		b.Fatal(err)
	}
	e := New(s, WithPolicies(pols), WithBatchSize(512))
	return e, now
}

// BenchmarkIncrementalPass measures one bounded re-score run: the
// O(batch) steady-state cost of the production scheduler.
func BenchmarkIncrementalPass(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("events-%d", n), func(b *testing.B) {
			e, now := benchEngine(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.RunOnce(now); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
