package feed

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/normalize"
)

// gateFetcher blocks every Fetch until released, counting how many fetches
// are in flight at once. A held Fetch signals arrived first.
type gateFetcher struct {
	data      []byte
	inflight  atomic.Int32
	maxSeen   atomic.Int32
	arrived   chan struct{}
	holdUntil chan struct{}
}

func (f *gateFetcher) Fetch(ctx context.Context) ([]byte, bool, error) {
	cur := f.inflight.Add(1)
	defer f.inflight.Add(-1)
	for {
		max := f.maxSeen.Load()
		if cur <= max || f.maxSeen.CompareAndSwap(max, cur) {
			break
		}
	}
	if f.holdUntil != nil {
		f.arrived <- struct{}{}
		select {
		case <-f.holdUntil:
		case <-ctx.Done():
		}
	}
	return f.data, false, nil
}

func TestPollOnceRunsFeedsInParallel(t *testing.T) {
	const feeds = 4
	release := make(chan struct{})
	gate := &gateFetcher{data: []byte("evil.example\n"), arrived: make(chan struct{}, feeds), holdUntil: release}
	var events sync.Map
	sink := func(batch []normalize.Event) {
		for _, e := range batch {
			events.Store(e.Source+e.Value, true)
		}
	}
	s := NewScheduler(sink, WithConcurrency(feeds))
	for i := 0; i < feeds; i++ {
		err := s.Add(Feed{
			Name: fmt.Sprintf("feed-%d", i), Category: normalize.CategoryMalwareDomain,
			Fetcher: gate, Parser: PlaintextParser{}, Interval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.PollOnce(context.Background())
	}()
	// All four fetches must be in flight simultaneously before release.
	awaitArrivals(t, gate, feeds)
	close(release)
	<-done
	if got := gate.maxSeen.Load(); got != feeds {
		t.Fatalf("max concurrent fetches = %d, want %d", got, feeds)
	}
	stats := s.Stats()
	for i := 0; i < feeds; i++ {
		st := stats[fmt.Sprintf("feed-%d", i)]
		if st.Fetches != 1 || st.Records != 1 || st.Errors != 0 {
			t.Fatalf("feed-%d stats = %+v", i, st)
		}
	}
}

func TestPollOnceConcurrencyBound(t *testing.T) {
	const feeds = 8
	release := make(chan struct{})
	gate := &gateFetcher{data: []byte("a.example\n"), arrived: make(chan struct{}, feeds), holdUntil: release}
	s := NewScheduler(func([]normalize.Event) {}, WithConcurrency(2))
	for i := 0; i < feeds; i++ {
		if err := s.Add(Feed{
			Name: fmt.Sprintf("feed-%d", i), Category: normalize.CategoryMalwareDomain,
			Fetcher: gate, Parser: PlaintextParser{}, Interval: time.Hour,
		}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.PollOnce(context.Background())
	}()
	// Two fetches reach the gate; the pool's own test proves no third
	// worker runs beside them.
	awaitArrivals(t, gate, 2)
	close(release)
	<-done
	if got := gate.maxSeen.Load(); got != 2 {
		t.Fatalf("max concurrent fetches = %d, want the bound 2", got)
	}
}

func TestPollOnceSerialWhenConcurrencyOne(t *testing.T) {
	gate := &gateFetcher{data: []byte("a.example\n")}
	s := NewScheduler(func([]normalize.Event) {}, WithConcurrency(1))
	for i := 0; i < 4; i++ {
		if err := s.Add(Feed{
			Name: fmt.Sprintf("feed-%d", i), Category: normalize.CategoryMalwareDomain,
			Fetcher: gate, Parser: PlaintextParser{}, Interval: time.Hour,
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.PollOnce(context.Background())
	if got := gate.maxSeen.Load(); got != 1 {
		t.Fatalf("serial poll overlapped: max inflight = %d", got)
	}
}

// awaitArrivals waits until n fetches have reached the gate.
func awaitArrivals(t *testing.T, gate *gateFetcher, n int) {
	t.Helper()
	for i := range n {
		select {
		case <-gate.arrived:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d fetches reached the gate", i, n)
		}
	}
}
