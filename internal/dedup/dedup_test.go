package dedup

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/caisplatform/caisp/internal/normalize"
)

var seen = time.Date(2019, 6, 24, 10, 0, 0, 0, time.UTC)

func mustEvent(t testing.TB, value, source string, at time.Time) normalize.Event {
	t.Helper()
	e, err := normalize.New(value, normalize.CategoryMalwareDomain, source, normalize.SourceOSINT, at)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestOfferAdmitsNewAndFoldsDuplicates(t *testing.T) {
	d := New()
	a := mustEvent(t, "evil.example", "feed-a", seen)
	stored, isNew := d.Offer(a)
	if !isNew {
		t.Fatal("first offer reported duplicate")
	}
	if stored.ID != a.ID {
		t.Fatalf("stored id %s, want %s", stored.ID, a.ID)
	}

	dup := mustEvent(t, "EVIL[.]example", "feed-b", seen.Add(3*time.Hour))
	merged, isNew := d.Offer(dup)
	if isNew {
		t.Fatal("duplicate admitted as new")
	}
	if !merged.LastSeen.Equal(seen.Add(3 * time.Hour)) {
		t.Fatalf("window not merged: %+v", merged)
	}
	if got := merged.Sources(); len(got) != 2 {
		t.Fatalf("sources not merged: %v", got)
	}

	stats := d.Stats()
	if stats.Seen != 2 || stats.Unique != 1 || stats.Duplicates != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// A duplicate answers with the retained event, the first offer's.
	if merged.ID != a.ID || merged.Value != "evil.example" {
		t.Fatalf("duplicate answered with %+v, want the retained %s", merged, a.ID)
	}
}

func TestOfferDistinctValues(t *testing.T) {
	d := New()
	for i := 0; i < 100; i++ {
		e := mustEvent(t, fmt.Sprintf("host-%d.example", i), "feed", seen)
		if _, isNew := d.Offer(e); !isNew {
			t.Fatalf("distinct event %d reported duplicate", i)
		}
	}
	if got := d.Stats().Unique; got != 100 {
		t.Fatalf("Unique = %d, want 100", got)
	}
	if got := d.Stats().ReductionRatio(); got != 0 {
		t.Fatalf("ReductionRatio = %f, want 0", got)
	}
}

func TestReductionRatio(t *testing.T) {
	d := New()
	e := mustEvent(t, "evil.example", "feed", seen)
	d.Offer(e)
	for i := 0; i < 9; i++ {
		d.Offer(mustEvent(t, "evil.example", fmt.Sprintf("feed-%d", i), seen))
	}
	if got := d.Stats().ReductionRatio(); got != 0.9 {
		t.Fatalf("ReductionRatio = %f, want 0.9", got)
	}
	var zero Stats
	if zero.ReductionRatio() != 0 {
		t.Fatal("empty stats ratio non-zero")
	}
}

// TestOfferReturnsCopy: what Offer hands out does not alias the
// retained event.
func TestOfferReturnsCopy(t *testing.T) {
	d := New()
	first, _ := d.Offer(mustEvent(t, "evil.example", "feed", seen))
	first.Value = "mutated"
	again, isNew := d.Offer(mustEvent(t, "evil.example", "feed", seen))
	if isNew || again.Value != "evil.example" {
		t.Fatalf("second offer = %+v, new %v: the first offer's copy aliases the retained event", again, isNew)
	}
}

// TestDeduperWithoutBloom checks that the exact ID set alone decides
// admission and keeps the counters consistent.
func TestDeduperWithoutBloom(t *testing.T) {
	d := New()
	e := mustEvent(t, "evil.example", "feed", seen)
	if _, isNew := d.Offer(e); !isNew {
		t.Fatal("first offer duplicate")
	}
	if _, isNew := d.Offer(e); isNew {
		t.Fatal("second offer new")
	}
	if stats := d.Stats(); stats != (Stats{Seen: 2, Unique: 1, Duplicates: 1}) {
		t.Fatalf("Stats = %+v, want 2 seen, 1 unique, 1 duplicate", stats)
	}
}

func TestDeduperConcurrent(t *testing.T) {
	d := New()
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Every goroutine offers the same 100 values repeatedly.
				e := mustEvent(t, fmt.Sprintf("host-%d.example", i%100), fmt.Sprintf("feed-%d", g), seen)
				d.Offer(e)
			}
		}(g)
	}
	wg.Wait()
	stats := d.Stats()
	if stats.Seen != goroutines*perG {
		t.Fatalf("Seen = %d, want %d", stats.Seen, goroutines*perG)
	}
	if stats.Unique != 100 {
		t.Fatalf("Unique = %d, want 100", stats.Unique)
	}
}

func TestOfferIdempotencyQuick(t *testing.T) {
	// Property: offering any event twice never increases Unique twice.
	d := New()
	f := func(host uint16) bool {
		e := mustEvent(t, fmt.Sprintf("h%d.example", host), "feed", seen)
		before := d.Stats().Unique
		_, first := d.Offer(e)
		_, second := d.Offer(e)
		after := d.Stats().Unique
		if second {
			return false // second offer must never be "new"
		}
		if first && after != before+1 {
			return false
		}
		if !first && after != before {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
