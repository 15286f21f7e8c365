package core

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/normalize"
)

// awaitEIoCs follows the platform's change log until n scored events
// have been committed and returns the indicator values they carry.
func awaitEIoCs(t *testing.T, p *Platform, n int) map[string]bool {
	t.Helper()
	values := map[string]bool{}
	timeout := time.After(10 * time.Second)
	var cursor uint64
	for {
		committed := p.store.Committed() // before the read: see Store.Committed
		page, next, _, err := p.TIP().ChangesPage(cursor, 0)
		if err != nil {
			t.Fatal(err)
		}
		cursor = next
		for _, me := range page {
			if !me.HasTag("caisp:eioc") {
				continue
			}
			for i := range me.Attributes {
				values[me.Attributes[i].Value] = true
			}
			n--
		}
		if n <= 0 {
			return values
		}
		select {
		case <-committed:
		case <-timeout:
			t.Fatalf("still waiting for %d eIoCs; the frozen clock never reaches a flush tick", n)
		}
	}
}

// TestFlushOnPollArrival: on a clock that never advances, a document the
// scheduler's first poll delivers is composed, stored, dispatched and
// scored. Only the poll landing can have triggered that flush.
func TestFlushOnPollArrival(t *testing.T) {
	p := newPlatform(t, Config{Feeds: []feed.Feed{advisoryFeed(strutsAdvisory)}})
	if err := p.Start(context.Background(), time.Hour); err != nil {
		t.Fatal(err)
	}
	if got := awaitEIoCs(t, p, 1); !got["CVE-2017-9805"] {
		t.Fatalf("scored event carries %v", got)
	}
	p.Stop()
	if st := p.Stats(); st.CIoCs != 1 || st.EIoCs != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// gateClock is a frozen clock whose next Now call, once armed, announces
// itself and blocks until released: a flush reads the clock first when it
// composes, which lets a test hold a flush in progress.
type gateClock struct {
	*clock.Fake
	mu      sync.Mutex
	gate    chan struct{}
	entered chan struct{}
}

func (c *gateClock) arm() (release func()) {
	gate := make(chan struct{})
	c.mu.Lock()
	c.gate = gate
	c.mu.Unlock()
	return func() { close(gate) }
}

func (c *gateClock) Now() time.Time {
	c.mu.Lock()
	gate := c.gate
	c.gate = nil
	c.mu.Unlock()
	if gate != nil {
		c.entered <- struct{}{}
		<-gate
	}
	return c.Fake.Now()
}

func poll(t *testing.T, n int) []normalize.Event {
	t.Helper()
	e, err := normalize.New(fmt.Sprintf("poll%d.example", n), normalize.CategoryMalwareDomain,
		"test", normalize.SourceOSINT, batchTime)
	if err != nil {
		t.Fatal(err)
	}
	return []normalize.Event{e}
}

// TestPollsDuringAFlushShareTheNext: two polls that land while a flush is
// in progress neither block nor get lost, and are taken by one further
// flush, not one each.
func TestPollsDuringAFlushShareTheNext(t *testing.T) {
	clk := &gateClock{Fake: clock.NewFake(batchTime), entered: make(chan struct{})}
	p := newPlatform(t, Config{Clock: clk, DisableLifecycle: true})
	if err := p.Start(context.Background(), time.Hour); err != nil {
		t.Fatal(err)
	}
	release := clk.arm()
	p.ingest(poll(t, 1))
	<-clk.entered // the flusher is inside the first flush
	p.ingest(poll(t, 2))
	p.ingest(poll(t, 3))
	release()
	got := awaitEIoCs(t, p, 3)
	for n := 1; n <= 3; n++ {
		if v := fmt.Sprintf("poll%d.example", n); !got[v] {
			t.Fatalf("%s was never scored: %v", v, got)
		}
	}
	p.Stop() // the flusher has exited: every flush it ran has been observed
	if flushes := p.flushDur.Snapshot().Count; flushes != 2 {
		t.Fatalf("%d flushes for one poll plus two during it, want 2", flushes)
	}
}

// TestStopFlushesWhatArrivedDuringTheLastFlush: a poll that lands while
// the flusher is busy and is still pending when Stop cancels it is
// stored by Stop's own final flush.
func TestStopFlushesWhatArrivedDuringTheLastFlush(t *testing.T) {
	clk := &gateClock{Fake: clock.NewFake(batchTime), entered: make(chan struct{})}
	p := newPlatform(t, Config{Clock: clk, DisableLifecycle: true})
	if err := p.Start(context.Background(), time.Hour); err != nil {
		t.Fatal(err)
	}
	release := clk.arm()
	p.ingest(poll(t, 1))
	<-clk.entered
	p.ingest(poll(t, 2))
	stopped := make(chan struct{})
	go func() {
		p.Stop()
		close(stopped)
	}()
	release()
	<-stopped
	if st := p.Stats(); st.CIoCs != 2 {
		t.Fatalf("after Stop: %+v, want both polls stored", st)
	}
}

// TestFanOutVisitsEachIndexOnce: serial and pooled, fewer items than
// workers and more.
func TestFanOutVisitsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		node := &Node{pool: workers}
		for _, n := range []int{0, 1, 3, 100} {
			hits := make([]atomic.Int32, n)
			node.fanOut(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestStartIsOncePerPlatform: a Start after Stop fails, and it fails
// before it launches anything, so no goroutine of it outlives the call.
func TestStartIsOncePerPlatform(t *testing.T) {
	p := newPlatform(t, Config{Feeds: []feed.Feed{advisoryFeed(strutsAdvisory)}, DisableLifecycle: true})
	if err := p.Start(context.Background(), time.Hour); err != nil {
		t.Fatal(err)
	}
	p.Stop()
	baseline := runtime.NumGoroutine()
	if err := p.Start(context.Background(), time.Hour); err == nil {
		t.Fatal("Start after Stop accepted")
	}
	// A goroutine launched and then stopped would be gone within the
	// deadline; one left running keeps the count above the baseline.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the refused Start, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFlushStoresAlikeOnAnyPool: the flush composes its clusters on the
// pool, and a platform with one goroutine and one with the default pool
// store the same revisions from the same polls, in delta order, attribute
// UUIDs aside, and count the same clusters.
func TestFlushStoresAlikeOnAnyPool(t *testing.T) {
	run := func(pool int) ([]string, Stats) {
		defs, push := goldenFeeds(t)
		p := newPlatform(t, Config{Feeds: defs, AnalyzerPool: pool, FeedConcurrency: 1, DisableMetrics: true})
		var revisions []string
		var cursor uint64
		for r := 0; r < 12; r++ {
			push(r)
			if err := p.RunBatch(context.Background()); err != nil {
				t.Fatalf("pool %d, round %d: %v", pool, r, err)
			}
			page, next, _, err := p.TIP().ChangesPage(cursor, 0)
			if err != nil {
				t.Fatal(err)
			}
			cursor = next
			for _, me := range page {
				raw, err := json.Marshal(me)
				if err != nil {
					t.Fatal(err)
				}
				revisions = append(revisions, fmt.Sprintf("round %d %s", r, canonical(t, raw, nil)))
			}
		}
		return revisions, p.Stats()
	}
	serial, serialStats := run(1)
	pooled, pooledStats := run(0)
	if len(serial) == 0 || serialStats.ClusterEdits == 0 {
		t.Fatalf("the stream grows no cluster: %d revisions, %+v", len(serial), serialStats)
	}
	for i := range max(len(serial), len(pooled)) {
		if i >= len(serial) || i >= len(pooled) || serial[i] != pooled[i] {
			t.Fatalf("revision %d of %d/%d differs on the default pool", i, len(serial), len(pooled))
		}
	}
	type counts struct{ ciocs, edits, failures int }
	if s, p := (counts{serialStats.CIoCs, serialStats.ClusterEdits, serialStats.StoreFailures}),
		(counts{pooledStats.CIoCs, pooledStats.ClusterEdits, pooledStats.StoreFailures}); s != p {
		t.Fatalf("pool of 1 counts %+v, default pool %+v", s, p)
	}
}
