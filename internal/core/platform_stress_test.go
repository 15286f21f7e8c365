package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/tip"
)

// TestStreamingStressNoLostEvents drives the full concurrent pipeline —
// parallel feed polling, group-committed storage flushes, the sharded
// analyzer pool — while hammering the TIP with concurrent reads, then
// verifies that every unique collected indicator is queryable in the
// store and that shutdown is clean. Run under -race (`make race`).
func TestStreamingStressNoLostEvents(t *testing.T) {
	const (
		feedCount      = 6
		domainsPerFeed = 40
	)
	feeds := make([]feed.Feed, 0, feedCount)
	values := make([]string, 0, feedCount*domainsPerFeed)
	for i := 0; i < feedCount; i++ {
		var doc strings.Builder
		for j := 0; j < domainsPerFeed; j++ {
			v := fmt.Sprintf("stress-%d-%d.example", i, j)
			values = append(values, v)
			doc.WriteString(v + "\n")
		}
		feeds = append(feeds, feed.Feed{
			Name:     fmt.Sprintf("stress-feed-%d", i),
			Category: normalize.CategoryMalwareDomain,
			Fetcher:  &feed.StaticFetcher{Data: []byte(doc.String())},
			Parser:   feed.PlaintextParser{},
			Interval: 10 * time.Millisecond,
		})
	}
	p := newPlatform(t, Config{
		Feeds:           feeds,
		Clock:           clock.Real(),
		AnalyzerPool:    4,
		FeedConcurrency: 4,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := p.Start(ctx, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// Concurrent TIP readers racing with storage writes and analysis.
	readCtx, stopReaders := context.WithCancel(context.Background())
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; readCtx.Err() == nil; i++ {
				switch i % 3 {
				case 0:
					if _, err := p.TIP().Search(tip.SearchQuery{Tag: "caisp:cioc"}); err != nil {
						t.Errorf("reader %d: search: %v", r, err)
						return
					}
				case 1:
					p.TIP().Len()
				case 2:
					if _, _, _, err := p.TIP().ChangesPage(0, 0); err != nil {
						t.Errorf("reader %d: list: %v", r, err)
						return
					}
				}
			}
		}(r)
	}

	// Let the pipeline churn until every value was committed, in a
	// cluster scored or not, following the change log from commit to
	// commit.
	unseen := make(map[string]bool, len(values))
	for _, v := range values {
		unseen[v] = true
	}
	deadline := time.After(10 * time.Second)
	var cursor uint64
	for {
		committed := p.store.Committed() // before the read: see Store.Committed
		page, next, _, err := p.TIP().ChangesPage(cursor, 0)
		if err != nil {
			t.Fatal(err)
		}
		cursor = next
		for _, me := range page {
			for i := range me.Attributes {
				delete(unseen, me.Attributes[i].Value)
			}
		}
		if len(unseen) == 0 {
			break
		}
		select {
		case <-committed:
		case <-deadline:
			t.Fatalf("pipeline stalled: %d of %d values never committed: %+v", len(unseen), len(values), p.Stats())
		}
	}
	stopReaders()
	readers.Wait()
	p.Stop()

	st := p.Stats()
	if st.EventsUnique != len(values) || st.CIoCs == 0 || st.EIoCs == 0 {
		t.Fatalf("stats = %+v, want %d unique values in scored clusters", st, len(values))
	}
	if st.EventsCollected != st.EventsUnique+st.Duplicates {
		t.Fatalf("collected %d != unique %d + duplicates %d",
			st.EventsCollected, st.EventsUnique, st.Duplicates)
	}
	if st.StoreFailures != 0 {
		t.Fatalf("store failures under stress: %+v", st)
	}
	// A flush scores every cluster it commits, in the same pass: each
	// committed revision is an eIoC or an unscorable cIoC, never one
	// waiting for analysis.
	if st.CIoCs+st.ClusterEdits != st.EIoCs+st.Unscorable {
		t.Fatalf("ciocs %d + cluster_edits %d != eiocs %d + unscorable %d",
			st.CIoCs, st.ClusterEdits, st.EIoCs, st.Unscorable)
	}
	// No lost events: every collected indicator is queryable in the TIP.
	for _, v := range values {
		events, err := p.TIP().Search(tip.SearchQuery{Value: v})
		if err != nil {
			t.Fatal(err)
		}
		if len(events) == 0 {
			t.Fatalf("indicator %q lost between collection and storage", v)
		}
	}
	// Clean shutdown: a second Stop is a no-op and Close succeeds.
	p.Stop()
}

// TestRunBatchParallelMatchesSerial runs the same corpus through a serial
// (AnalyzerPool=1, FeedConcurrency=1) and a parallel platform and expects
// identical pipeline counters — concurrency must not change semantics.
func TestRunBatchParallelMatchesSerial(t *testing.T) {
	corpus := func() []feed.Feed {
		feeds := make([]feed.Feed, 0, 4)
		for i := 0; i < 4; i++ {
			var doc strings.Builder
			for j := 0; j < 25; j++ {
				doc.WriteString(fmt.Sprintf("par-%d-%d.example\n", i, j))
			}
			doc.WriteString("shared.example\n") // cross-feed duplicate
			feeds = append(feeds, feed.Feed{
				Name:     fmt.Sprintf("par-feed-%d", i),
				Category: normalize.CategoryMalwareDomain,
				Fetcher:  &feed.StaticFetcher{Data: []byte(doc.String())},
				Parser:   feed.PlaintextParser{},
				Interval: time.Hour,
			})
		}
		return feeds
	}
	run := func(pool, conc int) Stats {
		p := newPlatform(t, Config{Feeds: corpus(), AnalyzerPool: pool, FeedConcurrency: conc})
		if err := p.RunBatch(context.Background()); err != nil {
			t.Fatal(err)
		}
		return p.Stats()
	}
	serial := run(1, 1)
	parallel := run(4, 4)
	if serial != parallel {
		t.Fatalf("parallel pipeline diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if serial.EventsUnique != 101 || serial.Duplicates != 3 {
		t.Fatalf("corpus accounting off: %+v", serial)
	}
}

// TestComposeAndStorePartialBatch verifies the errors.Join satellite: a
// cIoC that cannot be composed is skipped and counted, the rest of the
// batch still lands.
func TestComposeAndStorePartialBatch(t *testing.T) {
	p := newPlatform(t, Config{})
	good1, err := normalize.New("good-1.example", normalize.CategoryMalwareDomain,
		"t", normalize.SourceOSINT, batchTime)
	if err != nil {
		t.Fatal(err)
	}
	good2, err := normalize.New("good-2.example", normalize.CategoryMalwareDomain,
		"t", normalize.SourceOSINT, batchTime)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := p.flush([]normalize.Event{good1, good2})
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 2 {
		t.Fatalf("stored = %d", len(stored))
	}
	st := p.Stats()
	if st.CIoCs != 2 || st.StoreFailures != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestStatsIntakeSnapshotConsistent: every Stats snapshot taken while
// ingest runs satisfies the intake law collected = unique + duplicates,
// because the three counts are one snapshot of the deduper's decisions.
func TestStatsIntakeSnapshotConsistent(t *testing.T) {
	p := newPlatform(t, Config{})
	batch := make([]normalize.Event, 0, 64)
	for i := range cap(batch) {
		// Every value twice: half the offers are duplicates.
		e, err := normalize.New(fmt.Sprintf("intake-%d.example", i/2), normalize.CategoryMalwareDomain,
			fmt.Sprintf("feed-%d", i%2), normalize.SourceOSINT, batchTime)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, e)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range 2000 {
			p.ingest(batch)
		}
	}()
	snapshots, bad := 0, 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		st := p.Stats()
		snapshots++
		if st.EventsCollected != st.EventsUnique+st.Duplicates {
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d Stats snapshots read collected != unique + duplicates", bad, snapshots)
	}
	if st := p.Stats(); st.EventsCollected != 2000*len(batch) || st.EventsUnique != len(batch)/2 {
		t.Fatalf("intake = %+v", st)
	}
}
