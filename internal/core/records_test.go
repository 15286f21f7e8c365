package core

import (
	"context"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
)

// TestAnalyzerRecordsFollowTheStore: the analyzer keeps a score record
// for exactly the stored clusters whose revision has more than one
// conversion block. A cluster absorbed by a merge is retracted with its
// record, and once the lifecycle engine has expired every cluster
// through its floor, the analyzer holds no record at all.
func TestAnalyzerRecordsFollowTheStore(t *testing.T) {
	defs, push := goldenFeeds(t)
	// Two clusters of two URLs each, then a URL that shares its domain
	// with the first and its campaign with the second: they merge, and
	// the absorbed one had a record.
	bridges := &queueFetcher{}
	bridges.push([]byte("value,campaign\n" +
		"http://m1.alpha.example/a,kx\nhttp://m2.alpha.example/b,kx\n" +
		"http://n1.beta.example/a,ky\nhttp://n2.beta.example/b,ky\n"))
	bridges.push([]byte("value,campaign\nhttp://m3.alpha.example/c,ky\n"))
	defs = append(defs, feed.Feed{Name: "bridges", Category: normalize.CategoryPhishing,
		Fetcher: bridges, Parser: feed.CSVParser{HasHeader: true}, Interval: time.Hour})
	clk := clock.NewFake(batchTime)
	p := newPlatform(t, Config{Feeds: defs, Clock: clk, AnalyzerPool: 1, FeedConcurrency: 1, DisableMetrics: true})
	var stored []*misp.Event
	for r := 0; r < 20; r++ {
		push(r)
		if err := p.RunBatch(context.Background()); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		var err error
		if stored, _, _, err = p.TIP().ChangesPage(0, 0); err != nil {
			t.Fatal(err)
		}
		multi := 0
		for _, me := range stored {
			if misp.Convert(me).Len() > 1 {
				multi++
			}
		}
		if got := p.analyzer.Records(); got != multi || multi == 0 {
			t.Fatalf("round %d: %d records for %d stored clusters of more than one block", r, got, multi)
		}
	}
	if st := p.Stats(); st.ClusterMerges == 0 {
		t.Fatalf("the stream merges no clusters: %+v", st)
	}

	// Ten years on, every policy has decayed every cluster through the
	// floor; each RunOnce takes one batch of the change log.
	expired := 0
	for pass := 0; pass < 100 && p.store.Len() > 0; pass++ {
		res, err := p.Lifecycle().RunOnce(clk.Now().Add(10 * 365 * 24 * time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		expired += res.Expired
	}
	if left := p.store.Len(); left != 0 || expired != len(stored) {
		t.Fatalf("lifecycle expired %d of %d clusters, %d left", expired, len(stored), left)
	}
	if got := p.analyzer.Records(); got != 0 {
		t.Fatalf("%d records after every cluster expired", got)
	}
}
