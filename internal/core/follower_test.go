package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/storage"
)

var strutsContext = map[string]string{
	"products":    "apache struts,apache",
	"os":          "debian",
	"cvss-vector": "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H",
}

// awaitStored blocks until the store's revision of uuid satisfies cond,
// re-checking at each commit.
func awaitStored(t *testing.T, p *Platform, uuid, what string, cond func(*misp.Event) bool) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		committed := p.store.Committed() // before the read: see Store.Committed
		if me, err := p.TIP().GetEvent(uuid); err == nil && cond(me) {
			return
		}
		select {
		case <-committed:
		case <-deadline:
			t.Fatalf("never: %s (stats %+v)", what, p.Stats())
		}
	}
}

func isEIoC(me *misp.Event) bool { return me.HasTag("caisp:eioc") }

// TestFollowerPassLeavesFlushCommitsAlone: the follower's pass over a
// flush's commits skips its eIoCs and scores its unscorable clusters
// again, which stores, pushes and counts nothing.
func TestFollowerPassLeavesFlushCommitsAlone(t *testing.T) {
	p := newPlatform(t, Config{})
	event := func(value string) normalize.Event {
		e, err := normalize.New(value, normalize.CategoryMalwareDomain, "t", normalize.SourceOSINT, batchTime)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	if _, err := p.flush([]normalize.Event{
		event("first.example"), event("opaque-token-1"), event("second.example"), event("opaque-token-2"),
	}); err != nil {
		t.Fatal(err)
	}
	before, seq := p.Stats(), p.store.Seq()
	if before.EIoCs != 2 || before.Unscorable != 2 {
		t.Fatalf("stats = %+v, want 2 scored and 2 unscorable clusters", before)
	}
	page, next, _, err := p.TIP().ChangesPage(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.analyzePage(page, next); err != nil {
		t.Fatal(err)
	}
	if after := p.Stats(); after != before {
		t.Fatalf("the follower's pass changed the stats: %+v, was %+v", after, before)
	}
	if got := p.store.Seq(); got != seq {
		t.Fatalf("the follower's pass committed %d revisions", got-seq)
	}
}

// TestFollowerScoresACopy: a page holds the store's frozen views; the
// follower scores a copy of a posted cIoC, leaves the page's event as it
// was, and commits the eIoC once.
func TestFollowerScoresACopy(t *testing.T) {
	p := newPlatform(t, Config{})
	posted := clusterOf(t, "CVE-2017-9805", normalize.CategoryVulnExploit, strutsContext)
	if _, err := p.TIP().AddEvent(posted); err != nil {
		t.Fatal(err)
	}
	page, next, _, err := p.TIP().ChangesPage(0, 0)
	if err != nil || len(page) != 1 {
		t.Fatalf("page of %d, %v", len(page), err)
	}
	if err := p.analyzePage(page, next); err != nil {
		t.Fatal(err)
	}
	if _, scored := heuristic.BaseScoreOf(page[0]); scored || page[0].HasTag("caisp:eioc") {
		t.Fatal("the follower scored the store's frozen view in place")
	}
	stored, err := p.TIP().GetEvent(posted.UUID)
	if err != nil {
		t.Fatal(err)
	}
	if _, scored := heuristic.BaseScoreOf(stored); !scored || !stored.HasTag("caisp:eioc") {
		t.Fatalf("the stored revision is not the eIoC: %+v", stored)
	}
	if st := p.Stats(); st.EIoCs != 1 || st.RIoCs != 1 || p.store.Seq() != 2 {
		t.Fatalf("stats %+v, sequence %d: want one eIoC written back", st, p.store.Seq())
	}
}

// TestFollowerRereadsAPageWhoseWriteBackFailed: a page whose eIoCs the
// store installs none of fails, so the follower reads it again rather
// than leave the posted cIoC unscored.
func TestFollowerRereadsAPageWhoseWriteBackFailed(t *testing.T) {
	p := newPlatform(t, Config{DataDir: t.TempDir(), DisableLifecycle: true})
	posted := clusterOf(t, "CVE-2017-9805", normalize.CategoryVulnExploit, strutsContext)
	if _, err := p.TIP().AddEvent(posted); err != nil {
		t.Fatal(err)
	}
	page, next, _, err := p.TIP().ChangesPage(0, 0)
	if err != nil || len(page) != 1 {
		t.Fatalf("page of %d, %v", len(page), err)
	}
	if err := p.store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.analyzePage(page, next); err == nil {
		t.Fatal("a page whose write-back the store refused passed")
	}
	if st := p.Stats(); st.EIoCs != 0 {
		t.Fatalf("stats %+v: an eIoC counted that was not stored", st)
	}
}

// TestStreamingModeScoresARepost: a cIoC posted again after its eIoC was
// written back replaces the eIoC with an unscored revision, and that
// revision is scored too. The analyzer keeps no memory of what it scored.
func TestStreamingModeScoresARepost(t *testing.T) {
	p := newPlatform(t, Config{DisableLifecycle: true})
	if err := p.Start(context.Background(), time.Hour); err != nil {
		t.Fatal(err)
	}
	posted := clusterOf(t, "CVE-2017-9805", normalize.CategoryVulnExploit, strutsContext)
	for _, what := range []string{"the posted cIoC scored", "the re-posted cIoC scored"} {
		if _, err := p.TIP().AddEvent(posted); err != nil {
			t.Fatal(err)
		}
		awaitStored(t, p, posted.UUID, what, isEIoC)
	}
	p.Stop() // the follower has published what it wrote back
	if st := p.Stats(); st.EIoCs != 2 || st.RIoCs != 2 {
		t.Fatalf("stats %+v: want two eIoCs", st)
	}
	stored, err := p.TIP().GetEvent(posted.UUID)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(stored.Attributes) - len(posted.Attributes); n != 1 {
		t.Fatalf("the stored eIoC adds %d attributes to the cIoC, want its one score", n)
	}
}

// TestFollowerDropsADeletedCIoC: a cIoC deleted while the follower scores
// it has its write-back refused as older than the deletion, and the rIoCs
// its score pushed are retracted.
func TestFollowerDropsADeletedCIoC(t *testing.T) {
	clk := &gateClock{Fake: clock.NewFake(batchTime), entered: make(chan struct{})}
	p := newPlatform(t, Config{Clock: clk, DisableLifecycle: true, AnalyzerPool: 1})
	if err := p.Start(context.Background(), time.Hour); err != nil {
		t.Fatal(err)
	}
	held := clusterOf(t, "CVE-2017-9805", normalize.CategoryVulnExploit, strutsContext)
	release := clk.arm()
	if _, err := p.TIP().AddEvent(held); err != nil {
		t.Fatal(err)
	}
	<-clk.entered // the follower is inside held's score
	if err := p.TIP().DeleteEvent(held.UUID); err != nil {
		t.Fatal(err)
	}
	release()
	// Pages run in order: once a later post is scored, held's page is done.
	later := clusterOf(t, "CVE-2018-11776", normalize.CategoryVulnExploit, strutsContext)
	if _, err := p.TIP().AddEvent(later); err != nil {
		t.Fatal(err)
	}
	awaitStored(t, p, later.UUID, "the later cIoC scored", isEIoC)
	p.Stop() // the follower has published what it wrote back

	if _, err := p.TIP().GetEvent(held.UUID); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("the deleted cIoC's write-back was stored: %v", err)
	}
	if st := p.Stats(); st.EIoCs != 1 || st.RIoCs != 2 {
		t.Fatalf("stats %+v: want both scored, one eIoC stored", st)
	}
	for _, r := range p.Dashboard().RIoCs() {
		if r.EventUUID == held.UUID {
			t.Fatalf("the deleted cIoC left rIoC %+v", r)
		}
	}
}
