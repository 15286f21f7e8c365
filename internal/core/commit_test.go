package core

import (
	"context"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/storage"
)

// TestRunBatchCommitsEachClusterOnce: a RunBatch that opens some clusters
// and grows others advances the store's sequence by exactly one revision
// per new or updated cluster — the scored eIoC, not a cIoC followed by
// its write-back.
func TestRunBatchCommitsEachClusterOnce(t *testing.T) {
	domains := &queueFetcher{}
	p := newPlatform(t, Config{Feeds: []feed.Feed{{
		Name:     "domains",
		Category: normalize.CategoryMalwareDomain,
		Fetcher:  domains,
		Parser:   feed.PlaintextParser{},
		Interval: time.Hour,
	}}})
	rounds := []string{
		"a.camp1.example\nb.camp2.example\n",
		"c.camp1.example\nd.camp3.example\n", // grows camp1, opens camp3
	}
	for r, doc := range rounds {
		domains.push([]byte(doc))
		before, seq := p.Stats(), p.TIP().StoreSeq()
		if err := p.RunBatch(context.Background()); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		after := p.Stats()
		clusters := after.CIoCs + after.ClusterEdits - before.CIoCs - before.ClusterEdits
		if got := p.TIP().StoreSeq() - seq; got != uint64(clusters) {
			t.Fatalf("round %d: store sequence advanced %d for %d new or updated clusters", r, got, clusters)
		}
		if after.EIoCs+after.Unscorable != after.CIoCs+after.ClusterEdits {
			t.Fatalf("round %d: not every committed cluster was scored once: %+v", r, after)
		}
	}
	if st := p.Stats(); st.CIoCs != 3 || st.ClusterEdits != 1 || st.EIoCs != 4 {
		t.Fatalf("stats = %+v, want 3 clusters opened, 1 grown, 4 eIoCs", st)
	}
}

// TestFlushMixesScoredAndUnscorable: one flush holding clusters with and
// without a scorable SDO commits one revision per cluster — an eIoC for
// the scored, a cIoC for the unscorable — and the change log lists them
// in batch order.
func TestFlushMixesScoredAndUnscorable(t *testing.T) {
	p := newPlatform(t, Config{})
	event := func(value string) normalize.Event {
		e, err := normalize.New(value, normalize.CategoryMalwareDomain, "t", normalize.SourceOSINT, batchTime)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	stored, err := p.flush([]normalize.Event{
		event("first.example"), event("opaque-token-1"), event("second.example"), event("opaque-token-2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if len(stored) != 4 || st.CIoCs != 4 || st.EIoCs != 2 || st.Unscorable != 2 {
		t.Fatalf("stored %d, stats %+v: want 4 clusters, 2 scored and 2 unscorable", len(stored), st)
	}
	changes, _, _, err := p.TIP().ChangesPage(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.TIP().StoreSeq(); got != 4 || len(changes) != 4 {
		t.Fatalf("sequence %d, %d changes for 4 clusters", got, len(changes))
	}
	for i, me := range changes {
		if me.UUID != stored[i].UUID {
			t.Fatalf("change %d is %s, want %s (batch order)", i, me.UUID, stored[i].UUID)
		}
		if scored := me.HasTag("caisp:eioc"); scored != stored[i].HasTag("caisp:eioc") {
			t.Fatalf("change %d stored eIoC=%v, the flush scored it %v", i, scored, !scored)
		}
	}
}

// TestRefusedCommitLeavesNoTrace: a grown cluster whose revision the
// store refuses — its UUID was deleted at a later time — is a store
// failure, and nothing it was scored into survives: its rIoCs are
// retracted from the dashboard, no STIX object is shared and no match
// frame is sent.
func TestRefusedCommitLeavesNoTrace(t *testing.T) {
	p := newPlatform(t, Config{ShareTAXII: true})
	for _, pat := range []string{"[x-caisp:threat-score > 0]", "[x-caisp:category = 'vulnerability-exploitation']"} {
		if _, err := p.Subscriptions().Register("siem", pat); err != nil {
			t.Fatal(err)
		}
	}
	struts := map[string]string{
		"campaign":    "op-struts-wave",
		"products":    "apache struts,apache",
		"os":          "debian",
		"cvss-vector": "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H",
	}
	stored, err := p.flush([]normalize.Event{ctxEvent(t, "CVE-2017-9805", normalize.CategoryVulnExploit, struts)})
	if err != nil || len(stored) != 1 {
		t.Fatalf("first flush: %v, %d stored", err, len(stored))
	}
	cluster := stored[0].UUID
	// The cluster is deleted at a time after any revision the fake clock
	// can stamp, and its rIoCs with it, as an expiry would.
	if n, err := p.TIP().DeleteEventsAt([]storage.Deletion{{UUID: cluster, At: batchTime.Add(time.Hour)}}); err != nil || n != 1 {
		t.Fatalf("delete: %d, %v", n, err)
	}
	p.Dashboard().DropEventRIoCs(cluster)
	before := p.Stats()
	shared := p.TAXII().ObjectCount(TAXIICollection)
	matches := p.Subscriptions().Stats().Matches

	stored, err = p.flush([]normalize.Event{ctxEvent(t, "CVE-2017-5638", normalize.CategoryVulnExploit, struts)})
	if err != nil || len(stored) != 0 {
		t.Fatalf("refused revision: stored %d, err %v", len(stored), err)
	}
	after := p.Stats()
	if after.RIoCs == before.RIoCs {
		t.Fatalf("the grown cluster pushed no rIoC, so the retraction is untested: %+v", after)
	}
	if after.StoreFailures != before.StoreFailures+1 || after.ClusterEdits != before.ClusterEdits ||
		after.EIoCs != before.EIoCs {
		t.Fatalf("refused revision counted as %+v, was %+v", after, before)
	}
	for _, r := range p.Dashboard().RIoCs() {
		if r.EventUUID == cluster {
			t.Fatalf("refused revision left rIoC %+v", r)
		}
	}
	if got := p.TAXII().ObjectCount(TAXIICollection); got != shared {
		t.Fatalf("refused revision shared %d STIX objects", got-shared)
	}
	if got := p.Subscriptions().Stats().Matches; got != matches {
		t.Fatalf("refused revision matched %d subscriptions", got-matches)
	}
	if p.store.Has(cluster) {
		t.Fatalf("refused revision of %s was stored", cluster)
	}
}
