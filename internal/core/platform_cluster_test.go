package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/tip"
)

// ctxEvent builds a normalized event with extra correlation/heuristic
// context, the way the advisory parser would.
func ctxEvent(t *testing.T, value, category string, ctx map[string]string) normalize.Event {
	t.Helper()
	e, err := normalize.New(value, category, "test-feed", normalize.SourceOSINT, batchTime)
	if err != nil {
		t.Fatal(err)
	}
	if e.Context == nil {
		e.Context = make(map[string]string, len(ctx))
	}
	for k, v := range ctx {
		e.Context[k] = v
	}
	return e
}

// TestCrossBatchClusterEdit is the issue's end-to-end acceptance check:
// indicators of one campaign arriving in two separate flush batches must
// end up as ONE cluster under ONE stable MISP event — the second flush
// publishes an edit, not a second add — and the dashboard re-scores the
// existing rIoC in place instead of double-counting it.
func TestCrossBatchClusterEdit(t *testing.T) {
	p := newPlatform(t, Config{})
	strutsCtx := map[string]string{
		"campaign":    "op-struts-wave",
		"description": "Apache Struts exploitation campaign",
		"products":    "apache struts,apache",
		"os":          "debian",
		"cvss-vector": "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H",
	}

	// Flush batch 1: one CVE sighting of the campaign.
	stored, err := p.flush([]normalize.Event{
		ctxEvent(t, "CVE-2017-9805", normalize.CategoryVulnExploit, strutsCtx),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 1 {
		t.Fatalf("batch 1 stored %d events", len(stored))
	}
	clusterUUID := stored[0].UUID
	st := p.Stats()
	if st.CIoCs != 1 || st.ClusterEdits != 0 || st.ClustersLive != 1 {
		t.Fatalf("after batch 1: %+v", st)
	}
	riocs := p.Dashboard().RIoCs()
	if len(riocs) != 1 || riocs[0].Revision != 0 || riocs[0].EventUUID != clusterUUID {
		t.Fatalf("after batch 1 riocs = %+v", riocs)
	}

	// Flush batch 2: a different CVE of the same campaign. It must grow
	// the existing cluster and go out as a MISP edit, not a second add.
	cursor := p.TIP().StoreSeq()
	stored, err = p.flush([]normalize.Event{
		ctxEvent(t, "CVE-2017-5638", normalize.CategoryVulnExploit, strutsCtx),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 1 || stored[0].UUID != clusterUUID {
		t.Fatalf("batch 2 stored %+v, want edit of %s", stored, clusterUUID)
	}
	st = p.Stats()
	if st.CIoCs != 1 || st.ClusterEdits != 1 || st.ClustersLive != 1 {
		t.Fatalf("after batch 2: %+v", st)
	}
	edits, _, _, err := p.TIP().ChangesPage(cursor, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(edits) != 1 || edits[0].UUID != clusterUUID || !edits[0].HasTag("caisp:cioc") {
		t.Fatalf("batch 2 committed %d revisions, want one revision of cluster %s", len(edits), clusterUUID)
	}

	// One stored cIoC event carrying both member CVEs.
	ciocs, err := p.TIP().Search(tip.SearchQuery{Tag: "caisp:cioc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ciocs) != 1 || ciocs[0].UUID != clusterUUID {
		t.Fatalf("stored cIoCs = %d, want 1 under the stable UUID", len(ciocs))
	}
	vulns := 0
	for _, a := range ciocs[0].Attributes {
		if a.Type == "vulnerability" {
			vulns++
		}
	}
	if vulns != 2 {
		t.Fatalf("cluster event carries %d vulnerability attributes, want 2", vulns)
	}

	// The flush re-scored the grown cluster: the first CVE's rIoC is
	// updated in place (revision bumped), the second appears once, and no
	// (cluster, rIoC) pair is counted twice.
	riocs = p.Dashboard().RIoCs()
	if len(riocs) != 2 {
		t.Fatalf("after re-score riocs = %+v", riocs)
	}
	seen := make(map[string]int, len(riocs))
	var rescored *heuristic.RIoC
	for i := range riocs {
		if riocs[i].EventUUID != clusterUUID {
			t.Fatalf("rIoC %s bound to %q, want %s", riocs[i].ID, riocs[i].EventUUID, clusterUUID)
		}
		seen[riocs[i].ID]++
		if riocs[i].CVE == "CVE-2017-9805" {
			rescored = &riocs[i]
		}
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("rIoC %s counted %d times", id, n)
		}
	}
	if rescored == nil || rescored.Revision < 1 {
		t.Fatalf("first CVE not re-scored in place: %+v", rescored)
	}
}

// TestCorrelationIndexRebuildAfterRestart covers the recovery acceptance
// check: after a restart, a new sighting that correlates with a pre-crash
// cluster must merge into it — same stable UUID, edit not add — because
// New rebuilds the streaming correlator's index from the store.
func TestCorrelationIndexRebuildAfterRestart(t *testing.T) {
	dir := t.TempDir()
	p, err := New(Config{DataDir: dir, Clock: clock.NewFake(batchTime)})
	if err != nil {
		t.Fatal(err)
	}
	stored, err := p.flush([]normalize.Event{
		ctxEvent(t, "a.campaign.example", normalize.CategoryMalwareDomain, nil),
	})
	if err != nil || len(stored) != 1 {
		t.Fatalf("pre-crash flush: %v, %d stored", err, len(stored))
	}
	preCrashUUID := stored[0].UUID
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := New(Config{DataDir: dir, Clock: clock.NewFake(batchTime)})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if live := p2.Stats().ClustersLive; live != 1 {
		t.Fatalf("rebuilt clusters = %d, want 1", live)
	}
	// A post-restart sighting sharing the registered domain must land in
	// the pre-crash cluster.
	stored, err = p2.flush([]normalize.Event{
		ctxEvent(t, "b.campaign.example", normalize.CategoryMalwareDomain, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 1 || stored[0].UUID != preCrashUUID {
		t.Fatalf("post-restart flush stored %+v, want edit of %s", stored, preCrashUUID)
	}
	st := p2.Stats()
	if st.CIoCs != 0 || st.ClusterEdits != 1 || st.ClustersLive != 1 {
		t.Fatalf("post-restart stats = %+v", st)
	}
	ciocs, err := p2.TIP().Search(tip.SearchQuery{Tag: "caisp:cioc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ciocs) != 1 || ciocs[0].UUID != preCrashUUID {
		t.Fatalf("stored cIoCs = %d, want 1 under pre-crash UUID", len(ciocs))
	}
	domains := 0
	for _, a := range ciocs[0].Attributes {
		if a.Type == "domain" {
			domains++
		}
	}
	if domains != 2 {
		t.Fatalf("merged cluster carries %d domain members, want 2", domains)
	}
}

// TestStreamingClusterStress exercises the incremental correlator under
// -race: concurrent flushes growing and merging clusters, the sharded
// analyzer pool re-scoring edited clusters, dashboard reads, and
// background compaction all run at once. Values share registered domains
// so flushes continuously hit the cluster-edit path.
func TestStreamingClusterStress(t *testing.T) {
	const (
		producers = 4
		campaigns = 8
		perProd   = 50
	)
	p := newPlatform(t, Config{
		DataDir:      t.TempDir(),
		Clock:        clock.Real(),
		AnalyzerPool: 4,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := p.Start(ctx, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// Producers feed sightings that cluster by registered domain.
	var prodWG sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		prodWG.Add(1)
		go func(pr int) {
			defer prodWG.Done()
			for i := 0; i < perProd; i++ {
				v := fmt.Sprintf("s%d-%d.camp%d.example", pr, i, (pr*perProd+i)%campaigns)
				e, err := normalize.New(v, normalize.CategoryMalwareDomain,
					"stress", normalize.SourceOSINT, time.Now())
				if err != nil {
					t.Errorf("producer %d: %v", pr, err)
					return
				}
				p.ingest([]normalize.Event{e})
				if i%10 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}(pr)
	}

	// Dashboard and stats readers racing with analyzer pushes and edits.
	readCtx, stopReaders := context.WithCancel(context.Background())
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for readCtx.Err() == nil {
				p.Dashboard().RIoCs()
				p.Stats()
				if _, err := p.TIP().Search(tip.SearchQuery{Tag: "caisp:cioc"}); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}()
	}

	// Snapshots stream back to back while flushes, analyzers and readers
	// run. The store's own trigger is covered by TestAutoCompaction; a
	// stress run commits far fewer ops than its threshold.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for readCtx.Err() == nil {
			if err := p.store.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	prodWG.Wait()
	// Every producer value folds into one of the campaign clusters, and
	// the readers keep reading until several snapshots have streamed.
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, snaps := p.Stats(), p.store.Durability().Compactions
		if st.EventsUnique == producers*perProd && st.ClustersLive == campaigns && snaps >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stress pipeline stalled: %+v, %d compactions (want %d unique, %d clusters, 3 compactions)",
				st, snaps, producers*perProd, campaigns)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopReaders()
	readers.Wait()
	p.Stop()

	st := p.Stats()
	if st.StoreFailures != 0 {
		t.Fatalf("store failures under stress: %+v", st)
	}
	// The edit path dominated: far more flushes grew clusters than opened
	// them, and exactly one stored event exists per campaign cluster.
	if st.CIoCs != campaigns {
		t.Fatalf("CIoCs = %d, want %d stable clusters", st.CIoCs, campaigns)
	}
	if st.ClusterEdits == 0 {
		t.Fatalf("no cluster edits despite cross-flush growth: %+v", st)
	}
	ciocs, err := p.TIP().Search(tip.SearchQuery{Tag: "caisp:cioc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ciocs) != campaigns {
		t.Fatalf("stored cIoC events = %d, want %d", len(ciocs), campaigns)
	}
}

// TestGrownClusterKeepsAttributeUUIDs: a flush splices a grown cluster's
// revision from the stored one, so its members keep their attribute
// UUIDs across revisions. A member whose stored attribute was altered
// through the TIP is rendered again under a fresh UUID, and the revision
// after that one keeps UUIDs again.
func TestGrownClusterKeepsAttributeUUIDs(t *testing.T) {
	p := newPlatform(t, Config{})
	uuids := func(uuid string) map[string]string { // value -> attribute UUID
		t.Helper()
		me, err := p.TIP().GetEvent(uuid)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string)
		for _, a := range me.Attributes {
			out[a.Value] = a.UUID
		}
		return out
	}
	cluster := ""
	grow := func(value string) map[string]string {
		t.Helper()
		stored, err := p.flush([]normalize.Event{ctxEvent(t, value, normalize.CategoryMalwareDomain, nil)})
		if err != nil || len(stored) != 1 {
			t.Fatalf("flush of %s stored %d revisions: %v", value, len(stored), err)
		}
		if cluster == "" {
			cluster = stored[0].UUID
		} else if stored[0].UUID != cluster {
			t.Fatalf("%s did not grow cluster %s", value, cluster)
		}
		return uuids(cluster)
	}
	first := grow("a.evil.example")
	second := grow("b.evil.example")
	if second["a.evil.example"] != first["a.evil.example"] {
		t.Fatalf("unchanged member's attribute UUID moved: %s -> %s", first["a.evil.example"], second["a.evil.example"])
	}
	if second["b.evil.example"] == "" || second["b.evil.example"] == first["a.evil.example"] {
		t.Fatalf("new member's attribute UUID = %q", second["b.evil.example"])
	}

	// Replace the stored revision with one whose first member carries an
	// altered comment, as a TIP client may.
	edited, err := p.TIP().GetEvent(cluster)
	if err != nil {
		t.Fatal(err)
	}
	edited = edited.Clone()
	for i := range edited.Attributes {
		if edited.Attributes[i].Value == "a.evil.example" {
			edited.Attributes[i].Comment = "edited by an analyst"
		}
	}
	edited.Timestamp.Time = edited.Timestamp.Add(time.Second)
	if _, err := p.TIP().AddEvent(edited); err != nil {
		t.Fatal(err)
	}
	third := grow("c.evil.example")
	if third["a.evil.example"] == second["a.evil.example"] {
		t.Fatal("a member altered in the stored revision kept its attribute UUID")
	}
	fourth := grow("d.evil.example")
	for _, v := range []string{"a.evil.example", "b.evil.example", "c.evil.example"} {
		if fourth[v] != third[v] {
			t.Fatalf("%s: attribute UUID moved after the re-rendered revision", v)
		}
	}
}
