package core

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/correlate"
	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/feedgen"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/infra"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/stix"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/taxii"
	"github.com/caisplatform/caisp/internal/tip"
)

var batchTime = time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC)

func advisoryFeed(doc string) feed.Feed {
	return feed.Feed{
		Name:     "advisories",
		Category: normalize.CategoryVulnExploit,
		Fetcher:  &feed.StaticFetcher{Data: []byte(doc)},
		Parser:   feed.AdvisoryParser{},
		Interval: time.Hour,
	}
}

const strutsAdvisory = `[{
  "cve": "CVE-2017-9805",
  "description": "Apache Struts REST plugin XStream RCE",
  "cvss3": "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H",
  "products": ["apache struts", "apache"],
  "os": "debian",
  "published": "2017-09-13"
}]`

func newPlatform(t *testing.T, cfg Config) *Platform {
	t.Helper()
	if cfg.Clock == nil {
		cfg.Clock = clock.NewFake(batchTime)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestRunBatchEndToEndRCE(t *testing.T) {
	p := newPlatform(t, Config{
		Feeds:      []feed.Feed{advisoryFeed(strutsAdvisory)},
		ShareTAXII: true,
	})
	if err := p.RunBatch(context.Background()); err != nil {
		t.Fatal(err)
	}

	stats := p.Stats()
	if stats.EventsCollected != 1 || stats.EventsUnique != 1 || stats.CIoCs != 1 || stats.EIoCs != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// The rIoC must land on node4 (apache) per the §IV matching rule.
	riocs := p.Dashboard().RIoCs()
	if len(riocs) != 1 {
		t.Fatalf("riocs = %d", len(riocs))
	}
	r := riocs[0]
	if r.CVE != "CVE-2017-9805" || len(r.NodeIDs) != 1 || r.NodeIDs[0] != "node4" || r.AllNodes {
		t.Fatalf("rIoC = %+v", r)
	}
	if r.ThreatScore <= 0 || r.ThreatScore > 5 {
		t.Fatalf("threat score = %v", r.ThreatScore)
	}

	// The stored event became an eIoC: threat-score attribute + tag.
	events, err := p.TIP().Search(tip.SearchQuery{Tag: "caisp:eioc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("eIoC events = %d", len(events))
	}
	found := false
	for _, a := range events[0].Attributes {
		if a.Type == "comment" && strings.HasPrefix(a.Value, "threat-score:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("threat-score attribute missing: %+v", events[0].Attributes)
	}

	// The eIoC was shared into the TAXII collection.
	if p.TAXII().ObjectCount(TAXIICollection) == 0 {
		t.Fatal("taxii collection empty")
	}
}

func TestRunBatchNoMatchNoRIoC(t *testing.T) {
	const advisory = `[{
	  "cve": "CVE-2020-0601",
	  "description": "Windows CryptoAPI spoofing",
	  "cvss3": "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:N",
	  "products": ["windows crypto"],
	  "os": "windows"
	}]`
	p := newPlatform(t, Config{Feeds: []feed.Feed{advisoryFeed(advisory)}})
	if err := p.RunBatch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(p.Dashboard().RIoCs()); got != 0 {
		t.Fatalf("riocs = %d, want 0 (no inventory match)", got)
	}
	// The eIoC still exists for storage/sharing.
	if p.Stats().EIoCs != 1 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

func TestRunBatchCommonKeywordAllNodes(t *testing.T) {
	const advisory = `[{
	  "cve": "CVE-2016-5195",
	  "description": "Dirty COW privilege escalation",
	  "cvss3": "CVSS:3.1/AV:L/AC:L/PR:L/UI:N/S:U/C:H/I:H/A:H",
	  "products": ["linux"],
	  "os": "linux"
	}]`
	p := newPlatform(t, Config{Feeds: []feed.Feed{advisoryFeed(advisory)}})
	if err := p.RunBatch(context.Background()); err != nil {
		t.Fatal(err)
	}
	riocs := p.Dashboard().RIoCs()
	if len(riocs) != 1 || !riocs[0].AllNodes || len(riocs[0].NodeIDs) != 4 {
		t.Fatalf("riocs = %+v, want all-nodes match", riocs)
	}
}

func TestRunBatchDeduplicatesAcrossFeeds(t *testing.T) {
	f1 := feed.Feed{
		Name: "feed-a", Category: normalize.CategoryMalwareDomain,
		Fetcher: &feed.StaticFetcher{Data: []byte("evil.example\nshared.example\n")},
		Parser:  feed.PlaintextParser{}, Interval: time.Hour,
	}
	f2 := feed.Feed{
		Name: "feed-b", Category: normalize.CategoryMalwareDomain,
		Fetcher: &feed.StaticFetcher{Data: []byte("SHARED[.]example\nother.example\n")},
		Parser:  feed.PlaintextParser{}, Interval: time.Hour,
	}
	p := newPlatform(t, Config{Feeds: []feed.Feed{f1, f2}})
	if err := p.RunBatch(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := p.Stats()
	if stats.EventsCollected != 4 || stats.EventsUnique != 3 || stats.Duplicates != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	ds := p.DedupStats()
	if ds.Duplicates != 1 {
		t.Fatalf("dedup stats = %+v", ds)
	}
}

func TestSyntheticFeedsFullPipeline(t *testing.T) {
	gen := feedgen.New(feedgen.Config{
		Seed: 99, Items: 60, DuplicationRate: 0.2, OverlapRate: 0.2, DefangRate: 0.3,
		Now: batchTime.Add(-24 * time.Hour),
	})
	feeds, err := gen.Feeds(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	p := newPlatform(t, Config{Feeds: feeds, ShareTAXII: true})
	if err := p.RunBatch(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := p.Stats()
	if stats.EventsCollected < 200 {
		t.Fatalf("collected only %d events", stats.EventsCollected)
	}
	if stats.Duplicates == 0 {
		t.Fatal("no duplicates despite duplication+overlap")
	}
	if stats.CIoCs == 0 || stats.EIoCs == 0 {
		t.Fatalf("pipeline stalled: %+v", stats)
	}
	if stats.StoredEvents == 0 {
		t.Fatal("nothing stored in TIP")
	}
	// The advisory feed leads with the Struts use case → at least one rIoC.
	if stats.RIoCs == 0 {
		t.Fatalf("no rIoCs: %+v", stats)
	}
}

// clusterOf composes the cIoC one event of value makes, as an input
// module other than this platform's would store it.
func clusterOf(t *testing.T, value, category string, ctx map[string]string) *misp.Event {
	t.Helper()
	ciocs := correlate.New().Correlate([]normalize.Event{ctxEvent(t, value, category, ctx)})
	me, err := correlate.ToMISP(&ciocs[0], batchTime)
	if err != nil {
		t.Fatal(err)
	}
	return me
}

// TestStreamingModeScoresEveryPostedCIoC: once a feed flush has run, a
// cIoC posted over the TIP API is scored even when the analyzer is held
// inside another event's score while 400 revisions are committed around
// the post. The analyzer follows the change log, so what lands while it
// is busy folds into its next pages; a bounded queue between the store
// and the analyzer would have evicted the post.
func TestStreamingModeScoresEveryPostedCIoC(t *testing.T) {
	clk := &gateClock{Fake: clock.NewFake(batchTime), entered: make(chan struct{})}
	p := newPlatform(t, Config{
		Feeds:            []feed.Feed{advisoryFeed(strutsAdvisory)},
		Clock:            clk,
		DisableLifecycle: true,
		AnalyzerPool:     1,
	})
	api := httptest.NewServer(tip.NewAPI(p.TIP(), ""))
	defer api.Close()
	client := tip.NewClient(api.URL, "")
	ctx := context.Background()
	if err := p.Start(ctx, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(ctx, time.Second); err == nil {
		t.Fatal("double start accepted")
	}
	awaitEIoCs(t, p, 1) // the feed's first flush has committed

	struts := map[string]string{
		"products":    "apache struts,apache",
		"os":          "debian",
		"cvss-vector": "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H",
	}
	held := clusterOf(t, "CVE-2017-5638", normalize.CategoryVulnExploit, struts)
	release := clk.arm()
	if _, err := client.AddEvent(ctx, held); err != nil {
		t.Fatal(err)
	}
	<-clk.entered // the analyzer is inside held's score

	fillers := func(from, n int) {
		batch := make([]*misp.Event, n)
		for i := range batch {
			batch[i] = clusterOf(t, fmt.Sprintf("opaque-token-%d", from+i), normalize.CategoryMalwareDomain, nil)
		}
		if _, err := p.TIP().AddEvents(batch); err != nil {
			t.Fatal(err)
		}
	}
	fillers(0, 100)
	posted := clusterOf(t, "CVE-2018-11776", normalize.CategoryVulnExploit, struts)
	if _, err := client.AddEvent(ctx, posted); err != nil {
		t.Fatal(err)
	}
	fillers(100, 300)
	release()

	deadline := time.After(10 * time.Second)
	for {
		committed := p.store.Committed() // before the read: see Store.Committed
		a, errA := p.TIP().GetEvent(held.UUID)
		b, errB := p.TIP().GetEvent(posted.UUID)
		if errA == nil && errB == nil && a.HasTag("caisp:eioc") && b.HasTag("caisp:eioc") {
			break
		}
		select {
		case <-committed:
		case <-deadline:
			t.Fatalf("posted cIoCs never scored: %+v", p.Stats())
		}
	}
	p.Stop()
	if got := len(p.Dashboard().RIoCs()); got == 0 {
		t.Fatal("no rIoC reached the dashboard in streaming mode")
	}
}

func TestReportAlarmAndInternalIoC(t *testing.T) {
	p := newPlatform(t, Config{})
	alarm, err := p.ReportAlarm(infra.Alarm{
		NodeID: "node1", Severity: infra.SeverityHigh, Description: "probe",
	})
	if err != nil {
		t.Fatal(err)
	}
	if alarm.ID == "" {
		t.Fatal("alarm id not assigned")
	}
	if _, err := p.ReportAlarm(infra.Alarm{NodeID: "ghost", Severity: infra.SeverityLow, Description: "x"}); err == nil {
		t.Fatal("alarm for unknown node accepted")
	}
	e, correlated, err := p.ReportInternalIoC("evil.example", normalize.CategoryMalwareDomain, "nids")
	if err != nil {
		t.Fatal(err)
	}
	if e.SourceType != normalize.SourceInfrastructure {
		t.Fatalf("internal IoC source type = %q", e.SourceType)
	}
	if len(correlated) != 0 {
		t.Fatalf("fresh sighting correlated with %v", correlated)
	}
	// The sighting is stored org-only in the TIP for automatic correlation.
	stored, err := p.TIP().Search(tip.SearchQuery{Tag: "caisp:infrastructure"})
	if err != nil || len(stored) != 1 {
		t.Fatalf("infrastructure events = %d, %v", len(stored), err)
	}
	if stored[0].Distribution != misp.DistributionOrganisation {
		t.Fatalf("infrastructure sighting distribution = %d, must stay org-only", stored[0].Distribution)
	}
	// A second sighting of the same value correlates with the first.
	_, correlated, err = p.ReportInternalIoC("evil.example", normalize.CategoryMalwareDomain, "hids")
	if err != nil {
		t.Fatal(err)
	}
	if len(correlated) != 1 {
		t.Fatalf("second sighting correlated = %v, want the first event", correlated)
	}
}

func TestInfrastructureSightingChangesScore(t *testing.T) {
	// Run the same advisory twice: once cold, once with the CVE already
	// sighted by the infrastructure; the second score must be higher
	// (source_diversity 1 → 3).
	run := func(withSighting bool) float64 {
		p := newPlatform(t, Config{Feeds: []feed.Feed{advisoryFeed(strutsAdvisory)}})
		if withSighting {
			if _, _, err := p.ReportInternalIoC("CVE-2017-9805", normalize.CategoryVulnExploit, "vuln-scanner"); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.RunBatch(context.Background()); err != nil {
			t.Fatal(err)
		}
		riocs := p.Dashboard().RIoCs()
		if len(riocs) != 1 {
			t.Fatalf("riocs = %d", len(riocs))
		}
		return riocs[0].ThreatScore
	}
	cold := run(false)
	hot := run(true)
	if hot <= cold {
		t.Fatalf("sighted score %v not above cold score %v", hot, cold)
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		DataDir: dir,
		Feeds:   []feed.Feed{advisoryFeed(strutsAdvisory)},
		Clock:   clock.NewFake(batchTime),
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RunBatch(context.Background()); err != nil {
		t.Fatal(err)
	}
	stored := p.TIP().Len()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if stored == 0 {
		t.Fatal("nothing stored before restart")
	}

	p2, err := New(Config{DataDir: dir, Clock: clock.NewFake(batchTime)})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.TIP().Len() != stored {
		t.Fatalf("after restart: %d events, want %d", p2.TIP().Len(), stored)
	}
	events, err := p2.TIP().Search(tip.SearchQuery{Tag: "caisp:eioc"})
	if err != nil || len(events) == 0 {
		t.Fatalf("eIoC lost across restart: %v", err)
	}
}

func TestExportedEIoCCarriesScore(t *testing.T) {
	p := newPlatform(t, Config{Feeds: []feed.Feed{advisoryFeed(strutsAdvisory)}, ShareTAXII: true})
	if err := p.RunBatch(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Objects shared over TAXII must carry the threat-score custom
	// property (they are eIoCs, not plain cIoCs).
	srvObjects := p.TAXII().ObjectCount(TAXIICollection)
	if srvObjects == 0 {
		t.Fatal("nothing shared")
	}
	events, err := p.TIP().Search(tip.SearchQuery{Tag: "caisp:eioc"})
	if err != nil || len(events) != 1 {
		t.Fatal("eIoC missing")
	}
	bundle, err := misp.ToSTIX(events[0])
	if err != nil {
		t.Fatal(err)
	}
	vulns := bundle.ByType(stix.TypeVulnerability)
	if len(vulns) != 1 {
		t.Fatalf("vulnerabilities = %d", len(vulns))
	}
	// Score attribute round-trips through the MISP event as a comment; the
	// STIX custom property is applied during analysis, so check the live
	// score from a fresh evaluation matches the recorded one.
	res, err := p.Engine().Evaluate(vulns[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Score <= 0 {
		t.Fatalf("score = %v", res.Score)
	}
	_ = heuristic.ThreatScoreOf // referenced to document intent
}

func TestClassifierTagsUnknownCategories(t *testing.T) {
	// A plaintext feed of IPs with no category; descriptions arrive via a
	// CSV column so the classifier has text to work with.
	doc := "ip,description\n203.0.113.5,massive ddos flood from botnet\n203.0.113.6,ransomware trojan dropper observed\n203.0.113.7,\n"
	f := feed.Feed{
		Name:     "uncategorized",
		Category: normalize.CategoryUnknown,
		Fetcher:  &feed.StaticFetcher{Data: []byte(doc)},
		Parser:   feed.CSVParser{ValueColumn: 0, HasHeader: true},
		Interval: time.Hour,
	}
	p := newPlatform(t, Config{Feeds: []feed.Feed{f}})
	if err := p.RunBatch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Classified; got != 2 {
		t.Fatalf("classified = %d, want 2", got)
	}
	ddos, err := p.TIP().Search(tip.SearchQuery{Tag: "caisp:category=\"ddos\""})
	if err != nil {
		t.Fatal(err)
	}
	if len(ddos) != 1 {
		t.Fatalf("ddos events = %d", len(ddos))
	}
	// The confidence is visible to SIEM consumers as an attribute.
	foundVerdict := false
	for _, a := range ddos[0].Attributes {
		if a.Type == "text" && strings.HasPrefix(a.Value, "classification:ddos confidence:") {
			foundVerdict = true
		}
	}
	if !foundVerdict {
		t.Fatalf("classification attribute missing: %+v", ddos[0].Attributes)
	}
}

// preloadWALOps leaves n uncompacted WAL operations in dir: one filler
// event put n times, so the backlog grows while the live set does not.
func preloadWALOps(t *testing.T, dir string, n int) {
	t.Helper()
	s, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	filler := misp.NewEvent("wal filler", batchTime)
	for i := 0; i < n; i++ {
		if _, err := s.PutBatch([]*misp.Event{filler}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// waitCompacted polls until the platform's store has published a
// snapshot and its backlog is back under the trigger threshold.
func waitCompacted(t *testing.T, p *Platform) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := p.TIP().Stats()
		if st.Compactions >= 1 && st.WALOps <= storage.CompactAfterOps {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never ran: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAutoCompaction(t *testing.T) {
	gen := feedgen.New(feedgen.Config{Seed: 5, Items: 40, DuplicationRate: 0, OverlapRate: 0})
	feeds, err := gen.Feeds(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// The replayed backlog sits exactly at the threshold, so nothing is
	// due at boot; the puts and enrichment edits RunBatch commits push it
	// over and the platform's compaction trigger must fire on its own.
	dir := t.TempDir()
	preloadWALOps(t, dir, storage.CompactAfterOps)
	p := newPlatform(t, Config{DataDir: dir, Feeds: feeds})
	if st := p.TIP().Stats(); st.WALOps != storage.CompactAfterOps || st.Compactions != 0 {
		t.Fatalf("boot compacted a backlog at the threshold: %+v", st)
	}
	if err := p.RunBatch(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitCompacted(t, p)
	if p.TIP().Len() < 100 {
		t.Fatalf("stored = %d", p.TIP().Len())
	}
	// The drained compactor leaves a loadable snapshot behind on Close;
	// a reopened store recovers everything without the full WAL.
	n := p.TIP().Len()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2 := newPlatform(t, Config{DataDir: dir})
	if p2.TIP().Len() != n {
		t.Fatalf("reopened store has %d events, want %d", p2.TIP().Len(), n)
	}
}

func TestFederationViaTAXII(t *testing.T) {
	// Org A processes the advisory and shares its eIoC over TAXII.
	orgA := newPlatform(t, Config{
		Feeds:      []feed.Feed{advisoryFeed(strutsAdvisory)},
		ShareTAXII: true,
	})
	if err := orgA.RunBatch(context.Background()); err != nil {
		t.Fatal(err)
	}
	taxiiSrv := httptest.NewServer(orgA.TAXII())
	defer taxiiSrv.Close()

	// Org B runs a different infrastructure (a struts-heavy shop) and
	// consumes A's collection as one of its OSINT feeds.
	orgBInventory := &infra.Inventory{
		Nodes: []infra.Node{
			{ID: "web1", Name: "storefront", OS: "debian",
				Applications: []string{"debian", "apache", "apache struts"}},
			{ID: "db1", Name: "database", OS: "debian",
				Applications: []string{"debian", "postgresql"}},
		},
	}
	orgB := newPlatform(t, Config{
		Inventory: orgBInventory,
		Feeds: []feed.Feed{{
			Name:     "org-a-taxii",
			Category: normalize.CategoryVulnExploit,
			Fetcher: &feed.TAXIIFetcher{
				Client:       taxii.NewClient(taxiiSrv.URL, ""),
				APIRoot:      "caisp",
				CollectionID: "eiocs",
			},
			Parser:   feed.STIXBundleParser{},
			Interval: time.Minute,
		}},
	})
	if err := orgB.RunBatch(context.Background()); err != nil {
		t.Fatal(err)
	}
	riocs := orgB.Dashboard().RIoCs()
	if len(riocs) != 1 {
		t.Fatalf("org B riocs = %d", len(riocs))
	}
	r := riocs[0]
	if r.CVE != "CVE-2017-9805" {
		t.Fatalf("cve = %q", r.CVE)
	}
	// Org B's own inventory drives the match: the struts host web1.
	if len(r.NodeIDs) != 1 || r.NodeIDs[0] != "web1" {
		t.Fatalf("org B nodes = %v", r.NodeIDs)
	}
	if r.ThreatScore <= 0 {
		t.Fatalf("score = %v", r.ThreatScore)
	}
}
