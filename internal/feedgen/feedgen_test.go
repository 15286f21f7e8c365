package feedgen

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/dedup"
	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/normalize"
)

func TestDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, Items: 50, DuplicationRate: 0.2, OverlapRate: 0.1, DefangRate: 0.3}
	d1, err := New(cfg).Documents()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := New(cfg).Documents()
	if err != nil {
		t.Fatal(err)
	}
	if len(d1) != len(AllFeeds) {
		t.Fatalf("got %d feeds, want %d", len(d1), len(AllFeeds))
	}
	for name := range d1 {
		if !bytes.Equal(d1[name], d2[name]) {
			t.Fatalf("feed %s not deterministic", name)
		}
	}
	d3, err := New(Config{Seed: 43, Items: 50}).Documents()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(d1[FeedMalwareDomains], d3[FeedMalwareDomains]) {
		t.Fatal("different seeds produced identical output")
	}
}

func TestDocumentsParseWithTheirParsers(t *testing.T) {
	g := New(Config{Seed: 7, Items: 40, DefangRate: 0.5})
	feeds, err := g.Feeds(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(feeds) != len(AllFeeds) {
		t.Fatalf("got %d feeds", len(feeds))
	}
	for _, f := range feeds {
		data, _, err := f.Fetcher.Fetch(context.Background())
		if err != nil {
			t.Fatalf("%s: fetch: %v", f.Name, err)
		}
		records, err := f.Parser.Parse(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", f.Name, err)
		}
		if len(records) == 0 {
			t.Fatalf("%s: no records", f.Name)
		}
		// Every record must normalize into a typed event.
		unknown := 0
		for _, rec := range records {
			e, err := normalize.New(rec.Value, f.Category, f.Name, normalize.SourceOSINT, time.Now())
			if err != nil {
				t.Fatalf("%s: normalize %q: %v", f.Name, rec.Value, err)
			}
			if e.Type == normalize.TypeUnknown {
				unknown++
			}
		}
		if unknown > 0 {
			t.Errorf("%s: %d records with unknown type", f.Name, unknown)
		}
	}
}

func TestAdvisoryFeedLeadsWithUseCase(t *testing.T) {
	docs, err := New(Config{Seed: 1, Items: 5}).Documents()
	if err != nil {
		t.Fatal(err)
	}
	records, err := (feed.AdvisoryParser{}).Parse(docs[FeedAdvisories])
	if err != nil {
		t.Fatal(err)
	}
	if records[0].Value != "CVE-2017-9805" {
		t.Fatalf("first advisory = %q, want the paper's use case", records[0].Value)
	}
	if !strings.Contains(records[0].Context["products"], "apache struts") {
		t.Fatalf("use-case products = %q", records[0].Context["products"])
	}
}

func TestDuplicationRateDrivesDedup(t *testing.T) {
	// With heavy duplication, the deduper must fold a large share of the
	// malware-domain feed; with zero duplication it folds almost nothing
	// (the overlap pool is off too).
	run := func(dupRate float64) float64 {
		g := New(Config{Seed: 11, Items: 400, DuplicationRate: dupRate})
		docs, err := g.Documents()
		if err != nil {
			t.Fatal(err)
		}
		records, err := (feed.PlaintextParser{}).Parse(docs[FeedMalwareDomains])
		if err != nil {
			t.Fatal(err)
		}
		d := dedup.New()
		for _, rec := range records {
			e, err := normalize.New(rec.Value, normalize.CategoryMalwareDomain, "f", normalize.SourceOSINT, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			d.Offer(e)
		}
		return d.Stats().ReductionRatio()
	}
	low := run(0)
	high := run(0.5)
	if low > 0.05 {
		t.Fatalf("zero duplication rate still produced %.2f reduction", low)
	}
	if high < 0.3 {
		t.Fatalf("50%% duplication rate produced only %.2f reduction", high)
	}
}

func TestOverlapCreatesCrossFeedDuplicates(t *testing.T) {
	g := New(Config{Seed: 3, Items: 200, OverlapRate: 0.6})
	docs, err := g.Documents()
	if err != nil {
		t.Fatal(err)
	}
	domains := make(map[string]bool)
	records, err := (feed.PlaintextParser{}).Parse(docs[FeedMalwareDomains])
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		domains[normalize.CanonicalValue(normalize.TypeDomain, normalize.Refang(r.Value))] = true
	}
	mispRecords, err := (feed.MISPFeedParser{}).Parse(docs[FeedMISP])
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for _, r := range mispRecords {
		if domains[r.Value] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no cross-feed overlap despite OverlapRate 0.6")
	}
}

func TestWriteDir(t *testing.T) {
	dir := t.TempDir()
	g := New(Config{Seed: 5, Items: 10})
	if err := g.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"malware-domains.txt", "botnet-ips.csv", "phishing-urls.txt",
		"malware-hashes.csv", "vuln-advisories.json", "osint-misp.json",
	} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("missing %s: %v", want, err)
		}
	}
}

func TestHandlerServesAndSupportsConditionalGet(t *testing.T) {
	g := New(Config{Seed: 9, Items: 10})
	h, err := g.Handler()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	fetcher := &feed.HTTPFetcher{URL: srv.URL + "/feeds/" + FeedMalwareDomains}
	data, notModified, err := fetcher.Fetch(context.Background())
	if err != nil || notModified {
		t.Fatalf("first fetch: %v %v", notModified, err)
	}
	if len(data) == 0 {
		t.Fatal("empty document")
	}
	_, notModified, err = fetcher.Fetch(context.Background())
	if err != nil || !notModified {
		t.Fatalf("conditional fetch: notModified=%v err=%v", notModified, err)
	}
	resp, err := http.Get(srv.URL + "/feeds/absent")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent feed status = %d", resp.StatusCode)
	}
}

func TestEndToEndThroughScheduler(t *testing.T) {
	g := New(Config{Seed: 21, Items: 30, DuplicationRate: 0.2, OverlapRate: 0.2, DefangRate: 0.4})
	feeds, err := g.Feeds(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var events []normalize.Event
	s := feed.NewScheduler(func(batch []normalize.Event) {
		mu.Lock()
		events = append(events, batch...)
		mu.Unlock()
	})
	for _, f := range feeds {
		if err := s.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	s.PollOnce(context.Background())
	if len(events) < 100 {
		t.Fatalf("only %d events from full poll", len(events))
	}
	stats := s.Stats()
	for name, st := range stats {
		if st.Errors != 0 || st.Malformed != 0 {
			t.Errorf("feed %s: %+v", name, st)
		}
	}
}

func TestConfigClamping(t *testing.T) {
	g := New(Config{Seed: 1, Items: -5, DuplicationRate: 5, OverlapRate: -1, DefangRate: 2})
	if g.cfg.Items != 100 {
		t.Fatalf("Items = %d", g.cfg.Items)
	}
	if g.cfg.DuplicationRate != 0.9 || g.cfg.OverlapRate != 0 || g.cfg.DefangRate != 0.9 {
		t.Fatalf("rates not clamped: %+v", g.cfg)
	}
}

func TestUnknownFeedKind(t *testing.T) {
	g := New(Config{Seed: 1, Feeds: []string{"bogus"}})
	if _, err := g.Documents(); err == nil {
		t.Fatal("unknown feed kind accepted")
	}
}

func TestMISPFeedEventsValid(t *testing.T) {
	docs, err := New(Config{Seed: 2, Items: 50}).Documents()
	if err != nil {
		t.Fatal(err)
	}
	records, err := (feed.MISPFeedParser{}).Parse(docs[FeedMISP])
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("misp feed empty")
	}
}
