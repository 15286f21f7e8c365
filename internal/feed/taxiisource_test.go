package feed

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/stix"
	"github.com/caisplatform/caisp/internal/taxii"
)

var taxiiNow = time.Date(2018, 6, 1, 12, 0, 0, 0, time.UTC)

func taxiiRig(t *testing.T) (*taxii.Server, *TAXIIFetcher) {
	t.Helper()
	srv := taxii.NewServer("peer org", "peer")
	srv.AddCollection("shared", "Shared intel", "", true)
	httpSrv := httptest.NewServer(srv)
	t.Cleanup(httpSrv.Close)
	fetcher := &TAXIIFetcher{
		Client:       taxii.NewClient(httpSrv.URL, ""),
		APIRoot:      "peer",
		CollectionID: "shared",
	}
	return srv, fetcher
}

func TestTAXIIFetcherIncremental(t *testing.T) {
	srv, fetcher := taxiiRig(t)

	// Empty collection → not modified.
	_, notModified, err := fetcher.Fetch(context.Background())
	if err != nil || !notModified {
		t.Fatalf("empty poll: notModified=%v err=%v", notModified, err)
	}

	v := stix.NewVulnerability(stix.NewID(stix.TypeVulnerability), "CVE-2017-9805", "struts RCE", taxiiNow)
	v.SetExtra("x_caisp_cvss_vector", "CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H")
	v.SetExtra("x_caisp_products", "apache struts,apache")
	if err := srv.AddObjects("shared", v); err != nil {
		t.Fatal(err)
	}
	data, notModified, err := fetcher.Fetch(context.Background())
	if err != nil || notModified {
		t.Fatalf("poll with content: notModified=%v err=%v", notModified, err)
	}
	records, err := (STIXBundleParser{}).Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0].Value != "CVE-2017-9805" {
		t.Fatalf("records = %+v", records)
	}
	if records[0].Context["cvss-vector"] == "" || records[0].Context["products"] == "" {
		t.Fatalf("context lost: %+v", records[0].Context)
	}

	// Same objects again → not modified; a new object → only the new one.
	_, notModified, err = fetcher.Fetch(context.Background())
	if err != nil || !notModified {
		t.Fatalf("repeat poll: notModified=%v err=%v", notModified, err)
	}
	ind := stix.NewIndicator(stix.NewID(stix.TypeIndicator), "[domain-name:value = 'evil.example' OR ipv4-addr:value = '203.0.113.7']",
		[]string{"malicious-activity"}, taxiiNow)
	if err := srv.AddObjects("shared", ind); err != nil {
		t.Fatal(err)
	}
	data, notModified, err = fetcher.Fetch(context.Background())
	if err != nil || notModified {
		t.Fatalf("incremental poll: notModified=%v err=%v", notModified, err)
	}
	records, err = (STIXBundleParser{}).Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("indicator records = %+v", records)
	}
	values := map[string]bool{records[0].Value: true, records[1].Value: true}
	if !values["evil.example"] || !values["203.0.113.7"] {
		t.Fatalf("pattern values = %v", values)
	}
}

func TestTAXIIFetcherValidation(t *testing.T) {
	f := &TAXIIFetcher{}
	if _, _, err := f.Fetch(context.Background()); err == nil {
		t.Fatal("nil client accepted")
	}
}

func TestSTIXBundleParserGarbage(t *testing.T) {
	if _, err := (STIXBundleParser{}).Parse([]byte("{nope")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestEqualityValues(t *testing.T) {
	tests := []struct {
		pattern string
		want    int
	}{
		{pattern: "[a:b = 'x']", want: 1},
		{pattern: "[a:b = 'x' AND c:d = 'y'] FOLLOWEDBY [e:f = 'z']", want: 3},
		{pattern: "[a:b != 'x']", want: 0},
		{pattern: "[a:b NOT = 'x']", want: 0},
		{pattern: "[a:b > 5]", want: 0},
		{pattern: "not parseable", want: 0},
	}
	for _, tt := range tests {
		if got := len(equalityValues(tt.pattern)); got != tt.want {
			t.Errorf("equalityValues(%q) = %d values, want %d", tt.pattern, got, tt.want)
		}
	}
}

func TestTAXIIFeedThroughScheduler(t *testing.T) {
	srv, fetcher := taxiiRig(t)
	v := stix.NewVulnerability(stix.NewID(stix.TypeVulnerability), "CVE-2016-5195", "dirty cow", taxiiNow)
	if err := srv.AddObjects("shared", v); err != nil {
		t.Fatal(err)
	}
	sink, snapshot := collectSink()
	s := NewScheduler(sink)
	if err := s.Add(Feed{
		Name:     "peer-taxii",
		Category: "vulnerability-exploitation",
		Fetcher:  fetcher,
		Parser:   STIXBundleParser{},
		Interval: time.Minute,
	}); err != nil {
		t.Fatal(err)
	}
	s.PollOnce(context.Background())
	events := snapshot()
	if len(events) != 1 || events[0].Value != "CVE-2016-5195" {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Source != "peer-taxii" {
		t.Fatalf("source = %q", events[0].Source)
	}
}
