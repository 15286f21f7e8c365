package feed

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/obs"
)

func TestPlaintextParser(t *testing.T) {
	doc := `# malware domains feed
evil.example
; another comment style

bad.example # inline comment
hxxp://defanged[.]example/path
`
	records, err := PlaintextParser{}.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"evil.example", "bad.example", "hxxp://defanged[.]example/path"}
	if len(records) != len(want) {
		t.Fatalf("got %d records, want %d: %+v", len(records), len(want), records)
	}
	for i, rec := range records {
		if rec.Value != want[i] {
			t.Errorf("record %d = %q, want %q", i, rec.Value, want[i])
		}
	}
}

func TestCSVParserWithHeader(t *testing.T) {
	doc := "indicator,first_seen,description\nevil.example,2019-06-01,c2 host\n203.0.113.7,2019-06-02,\n"
	records, err := CSVParser{ValueColumn: 0, HasHeader: true}.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("got %d records", len(records))
	}
	if records[0].Value != "evil.example" || records[0].Context["description"] != "c2 host" {
		t.Fatalf("record 0 = %+v", records[0])
	}
	if records[0].Context["first_seen"] != "2019-06-01" {
		t.Fatalf("header-named context missing: %+v", records[0].Context)
	}
	if _, ok := records[1].Context["description"]; ok {
		t.Fatal("empty field should not enter context")
	}
}

func TestCSVParserNoHeaderCustomDelimiter(t *testing.T) {
	doc := "203.0.113.7|scanner|22\n203.0.113.8|bruteforce|23\n"
	records, err := CSVParser{Comma: '|', ValueColumn: 0}.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("got %d records", len(records))
	}
	if records[0].Context["col1"] != "scanner" || records[0].Context["col2"] != "22" {
		t.Fatalf("context = %+v", records[0].Context)
	}
}

func TestCSVParserComments(t *testing.T) {
	doc := "# header comment\n1.2.3.4,x\n"
	records, err := CSVParser{ValueColumn: 0, Comment: '#'}.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0].Value != "1.2.3.4" {
		t.Fatalf("records = %+v", records)
	}
}

func TestCSVParserShortRowsSkipped(t *testing.T) {
	doc := "a,b\nvalue-only\n"
	records, err := CSVParser{ValueColumn: 1}.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0].Value != "b" {
		t.Fatalf("records = %+v", records)
	}
}

func TestMISPFeedParserSingleEvent(t *testing.T) {
	e := misp.NewEvent("OSINT feed event", time.Date(2019, 6, 24, 0, 0, 0, 0, time.UTC))
	e.AddAttribute("domain", "Network activity", "evil.example", e.Timestamp.Time).Comment = "c2"
	e.AddAttribute("ip-dst", "Network activity", "203.0.113.7", e.Timestamp.Time)
	data, err := misp.MarshalWrapped(e)
	if err != nil {
		t.Fatal(err)
	}
	records, err := MISPFeedParser{}.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("got %d records", len(records))
	}
	if records[0].Value != "evil.example" || records[0].Context["misp_type"] != "domain" {
		t.Fatalf("record 0 = %+v", records[0])
	}
	if records[0].Context["description"] != "c2" {
		t.Fatalf("comment not propagated: %+v", records[0].Context)
	}
}

func TestMISPFeedParserArray(t *testing.T) {
	now := time.Date(2019, 6, 24, 0, 0, 0, 0, time.UTC)
	e1 := misp.NewEvent("one", now)
	e1.AddAttribute("domain", "Network activity", "a.example", now)
	e2 := misp.NewEvent("two", now)
	e2.AddAttribute("domain", "Network activity", "b.example", now)
	doc := fmt.Sprintf(`[{"Event":%s},{"Event":%s}]`, mustJSON(t, e1), mustJSON(t, e2))
	records, err := MISPFeedParser{}.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("got %d records", len(records))
	}
}

func TestMISPFeedParserRejectsGarbage(t *testing.T) {
	if _, err := (MISPFeedParser{}).Parse([]byte(`{"not":"an event"}`)); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := (MISPFeedParser{}).Parse([]byte(`[{"not":"wrapped"`)); err == nil {
		t.Fatal("truncated array accepted")
	}
}

func TestAdvisoryParser(t *testing.T) {
	doc := `[
	  {"cve":"CVE-2017-9805","description":"Apache Struts RCE",
	   "cvss3":"CVSS:3.0/AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H",
	   "products":["apache struts","apache"],"os":"debian",
	   "published":"2017-09-13","references":["https://capec.example/248"]},
	  {"cve":"","description":"missing id is skipped"},
	  {"cve":"CVE-2019-0001","cvss2":"AV:N/AC:L/Au:N/C:P/I:P/A:P"}
	]`
	records, err := AdvisoryParser{}.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("got %d records, want 2", len(records))
	}
	first := records[0]
	if first.Value != "CVE-2017-9805" {
		t.Fatalf("value = %q", first.Value)
	}
	for _, key := range []string{"description", "cvss-vector", "products", "os", "published", "references"} {
		if first.Context[key] == "" {
			t.Errorf("context[%s] empty: %+v", key, first.Context)
		}
	}
	if records[1].Context["cvss2-vector"] == "" {
		t.Fatalf("cvss2 fallback missing: %+v", records[1].Context)
	}
}

func TestAdvisoryParserRejectsGarbage(t *testing.T) {
	if _, err := (AdvisoryParser{}).Parse([]byte(`{"not":"array"}`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestHTTPFetcherConditionalGet(t *testing.T) {
	var requests int
	var gotINM string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests++
		gotINM = r.Header.Get("If-None-Match")
		if gotINM == `"v1"` {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("ETag", `"v1"`)
		fmt.Fprintln(w, "evil.example")
	}))
	defer srv.Close()

	f := &HTTPFetcher{URL: srv.URL}
	data, notModified, err := f.Fetch(context.Background())
	if err != nil || notModified {
		t.Fatalf("first fetch: %v %v", notModified, err)
	}
	if string(data) != "evil.example\n" {
		t.Fatalf("data = %q", data)
	}
	_, notModified, err = f.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !notModified {
		t.Fatal("second fetch should be not-modified")
	}
	if requests != 2 || gotINM != `"v1"` {
		t.Fatalf("requests=%d, If-None-Match=%q", requests, gotINM)
	}
}

func TestHTTPFetcherErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	f := &HTTPFetcher{URL: srv.URL}
	if _, _, err := f.Fetch(context.Background()); err == nil {
		t.Fatal("500 not reported")
	}
	f2 := &HTTPFetcher{URL: "http://127.0.0.1:1/unreachable"}
	if _, _, err := f2.Fetch(context.Background()); err == nil {
		t.Fatal("connection error not reported")
	}
}

func TestHTTPFetcherSizeLimit(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "0123456789")
	}))
	defer srv.Close()
	f := &HTTPFetcher{URL: srv.URL, MaxBytes: 5}
	if _, _, err := f.Fetch(context.Background()); err == nil {
		t.Fatal("oversized body accepted")
	}
}

func TestFileFetcher(t *testing.T) {
	path := filepath.Join(t.TempDir(), "feed.txt")
	if err := os.WriteFile(path, []byte("evil.example\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f := &FileFetcher{Path: path}
	data, notModified, err := f.Fetch(context.Background())
	if err != nil || notModified {
		t.Fatalf("first fetch: %v %v", notModified, err)
	}
	if string(data) != "evil.example\n" {
		t.Fatalf("data = %q", data)
	}
	_, notModified, err = f.Fetch(context.Background())
	if err != nil || !notModified {
		t.Fatalf("second fetch: notModified=%v err=%v", notModified, err)
	}
	// Touch the file into the future → modified again.
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	_, notModified, err = f.Fetch(context.Background())
	if err != nil || notModified {
		t.Fatalf("after touch: notModified=%v err=%v", notModified, err)
	}
	missing := &FileFetcher{Path: filepath.Join(t.TempDir(), "absent")}
	if _, _, err := missing.Fetch(context.Background()); err == nil {
		t.Fatal("missing file not reported")
	}
}

func collectSink() (func([]normalize.Event), func() []normalize.Event) {
	var mu sync.Mutex
	var events []normalize.Event
	sink := func(batch []normalize.Event) {
		mu.Lock()
		events = append(events, batch...)
		mu.Unlock()
	}
	snapshot := func() []normalize.Event {
		mu.Lock()
		defer mu.Unlock()
		out := make([]normalize.Event, len(events))
		copy(out, events)
		return out
	}
	return sink, snapshot
}

func TestSchedulerPollOnce(t *testing.T) {
	sink, snapshot := collectSink()
	fake := clock.NewFake(time.Date(2019, 6, 24, 10, 0, 0, 0, time.UTC))
	s := NewScheduler(sink, WithClock(fake))
	err := s.Add(Feed{
		Name:     "malware-domains",
		Category: normalize.CategoryMalwareDomain,
		Fetcher:  &StaticFetcher{Data: []byte("evil.example\nbad.example\nnot a valid value with spaces\n")},
		Parser:   PlaintextParser{},
		Interval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.PollOnce(context.Background())
	events := snapshot()
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	if events[0].Source != "malware-domains" || events[0].Category != normalize.CategoryMalwareDomain {
		t.Fatalf("provenance wrong: %+v", events[0])
	}
	if !events[0].FirstSeen.Equal(fake.Now()) {
		t.Fatalf("seen time = %v, want %v", events[0].FirstSeen, fake.Now())
	}
	st := s.Stats()["malware-domains"]
	if st.Fetches != 1 || st.Records != 3 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSchedulerValidation(t *testing.T) {
	s := NewScheduler(func([]normalize.Event) {})
	if err := s.Add(Feed{Name: ""}); err == nil {
		t.Fatal("empty feed accepted")
	}
	valid := Feed{
		Name:     "f",
		Fetcher:  &StaticFetcher{},
		Parser:   PlaintextParser{},
		Interval: time.Second,
	}
	if err := s.Add(valid); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(valid); err == nil {
		t.Fatal("duplicate name accepted")
	}
	bad := valid
	bad.Name = "g"
	bad.Interval = 0
	if err := s.Add(bad); err == nil {
		t.Fatal("zero interval accepted")
	}
}

func TestSchedulerPeriodicPolling(t *testing.T) {
	sink, snapshot := collectSink()
	fake := clock.NewFake(time.Unix(0, 0))
	s := NewScheduler(sink, WithClock(fake))

	fetcher := &countingFetcher{}
	if err := s.Add(Feed{
		Name:     "periodic",
		Category: normalize.CategoryScanner,
		Fetcher:  fetcher,
		Parser:   PlaintextParser{},
		Interval: time.Minute,
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Run(ctx)
	}()
	// The loop re-arms its timer once a poll has delivered: each
	// BlockUntil below returns after the poll before it.
	for polls := 1; polls <= 3; polls++ {
		fake.BlockUntil(1)
		if got := len(snapshot()); got != polls {
			t.Fatalf("%d events after %d polls, want %d", got, polls, polls)
		}
		fake.Advance(time.Minute)
	}
	cancel()
	<-done
	if err := s.Add(Feed{Name: "late", Fetcher: fetcher, Parser: PlaintextParser{}, Interval: time.Minute}); err == nil {
		t.Fatal("Add accepted after Run")
	}

	st := s.Stats()["periodic"]
	if st.Fetches < 3 {
		t.Fatalf("fetches = %d, want ≥ 3", st.Fetches)
	}
	if got := len(s.Stats()); got != 1 {
		t.Fatalf("stats for %d feeds, want the one registered", got)
	}
}

// recordsParser hands back its records whatever the document.
type recordsParser []Record

func (p recordsParser) Parse([]byte) ([]Record, error) { return p, nil }

// TestSchedulerErrorAndMalformedCounters polls a failing feed, an
// unparsable one and one with a malformed record twice on a pool of four
// (the static fetchers answer the second poll not-modified): each feed's
// Stats equals its caisp_feed_* series, and the {feed} label set is the
// feeds added. Run under -race.
func TestSchedulerErrorAndMalformedCounters(t *testing.T) {
	sink, _ := collectSink()
	reg := obs.NewRegistry()
	s := NewScheduler(sink, WithConcurrency(4), WithMetrics(reg))
	for _, f := range []Feed{
		{Name: "broken", Fetcher: &failingFetcher{}, Parser: PlaintextParser{}},
		{Name: "unparsable", Fetcher: &StaticFetcher{Data: []byte(`{"not":"advisories"}`)}, Parser: AdvisoryParser{}},
		{Name: "mixed", Fetcher: &StaticFetcher{Data: []byte("-")},
			Parser: recordsParser{{Value: "evil.example"}, {Value: " "}, {Value: "bad.example"}}},
	} {
		f.Interval = time.Minute
		if err := s.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	s.PollOnce(context.Background())
	s.PollOnce(context.Background())
	stats := s.Stats()
	for name, want := range map[string]Stats{
		"broken":     {Fetches: 2, Errors: 2},
		"unparsable": {Fetches: 2, Errors: 1, NotModified: 1},
		"mixed":      {Fetches: 2, NotModified: 1, Records: 2, Malformed: 1},
	} {
		if stats[name] != want {
			t.Errorf("%s stats = %+v, want %+v", name, stats[name], want)
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exposition := sb.String()
	for family, field := range map[string]func(Stats) int{
		"caisp_feed_fetches_total":      func(st Stats) int { return st.Fetches },
		"caisp_feed_errors_total":       func(st Stats) int { return st.Errors },
		"caisp_feed_not_modified_total": func(st Stats) int { return st.NotModified },
		"caisp_feed_records_total":      func(st Stats) int { return st.Records },
		"caisp_feed_malformed_total":    func(st Stats) int { return st.Malformed },
	} {
		if n := strings.Count(exposition, "\n"+family+"{"); n != len(stats) {
			t.Errorf("%s has %d series, want one per feed (%d)", family, n, len(stats))
		}
		for name, st := range stats {
			if line := fmt.Sprintf("\n%s{feed=%q} %d\n", family, name, field(st)); !strings.Contains(exposition, line) {
				t.Errorf("exposition lacks %q", strings.TrimSpace(line))
			}
		}
	}
}

type countingFetcher struct {
	mu sync.Mutex
	n  int
}

func (f *countingFetcher) Fetch(context.Context) ([]byte, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	return []byte(fmt.Sprintf("host-%d.example\n", f.n)), false, nil
}

type failingFetcher struct{}

func (failingFetcher) Fetch(context.Context) ([]byte, bool, error) {
	return nil, false, fmt.Errorf("synthetic outage")
}

func mustJSON(t *testing.T, e *misp.Event) string {
	t.Helper()
	data, err := misp.MarshalWrapped(e)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the {"Event": …} wrapper; callers re-wrap.
	return string(data[9 : len(data)-1])
}

func TestSchedulerBacksOffAfterErrors(t *testing.T) {
	sink, _ := collectSink()
	start := time.Unix(0, 0)
	fake := clock.NewFake(start)
	s := NewScheduler(sink, WithClock(fake))
	fetcher := &flakyFetcher{clk: fake, failuresRemaining: 100, fetched: make(chan time.Time, 8)}
	if err := s.Add(Feed{
		Name:     "flaky",
		Fetcher:  fetcher,
		Parser:   PlaintextParser{},
		Interval: time.Minute,
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()

	// fetchAt waits for the next fetch and checks the fake instant it
	// ran at. Every Advance first waits for the loop's timer to be
	// pending, so a poll fired early has run and re-armed before the
	// clock moves on, and would be seen at the earlier instant.
	fetchAt := func(after time.Duration) {
		t.Helper()
		select {
		case at := <-fetcher.fetched:
			if want := start.Add(after); !at.Equal(want) {
				t.Fatalf("fetch at +%v, want +%v", at.Sub(start), after)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("no fetch at +%v", after)
		}
	}
	advance := func(d time.Duration) {
		fake.BlockUntil(1)
		fake.Advance(d)
	}

	fetchAt(0) // the immediate poll fails

	// After one failure the next wait is 2× interval: advancing by one
	// interval must NOT trigger a poll; a further advance past 2× must.
	advance(time.Minute)
	advance(time.Minute)
	fetchAt(2 * time.Minute)

	// After two failures the wait is 4× interval.
	advance(3 * time.Minute)
	advance(time.Minute)
	fetchAt(6 * time.Minute)

	// A success resets the backoff to the plain interval.
	fetcher.succeedNow()
	advance(8 * time.Minute) // clears the current (8×) backoff
	fetchAt(14 * time.Minute)
	advance(time.Minute)
	fetchAt(15 * time.Minute)
	fake.BlockUntil(1) // the fifth poll has been counted and the loop re-armed
	if got := s.Stats()["flaky"].Fetches; got != 5 {
		t.Fatalf("fetches = %d, want 5", got)
	}
}

// flakyFetcher fails until succeedNow, sending the fake instant of each
// fetch on fetched.
type flakyFetcher struct {
	clk               *clock.Fake
	fetched           chan time.Time
	mu                sync.Mutex
	failuresRemaining int
}

func (f *flakyFetcher) succeedNow() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failuresRemaining = 0
}

func (f *flakyFetcher) Fetch(context.Context) ([]byte, bool, error) {
	f.fetched <- f.clk.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failuresRemaining > 0 {
		f.failuresRemaining--
		return nil, false, fmt.Errorf("synthetic outage")
	}
	return []byte("ok.example\n"), false, nil
}
