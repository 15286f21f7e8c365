package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/core"
	"github.com/caisplatform/caisp/internal/daemon"
	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/feedgen"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/sessions"
)

func TestBuildFeedsSynthetic(t *testing.T) {
	feeds, err := buildFeeds("", 1, 10, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(feeds) != len(feedgen.AllFeeds) {
		t.Fatalf("feeds = %d", len(feeds))
	}
}

func TestBuildFeedsFromDirectory(t *testing.T) {
	dir := t.TempDir()
	gen := feedgen.New(feedgen.Config{Seed: 1, Items: 10})
	if err := gen.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	feeds, err := buildFeeds(dir, 1, 10, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(feeds) != len(feedgen.AllFeeds) {
		t.Fatalf("feeds = %d", len(feeds))
	}
	byName := make(map[string]feed.Feed)
	for _, f := range feeds {
		byName[f.Name] = f
	}
	if byName["vuln-advisories"].Category != normalize.CategoryVulnExploit {
		t.Fatalf("advisory category = %q", byName["vuln-advisories"].Category)
	}
	if _, ok := byName["osint-misp"].Parser.(feed.MISPFeedParser); !ok {
		t.Fatalf("misp feed parser = %T", byName["osint-misp"].Parser)
	}
	if _, ok := byName["botnet-ips"].Parser.(feed.CSVParser); !ok {
		t.Fatalf("csv feed parser = %T", byName["botnet-ips"].Parser)
	}
	if _, err := buildFeeds(t.TempDir(), 1, 10, time.Minute); err == nil {
		t.Fatal("empty directory accepted")
	}
}

func TestIngestAlarmsAndSessions(t *testing.T) {
	platform, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer platform.Close()

	alarmPath := filepath.Join(t.TempDir(), "alerts.log")
	alarmData := "Jun 24 12:00:01 node4 snort[99]: [1:2019401:3] struts RCE {TCP} 198.51.100.9:4444 -> 10.0.0.14:8080 [Priority: 1]\nbroken line\n"
	if err := os.WriteFile(alarmPath, []byte(alarmData), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ingestAlarms(platform, alarmPath); err != nil {
		t.Fatal(err)
	}
	if got := len(platform.Collector().AlarmsForNode("node4")); got != 1 {
		t.Fatalf("node4 alarms = %d", got)
	}
	if err := ingestAlarms(platform, filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("missing alarm file accepted")
	}

	sessPath := filepath.Join(t.TempDir(), "sessions.json")
	recorded := []sessions.Session{
		{ID: "s1", User: "alice", Actions: []sessions.Action{{Name: "login"}, {Name: "logout"}}},
		{ID: "", User: "broken"}, // skipped, not fatal
	}
	data, err := json.Marshal(recorded)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sessPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := loadSessions(platform, sessPath); err != nil {
		t.Fatal(err)
	}
	badPath := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badPath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := loadSessions(platform, badPath); err == nil {
		t.Fatal("bad sessions file accepted")
	}
}

func TestParserAndCategoryMapping(t *testing.T) {
	if _, ok := parserForFile("x.txt").(feed.PlaintextParser); !ok {
		t.Fatal("txt parser wrong")
	}
	if _, ok := parserForFile("x.csv").(feed.CSVParser); !ok {
		t.Fatal("csv parser wrong")
	}
	if _, ok := parserForFile("vuln-advisories.json").(feed.AdvisoryParser); !ok {
		t.Fatal("advisory parser wrong")
	}
	if got := feedgen.FeedCategory("phishing-urls"); got != normalize.CategoryPhishing {
		t.Fatalf("category = %q", got)
	}
	if got := feedgen.FeedCategory("anything-else"); got != normalize.CategoryUnknown {
		t.Fatalf("fallback category = %q", got)
	}
}

func TestWithReportEndpoint(t *testing.T) {
	platform, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer platform.Close()
	srv := httptest.NewServer(withReport(daemon.New(platform.Metrics()), platform, "", true))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "# CAISP situation report") {
		t.Fatalf("report body unexpected:\n%s", body)
	}
	// The dashboard still answers underneath.
	resp2, err := http.Get(srv.URL + "/api/topology")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("topology status = %d", resp2.StatusCode)
	}

	// The observability surfaces are mounted next to it.
	for path, wantBody := range map[string]string{
		"/metrics":        "# TYPE caisp_",
		"/debug/traces":   "[",
		"/debug/pprof/":   "profiles",
		"/stats":          "events_collected",
		"/healthz":        "ok",
		"/readyz":         `"status":"ok"`,
		"/cluster/status": `"role":"caispd"`,
	} {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", path, r.StatusCode)
		}
		if !strings.Contains(string(b), wantBody) {
			t.Fatalf("%s body missing %q:\n%s", path, wantBody, b)
		}
	}
}
