package taxii

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/stix"
)

var now = time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC)

// tickingClock advances a second on every read, so each added object
// gets its own date_added.
type tickingClock struct{ *clock.Fake }

func (c tickingClock) Now() time.Time {
	c.Advance(time.Second)
	return c.Fake.Now()
}

func testServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	opts = append([]Option{WithClock(tickingClock{clock.NewFake(now)})}, opts...)
	s := NewServer("CAISP TAXII", "caisp", opts...)
	s.AddCollection("eiocs", "Enriched IoCs", "eIoCs shared by the platform", true)
	s.AddCollection("readonly", "Read-only", "", false)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, srv
}

func vuln(t *testing.T, name string) *stix.Vulnerability {
	t.Helper()
	return stix.NewVulnerability(stix.NewID(stix.TypeVulnerability), name, "test", now)
}

func TestDiscoveryAndCollections(t *testing.T) {
	_, srv := testServer(t)
	c := NewClient(srv.URL, "")

	d, err := c.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if d.Title != "CAISP TAXII" || len(d.APIRoots) != 1 || d.APIRoots[0] != "/caisp/" {
		t.Fatalf("discovery = %+v", d)
	}
	cols, err := c.Collections("caisp")
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 {
		t.Fatalf("collections = %+v", cols)
	}
	if cols[0].ID != "eiocs" || !cols[0].CanWrite || cols[1].CanWrite {
		t.Fatalf("collection metadata wrong: %+v", cols)
	}
}

func TestServerSideAddAndClientRead(t *testing.T) {
	s, srv := testServer(t)
	if err := s.AddObjects("eiocs", vuln(t, "CVE-2017-9805"), vuln(t, "CVE-2019-0001")); err != nil {
		t.Fatal(err)
	}
	if s.ObjectCount("eiocs") != 2 {
		t.Fatalf("ObjectCount = %d", s.ObjectCount("eiocs"))
	}
	c := NewClient(srv.URL, "")
	objs, err := c.AllObjects("caisp", "eiocs", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("fetched %d objects", len(objs))
	}
	if objs[0].GetCommon().Type != stix.TypeVulnerability {
		t.Fatalf("object type = %q", objs[0].GetCommon().Type)
	}
	if err := s.AddObjects("ghost", vuln(t, "x")); err == nil {
		t.Fatal("unknown collection accepted")
	}
}

func TestClientPush(t *testing.T) {
	s, srv := testServer(t)
	c := NewClient(srv.URL, "")
	st, err := c.AddObjects("caisp", "eiocs", vuln(t, "CVE-2020-0001"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != "complete" || st.SuccessCount != 1 || st.FailureCount != 0 {
		t.Fatalf("status = %+v", st)
	}
	if s.ObjectCount("eiocs") != 1 {
		t.Fatalf("server count = %d", s.ObjectCount("eiocs"))
	}
	// Read-only collection refuses writes.
	if _, err := c.AddObjects("caisp", "readonly", vuln(t, "x")); err == nil {
		t.Fatal("write to read-only collection accepted")
	}
}

func TestPagination(t *testing.T) {
	s, srv := testServer(t)
	var objs []stix.Object
	for i := 0; i < 25; i++ {
		objs = append(objs, vuln(t, "CVE-2020-"+strings.Repeat("0", 3)+string(rune('a'+i))))
	}
	if err := s.AddObjects("eiocs", objs...); err != nil {
		t.Fatal(err)
	}
	c := NewClient(srv.URL, "")

	env, err := c.ObjectsPage("caisp", "eiocs", time.Time{}, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Objects) != 10 || !env.More || env.Next == "" {
		t.Fatalf("page 1 = %d objects, more=%v", len(env.Objects), env.More)
	}
	env2, err := c.ObjectsPage("caisp", "eiocs", time.Time{}, 10, env.Next)
	if err != nil {
		t.Fatal(err)
	}
	if len(env2.Objects) != 10 || !env2.More {
		t.Fatalf("page 2 = %d objects, more=%v", len(env2.Objects), env2.More)
	}
	env3, err := c.ObjectsPage("caisp", "eiocs", time.Time{}, 10, env2.Next)
	if err != nil {
		t.Fatal(err)
	}
	if len(env3.Objects) != 5 || env3.More {
		t.Fatalf("page 3 = %d objects, more=%v", len(env3.Objects), env3.More)
	}
	// AllObjects pages transparently.
	all, err := c.AllObjects("caisp", "eiocs", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 25 {
		t.Fatalf("AllObjects = %d", len(all))
	}
}

func TestAddedAfterFilter(t *testing.T) {
	s, srv := testServer(t)
	if err := s.AddObjects("eiocs", vuln(t, "early")); err != nil {
		t.Fatal(err)
	}
	// The fake clock advances one second per call; the second object is
	// added strictly later.
	if err := s.AddObjects("eiocs", vuln(t, "late")); err != nil {
		t.Fatal(err)
	}
	c := NewClient(srv.URL, "")
	all, err := c.AllObjects("caisp", "eiocs", time.Time{})
	if err != nil || len(all) != 2 {
		t.Fatalf("unfiltered = %d, %v", len(all), err)
	}
	filtered, err := c.AllObjects("caisp", "eiocs", now.Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered) != 1 {
		t.Fatalf("added_after = %d objects, want 1", len(filtered))
	}
}

func TestTypeAndIDMatchFilters(t *testing.T) {
	s, srv := testServer(t)
	v := vuln(t, "CVE-2020-1111")
	ind := stix.NewIndicator(stix.NewID(stix.TypeIndicator), "[domain-name:value = 'x.example']", []string{"malicious-activity"}, now)
	if err := s.AddObjects("eiocs", v, ind); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/caisp/collections/eiocs/objects/?match%5Btype%5D=vulnerability")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env Envelope
	if err := decode(resp, &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Objects) != 1 {
		t.Fatalf("type filter = %d objects", len(env.Objects))
	}
	resp2, err := http.Get(srv.URL + "/caisp/collections/eiocs/objects/?match%5Bid%5D=" + ind.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var env2 Envelope
	if err := decode(resp2, &env2); err != nil {
		t.Fatal(err)
	}
	if len(env2.Objects) != 1 {
		t.Fatalf("id filter = %d objects", len(env2.Objects))
	}
}

func TestAuthentication(t *testing.T) {
	_, srv := testServer(t, WithAPIKey("taxii-secret"))
	anon := NewClient(srv.URL, "")
	if _, err := anon.Discover(); err == nil {
		t.Fatal("anonymous access accepted")
	}
	authed := NewClient(srv.URL, "taxii-secret")
	if _, err := authed.Discover(); err != nil {
		t.Fatal(err)
	}
}

func TestBadRequests(t *testing.T) {
	_, srv := testServer(t)
	for _, path := range []string{
		"/caisp/collections/ghost/objects/",
		"/caisp/collections/ghost/",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404", path, resp.StatusCode)
		}
	}
	for _, query := range []string{"added_after=yesterday", "limit=-1", "limit=zero", "next=abc"} {
		resp, err := http.Get(srv.URL + "/caisp/collections/eiocs/objects/?" + query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q status = %d, want 400", query, resp.StatusCode)
		}
	}
	resp, err := http.Post(srv.URL+"/caisp/collections/eiocs/objects/", ContentType, strings.NewReader("{bad"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad envelope status = %d", resp.StatusCode)
	}
	// An envelope one byte over the advertised max_content_length.
	over := `{"objects":[` + strings.Repeat(" ", maxContentLength-13) + `]}`
	resp, err = http.Post(srv.URL+"/caisp/collections/eiocs/objects/", ContentType, strings.NewReader(over))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized envelope status = %d, want 413", resp.StatusCode)
	}
}

func TestContentType(t *testing.T) {
	_, srv := testServer(t)
	resp, err := http.Get(srv.URL + "/taxii2/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != ContentType {
		t.Fatalf("Content-Type = %q", got)
	}
}

func decode(resp *http.Response, out any) error {
	return json.NewDecoder(resp.Body).Decode(out)
}

func TestManifest(t *testing.T) {
	s, srv := testServer(t)
	v1 := vuln(t, "CVE-2020-0001")
	v2 := vuln(t, "CVE-2020-0002")
	if err := s.AddObjects("eiocs", v1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddObjects("eiocs", v2); err != nil {
		t.Fatal(err)
	}
	c := NewClient(srv.URL, "")
	manifest := func(collection string, addedAfter time.Time) ([]ManifestEntry, error) {
		params := url.Values{}
		if !addedAfter.IsZero() {
			params.Set("added_after", addedAfter.UTC().Format(time.RFC3339))
		}
		var m Manifest
		err := c.get("/caisp/collections/"+collection+"/manifest/", params, &m)
		return m.Objects, err
	}
	entries, err := manifest("eiocs", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].ID != v1.ID || entries[0].Version == "" {
		t.Fatalf("entry = %+v", entries[0])
	}
	// added_after filters (the fake clock ticks per AddObjects call).
	filtered, err := manifest("eiocs", entries[0].DateAdded)
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered) != 1 || filtered[0].ID != v2.ID {
		t.Fatalf("filtered = %+v", filtered)
	}
	if _, err := manifest("ghost", time.Time{}); err == nil {
		t.Fatal("unknown collection accepted")
	}
}

// TestClientReportsOversizedResponse: a well-formed body one byte past
// the client's read limit is reported as such, not cut and handed to
// the JSON decoder.
func TestClientReportsOversizedResponse(t *testing.T) {
	body := append(append([]byte{'{'}, bytes.Repeat([]byte{' '}, maxResponseBytes-1)...), '}')
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
		}
		_, _ = w.Write(body)
	}))
	defer srv.Close()
	c := NewClient(srv.URL, "")
	if _, err := c.Discover(); err == nil || !strings.Contains(err.Error(), "response exceeds 32 MiB") {
		t.Fatalf("Discover over an oversized body: %v", err)
	}
	if _, err := c.AddObjects("caisp", "eiocs", vuln(t, "CVE-2020-0001")); err == nil || !strings.Contains(err.Error(), "response exceeds 32 MiB") {
		t.Fatalf("AddObjects over an oversized body: %v", err)
	}
}
