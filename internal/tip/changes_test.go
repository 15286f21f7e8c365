package tip

import (
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestChangesPageEndToEnd drives the ingest-sequence feed over real
// HTTP through the client, with every event sharing one timestamp —
// the case the (timestamp, uuid) cursor cannot page soundly on a mesh.
func TestChangesPageEndToEnd(t *testing.T) {
	s := newService(t)
	want := seedEvents(t, s, 23)
	srv := httptest.NewServer(NewAPI(s, ""))
	defer srv.Close()
	c := NewClient(srv.URL, "")

	var (
		got   = make(map[string]bool)
		after uint64
		pages int
	)
	for {
		events, next, more, err := c.ChangesPage(t.Context(), after, 5)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		for _, e := range events {
			if got[e.UUID] {
				t.Fatalf("page %d repeated event %s", pages, e.UUID)
			}
			got[e.UUID] = true
		}
		if !more {
			break
		}
		after = next
		if len(events) == 0 {
			t.Fatal("non-final page returned no events")
		}
	}
	if len(got) != len(want) || pages != 5 {
		t.Fatalf("paged %d events in %d pages, want %d in 5", len(got), pages, len(want))
	}

	// Past the head: an empty page, more=false, and the cursor holds.
	events, next, more, err := c.ChangesPage(t.Context(), 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 || more || next != 1000 {
		t.Fatalf("past-head page: %d events, more=%v, next=%d", len(events), more, next)
	}
}

func TestChangesEndpointRejectsBadParams(t *testing.T) {
	s := newService(t)
	srv := httptest.NewServer(NewAPI(s, ""))
	defer srv.Close()
	for _, bad := range []string{"after=-1", "after=x", "limit=0", "limit=x"} {
		resp, err := http.Get(srv.URL + "/events/changes?" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestEventListGzip checks the negotiated compression on the change
// feed: large pages travel gzip-encoded, small ones and clients without
// Accept-Encoding get identity.
func TestEventListGzip(t *testing.T) {
	s := newService(t)
	seedEvents(t, s, 200) // well past gzipMinBytes encoded
	srv := httptest.NewServer(NewAPI(s, ""))
	defer srv.Close()

	// Raw transport: no transparent decompression, headers stay visible.
	raw := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	get := func(path, accept string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequestWithContext(t.Context(), http.MethodGet, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept-Encoding", accept)
		}
		resp, err := raw.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	const path = "/events/changes"
	resp, body := get(path, "gzip")
	if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("%s: Content-Encoding = %q, want gzip", path, enc)
	}
	zr, err := gzip.NewReader(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s: decompress: %v", path, err)
	}
	if !strings.Contains(string(plain), `"Event"`) {
		t.Fatalf("%s: decompressed body is not an event list", path)
	}

	resp, body = get(path, "")
	if enc := resp.Header.Get("Content-Encoding"); enc != "" {
		t.Fatalf("%s without Accept-Encoding: Content-Encoding = %q", path, enc)
	}
	if !strings.Contains(string(body), `"Event"`) {
		t.Fatalf("%s: identity body is not an event list", path)
	}

	// A page below the threshold stays identity even when gzip is offered.
	resp, _ = get(path+"?limit=1", "gzip")
	if enc := resp.Header.Get("Content-Encoding"); enc != "" {
		t.Fatalf("small page compressed: Content-Encoding = %q", enc)
	}
}

// TestClientTransparentGzip confirms the default client decompresses
// negotiated pages invisibly: ChangesPage over a large backlog returns
// intact events.
func TestClientTransparentGzip(t *testing.T) {
	s := newService(t)
	want := seedEvents(t, s, 300)
	srv := httptest.NewServer(NewAPI(s, ""))
	defer srv.Close()
	c := NewClient(srv.URL, "")
	events, _, _, err := c.ChangesPage(t.Context(), 0, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(want) {
		t.Fatalf("got %d events, want %d", len(events), len(want))
	}
	for _, e := range events {
		if !want[e.UUID] {
			t.Fatalf("unknown event %s", e.UUID)
		}
	}
}
