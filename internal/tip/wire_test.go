package tip

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/storage"
)

// discardResponse is a ResponseWriter that counts the body and keeps
// nothing, so a handler's own allocations can be measured.
type discardResponse struct {
	hdr  http.Header
	body int
}

func (d *discardResponse) Header() http.Header         { return d.hdr }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Write(p []byte) (int, error) { d.body += len(p); return len(p), nil }

// TestChangesPageServeAllocs pins what serving a warm change-feed page
// costs in memory: the page streams from the encode-once cache into a
// recycled compressor, so the bytes allocated per response stay a small
// fraction of the page, where a page-sized buffer plus a fresh
// gzip.Writer used to cost several times its size.
func TestChangesPageServeAllocs(t *testing.T) {
	s := newService(t)
	seedEvents(t, s, 100)
	api := NewAPI(s, "")
	req := httptest.NewRequest(http.MethodGet, "/events/changes?limit=100", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	serve := func() *discardResponse {
		w := &discardResponse{hdr: http.Header{}}
		api.ServeHTTP(w, req)
		return w
	}

	plain := httptest.NewRecorder()
	api.ServeHTTP(plain, httptest.NewRequest(http.MethodGet, "/events/changes?limit=100", nil))
	pageBytes := plain.Body.Len()
	if w := serve(); w.hdr.Get("Content-Encoding") != "gzip" || w.body == 0 || w.body >= pageBytes/2 {
		t.Fatalf("warm-up response: encoding %q, %d bytes of a %d-byte page", w.hdr.Get("Content-Encoding"), w.body, pageBytes)
	}

	// The median of per-response counts: a garbage collection (or the race
	// detector) may empty the pool now and then, a regression allocates on
	// every response.
	perPage := make([]int, 21)
	for i := range perPage {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		serve()
		runtime.ReadMemStats(&after)
		perPage[i] = int(after.TotalAlloc - before.TotalAlloc)
	}
	sort.Ints(perPage)
	// The ceiling is a fixed budget for the per-request bookkeeping (the
	// change slice, the item slice, headers, query parsing), well below
	// the page's own size.
	const ceiling = 16 << 10
	if median := perPage[len(perPage)/2]; median > ceiling || ceiling > pageBytes/2 {
		t.Fatalf("serving a %d-byte page allocated %d bytes, ceiling %d", pageBytes, median, ceiling)
	}
}

// TestEventListStreamEqualsIdentity serves one page carrying events,
// provenance and tombstones to many concurrent readers, gzip'd through
// the shared compressor pool and plain, and requires every body to be the
// same valid JSON, readable by a stock net/http client and by Client.
func TestEventListStreamEqualsIdentity(t *testing.T) {
	table := obs.NewProvTable(0)
	s := newService(t, WithName("node-a"), WithProvenance(table))
	uuids := seedEvents(t, s, 120)
	deleted := 0
	for u := range uuids {
		if err := s.DeleteEvent(u); err != nil {
			t.Fatal(err)
		}
		if deleted++; deleted == 20 {
			break
		}
	}
	srv := httptest.NewServer(NewAPI(s, ""))
	defer srv.Close()

	fetch := func(client *http.Client) ([]byte, error) {
		resp, err := client.Get(srv.URL + "/events/changes?limit=500")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}
	identity, err := fetch(&http.Client{Transport: &http.Transport{DisableCompression: true}})
	if err != nil {
		t.Fatal(err)
	}
	var items []struct {
		Event          *misp.Event
		EventTombstone *wireTombstone
		Provenance     *obs.Provenance
	}
	if err := json.Unmarshal(identity, &items); err != nil {
		t.Fatalf("identity page is not valid JSON: %v", err)
	}
	events, tombs := 0, 0
	for _, it := range items {
		switch {
		case it.Event != nil && it.Provenance != nil && it.Provenance.Origin == "node-a":
			events++
		case it.EventTombstone != nil:
			tombs++
		}
	}
	if events != 100 || tombs != 20 {
		t.Fatalf("page carries %d events with provenance and %d tombstones, want 100 and 20", events, tombs)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient(srv.URL, "")
			for i := 0; i < 10; i++ {
				// The stock client negotiates gzip and decompresses.
				body, err := fetch(http.DefaultClient)
				if err != nil || !bytes.Equal(body, identity) {
					t.Errorf("gzip'd page differs from the identity page (err %v)", err)
					return
				}
				changes, _, _, err := c.Changes(t.Context(), 0, 500)
				if err != nil || len(changes) != 120 {
					t.Errorf("Changes = %d entries, %v", len(changes), err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// What the client decodes is what encoding/json decodes.
	changes, _, _, err := NewClient(srv.URL, "").Changes(t.Context(), 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	for i, ch := range changes {
		it := items[i]
		if it.EventTombstone != nil {
			if ch.Event != nil || ch.UUID != it.EventTombstone.UUID || ch.DeletedAt.Unix() != it.EventTombstone.DeletedAt {
				t.Fatalf("entry %d: tombstone decoded as %+v", i, ch)
			}
			continue
		}
		if !reflect.DeepEqual(ch.Event, it.Event) || !reflect.DeepEqual(ch.Prov, it.Provenance) {
			t.Fatalf("entry %d: client and encoding/json disagree", i)
		}
	}
}

// TestClientReportsOversizedResponse: a body past the client's read limit
// is reported as such, not cut and handed to the JSON decoder.
func TestClientReportsOversizedResponse(t *testing.T) {
	chunk := bytes.Repeat([]byte{' '}, 1<<20)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte{'['})
		for i := 0; i < maxResponseBytes>>20; i++ {
			_, _ = w.Write(chunk)
		}
		_, _ = w.Write([]byte{']'})
	}))
	defer srv.Close()
	c := NewClient(srv.URL, "")
	_, _, _, err := c.ChangesPage(t.Context(), 0, 10)
	if err == nil || !strings.Contains(err.Error(), "response exceeds 32 MiB") {
		t.Fatalf("ChangesPage over an oversized body: %v", err)
	}
	if _, err := c.Export(t.Context(), "u", FormatMISPJSON); err == nil || !strings.Contains(err.Error(), "response exceeds 32 MiB") {
		t.Fatalf("Export over an oversized body: %v", err)
	}
}

// TestDeleteEventsAtSkipsAbsent: the batch entry point replication uses
// removes what the node holds and counts only that.
func TestDeleteEventsAtSkipsAbsent(t *testing.T) {
	s := newService(t)
	e := sampleEvent(t, "evt", "h.example")
	if _, err := s.AddEvent(e); err != nil {
		t.Fatal(err)
	}
	n, err := s.DeleteEventsAt([]storage.Deletion{{UUID: "00000000-0000-4000-8000-000000000000", At: now}, {UUID: e.UUID, At: now}})
	if err != nil || n != 1 {
		t.Fatalf("DeleteEventsAt = %d, %v; want 1", n, err)
	}
	if _, err := s.GetEvent(e.UUID); err == nil {
		t.Fatal("deleted event still served")
	}
}
