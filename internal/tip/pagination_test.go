package tip

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/caisplatform/caisp/internal/misp"
)

// seedEvents stores n events with identical timestamps — the worst case
// for a time-based cursor, where only the UUID tiebreak prevents pages
// from skipping or repeating entries.
func seedEvents(t *testing.T, s *Service, n int) map[string]bool {
	t.Helper()
	batch := make([]*misp.Event, n)
	for i := range batch {
		batch[i] = sampleEvent(t, "evt", "h.example")
	}
	if _, err := s.AddEvents(batch); err != nil {
		t.Fatal(err)
	}
	uuids := make(map[string]bool, n)
	for _, e := range batch {
		uuids[e.UUID] = true
	}
	return uuids
}

func TestHTTPListEventsPagination(t *testing.T) {
	s := newService(t)
	seedEvents(t, s, 7)
	srv := httptest.NewServer(NewAPI(s, ""))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/events/changes?limit=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(MoreHeader); got != "true" {
		t.Fatalf("%s = %q, want true with 7 events at limit 3", MoreHeader, got)
	}

	// The full list fits the default cap: no more pages.
	resp, err = http.Get(srv.URL + "/events/changes")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(MoreHeader); got != "false" {
		t.Fatalf("%s = %q, want false without a limit", MoreHeader, got)
	}
}

func TestClientChangesPagesThroughBacklog(t *testing.T) {
	s := newService(t)
	want := seedEvents(t, s, 12)
	srv := httptest.NewServer(NewAPI(s, ""))
	defer srv.Close()
	c := NewClient(srv.URL, "")

	page, _, more, err := c.ChangesPage(t.Context(), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 5 || !more {
		t.Fatalf("ChangesPage = %d events, more=%v; want 5, true", len(page), more)
	}

	all, _, more, err := c.ChangesPage(t.Context(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(want) || more {
		t.Fatalf("ChangesPage = %d events, more=%v; want %d, false", len(all), more, len(want))
	}
	for _, e := range all {
		if !want[e.UUID] {
			t.Fatalf("unexpected event %s", e.UUID)
		}
	}
}

func TestChangesPullPagesThroughRemote(t *testing.T) {
	remote := newService(t, WithName("remote"))
	want := seedEvents(t, remote, 17)
	srv := httptest.NewServer(NewAPI(remote, ""))
	defer srv.Close()

	local := newService(t, WithName("local"))
	n, _ := pullChanges(t, local, NewClient(srv.URL, ""), 0, 5)
	if n != len(want) || local.Len() != len(want) {
		t.Fatalf("pulled %d (stored %d), want %d", n, local.Len(), len(want))
	}
}

func TestStatsCarriesDurabilityCounters(t *testing.T) {
	s := newService(t)
	st := s.Stats()
	// Memory-only store: counters exist and are zero.
	if st.WALBytes != 0 || st.WALSegments != 0 || st.Compactions != 0 || st.LastCompactionMS != 0 {
		t.Fatalf("memory-only durability stats not zero: %+v", st)
	}
}
