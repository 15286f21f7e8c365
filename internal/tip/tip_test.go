package tip

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/bus"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/stix"
	"github.com/caisplatform/caisp/internal/storage"
)

var now = time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC)

func newService(t *testing.T, opts ...Option) *Service {
	t.Helper()
	store, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return NewService(store, opts...)
}

func sampleEvent(t testing.TB, info, value string) *misp.Event {
	t.Helper()
	e := misp.NewEvent(info, now)
	e.AddAttribute("domain", "Network activity", value, now)
	return e
}

func TestAddGetDelete(t *testing.T) {
	s := newService(t)
	e := sampleEvent(t, "evt", "evil.example")
	correlated, err := s.AddEvent(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(correlated) != 0 {
		t.Fatalf("first event correlated with %v", correlated)
	}
	got, err := s.GetEvent(e.UUID)
	if err != nil || got.Info != "evt" {
		t.Fatalf("GetEvent = %+v, %v", got, err)
	}
	if err := s.DeleteEvent(e.UUID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetEvent(e.UUID); err == nil {
		t.Fatal("deleted event still readable")
	}
	if _, err := s.AddEvent(nil); err == nil {
		t.Fatal("nil event accepted")
	}
}

func TestAutomaticCorrelation(t *testing.T) {
	s := newService(t)
	a := sampleEvent(t, "a", "shared.example")
	if _, err := s.AddEvent(a); err != nil {
		t.Fatal(err)
	}
	b := sampleEvent(t, "b", "shared.example")
	correlated, err := s.AddEvent(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(correlated) != 1 || correlated[0] != a.UUID {
		t.Fatalf("correlated = %v, want [%s]", correlated, a.UUID)
	}
}

func TestBusPublicationOnAddAndEdit(t *testing.T) {
	broker := bus.NewBroker()
	defer broker.Close()
	sub := broker.Subscribe("misp.")
	s := newService(t, WithBroker(broker), WithName("test-instance"))

	e := sampleEvent(t, "evt", "evil.example")
	if _, err := s.AddEvent(e); err != nil {
		t.Fatal(err)
	}
	msg := <-sub.C()
	if msg.Topic != TopicEventAdd {
		t.Fatalf("topic = %q", msg.Topic)
	}
	decoded, err := misp.UnmarshalWrapped(msg.Payload)
	if err != nil || decoded.UUID != e.UUID {
		t.Fatalf("payload decode = %+v, %v", decoded, err)
	}
	// Re-adding the same UUID is an edit.
	e.Info = "evt v2"
	if _, err := s.AddEvent(e); err != nil {
		t.Fatal(err)
	}
	msg = <-sub.C()
	if msg.Topic != TopicEventEdit {
		t.Fatalf("edit topic = %q", msg.Topic)
	}
}

func TestSearch(t *testing.T) {
	s := newService(t)
	a := sampleEvent(t, "a", "one.example")
	a.AddTag("tlp:red")
	b := sampleEvent(t, "b", "two.example")
	b.AddAttribute("ip-dst", "Network activity", "203.0.113.7", now)
	for _, e := range []*misp.Event{a, b} {
		if _, err := s.AddEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	tests := []struct {
		name string
		q    SearchQuery
		want int
	}{
		{name: "by value", q: SearchQuery{Value: "one.example"}, want: 1},
		{name: "by type", q: SearchQuery{Type: "ip-dst"}, want: 1},
		{name: "by tag", q: SearchQuery{Tag: "tlp:red"}, want: 1},
		{name: "by since match", q: SearchQuery{Since: now.Add(-time.Hour)}, want: 2},
		{name: "by since future", q: SearchQuery{Since: now.Add(time.Hour)}, want: 0},
		{name: "value and tag", q: SearchQuery{Value: "one.example", Tag: "tlp:red"}, want: 1},
		{name: "value and wrong tag", q: SearchQuery{Value: "one.example", Tag: "tlp:green"}, want: 0},
		{name: "all", q: SearchQuery{}, want: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := s.Search(tt.q)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != tt.want {
				t.Fatalf("got %d events, want %d", len(got), tt.want)
			}
		})
	}
}

func TestExportFormats(t *testing.T) {
	e := sampleEvent(t, "export me", "evil.example")
	e.AddAttribute("vulnerability", "External analysis", "CVE-2017-9805", now)

	mispData, ct, err := Export(e, FormatMISPJSON)
	if err != nil || ct != "application/json" {
		t.Fatalf("misp export: %v %q", err, ct)
	}
	if back, err := misp.UnmarshalWrapped(mispData); err != nil || back.UUID != e.UUID {
		t.Fatalf("misp export round trip failed: %v", err)
	}

	stixData, _, err := Export(e, FormatSTIX2)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := stix.ParseBundle(stixData)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundle.ByType(stix.TypeVulnerability)) != 1 {
		t.Fatalf("stix export lost the vulnerability: %d objects", len(bundle.Objects))
	}

	csvData, ct, err := Export(e, FormatCSV)
	if err != nil || ct != "text/csv" {
		t.Fatalf("csv export: %v %q", err, ct)
	}
	if !strings.Contains(string(csvData), "evil.example") || !strings.Contains(string(csvData), "CVE-2017-9805") {
		t.Fatalf("csv export missing values:\n%s", csvData)
	}

	if _, _, err := Export(e, "yaml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestImportSTIX(t *testing.T) {
	v := stix.NewVulnerability(stix.NewID(stix.TypeVulnerability), "CVE-2017-9805", "struts", now)
	bundle := stix.NewBundle(v)
	data, err := json.Marshal(bundle)
	if err != nil {
		t.Fatal(err)
	}
	e, err := ImportSTIX(data, now)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.FindAttribute("vulnerability"); got == nil || got.Value != "CVE-2017-9805" {
		t.Fatalf("import lost the vulnerability: %+v", e.Attributes)
	}
	if _, err := ImportSTIX([]byte(`{"bad":`), now); err == nil {
		t.Fatal("garbage bundle accepted")
	}
}

func apiServer(t *testing.T, apiKey string) (*httptest.Server, *Service) {
	t.Helper()
	s := newService(t)
	srv := httptest.NewServer(NewAPI(s, apiKey))
	t.Cleanup(srv.Close)
	return srv, s
}

func TestHTTPRoundTrip(t *testing.T) {
	srv, _ := apiServer(t, "secret-key")
	client := NewClient(srv.URL, "secret-key")

	e := sampleEvent(t, "via http", "http.example")
	if _, err := client.AddEvent(t.Context(), e); err != nil {
		t.Fatal(err)
	}
	got, err := client.GetEvent(t.Context(), e.UUID)
	if err != nil || got.Info != "via http" {
		t.Fatalf("GetEvent = %+v, %v", got, err)
	}
	results, err := client.Search(t.Context(), SearchQuery{Value: "http.example"})
	if err != nil || len(results) != 1 {
		t.Fatalf("Search = %d results, %v", len(results), err)
	}
	listed, _, _, err := client.ChangesPage(t.Context(), 0, 0)
	if err != nil || len(listed) != 1 {
		t.Fatalf("ChangesPage = %d, %v", len(listed), err)
	}
	exported, err := client.Export(t.Context(), e.UUID, FormatSTIX2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stix.ParseBundle(exported); err != nil {
		t.Fatalf("exported bundle invalid: %v", err)
	}
	st, err := client.Stats(t.Context())
	if err != nil || st.Events != 1 {
		t.Fatalf("Stats = %+v, %v", st, err)
	}
	if err := client.DeleteEvent(t.Context(), e.UUID); err != nil {
		t.Fatal(err)
	}
	if _, err := client.GetEvent(t.Context(), e.UUID); err == nil {
		t.Fatal("deleted event still served")
	}
}

func TestHTTPAuthentication(t *testing.T) {
	srv, _ := apiServer(t, "secret-key")
	bad := NewClient(srv.URL, "wrong-key")
	if _, err := bad.Stats(t.Context()); err == nil || !strings.Contains(err.Error(), "401") && !strings.Contains(err.Error(), "API key") {
		t.Fatalf("wrong key accepted: %v", err)
	}
	missing := NewClient(srv.URL, "")
	if _, err := missing.Stats(t.Context()); err == nil {
		t.Fatal("missing key accepted")
	}
	// Open instance (no key) accepts anonymous calls.
	open, _ := apiServer(t, "")
	anon := NewClient(open.URL, "")
	if _, err := anon.Stats(t.Context()); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPErrors(t *testing.T) {
	srv, _ := apiServer(t, "")
	client := NewClient(srv.URL, "")
	if _, err := client.GetEvent(t.Context(), "00000000-0000-0000-0000-000000000000"); err == nil {
		t.Fatal("missing event served")
	}
	if err := client.DeleteEvent(t.Context(), "00000000-0000-0000-0000-000000000000"); err == nil {
		t.Fatal("missing event deleted")
	}
	// Bad payloads.
	resp, err := http.Post(srv.URL+"/events", "application/json", strings.NewReader(`{"junk":`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad event status = %d", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/events", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body status = %d", resp.StatusCode)
	}
	// A body at the cap is read whole (all blanks: 400 empty body); one
	// byte over it is refused as too large, not cut and misparsed.
	for _, tc := range []struct{ n, want int }{
		{maxRequestBytes, http.StatusBadRequest},
		{maxRequestBytes + 1, http.StatusRequestEntityTooLarge},
	} {
		resp, err = http.Post(srv.URL+"/events", "application/json", strings.NewReader(strings.Repeat(" ", tc.n)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%d-byte body status = %d, want %d", tc.n, resp.StatusCode, tc.want)
		}
	}
	resp, err = http.Get(srv.URL + "/events/changes?after=not-a-seq")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad after status = %d", resp.StatusCode)
	}
}

func TestHTTPImportSTIX(t *testing.T) {
	srv, service := apiServer(t, "")
	client := NewClient(srv.URL, "")
	v := stix.NewVulnerability(stix.NewID(stix.TypeVulnerability), "CVE-2019-0001", "test vuln", now)
	data, err := json.Marshal(stix.NewBundle(v))
	if err != nil {
		t.Fatal(err)
	}
	uuid, err := client.ImportSTIX(t.Context(), data)
	if err != nil {
		t.Fatal(err)
	}
	if uuid == "" {
		t.Fatal("no uuid returned")
	}
	if service.Len() != 1 {
		t.Fatalf("service has %d events", service.Len())
	}
}

// pullChanges imports the remote's change feed after cursor into local,
// limit events per page, and returns how many events it imported and the
// cursor to resume from.
func pullChanges(t *testing.T, local *Service, remote *Client, cursor uint64, limit int) (int, uint64) {
	t.Helper()
	imported := 0
	for {
		events, next, more, err := remote.ChangesPage(t.Context(), cursor, limit)
		if err != nil {
			t.Fatal(err)
		}
		stored, err := local.AddEvents(events)
		if err != nil {
			t.Fatal(err)
		}
		imported += len(stored)
		cursor = next
		if !more {
			return imported, cursor
		}
	}
}

func TestSyncBetweenInstances(t *testing.T) {
	srvA, serviceA := apiServer(t, "")
	_, serviceB := apiServer(t, "")

	// Instance A holds three events; B pulls them.
	var latest time.Time
	for i, value := range []string{"a.example", "b.example", "c.example"} {
		e := misp.NewEvent("evt", now.Add(time.Duration(i)*time.Minute))
		e.AddAttribute("domain", "Network activity", value, now)
		if _, err := serviceA.AddEvent(e); err != nil {
			t.Fatal(err)
		}
		latest = e.Timestamp.Time
	}
	clientA := NewClient(srvA.URL, "")
	imported, cursor := pullChanges(t, serviceB, clientA, 0, 0)
	if imported != 3 || serviceB.Len() != 3 {
		t.Fatalf("imported %d, B has %d", imported, serviceB.Len())
	}
	// Incremental sync: only what A ingested after the cursor.
	e := misp.NewEvent("late", latest.Add(time.Hour))
	e.AddAttribute("domain", "Network activity", "late.example", latest.Add(time.Hour))
	if _, err := serviceA.AddEvent(e); err != nil {
		t.Fatal(err)
	}
	imported, _ = pullChanges(t, serviceB, clientA, cursor, 0)
	if imported != 1 || serviceB.Len() != 4 {
		t.Fatalf("incremental imported %d, B has %d", imported, serviceB.Len())
	}
	if serviceA.Stats().Events != 4 {
		t.Fatalf("A stats = %+v", serviceA.Stats())
	}
}

func TestHTTPExportFormatsAndErrors(t *testing.T) {
	srv, service := apiServer(t, "")
	e := sampleEvent(t, "exportable", "export.example")
	if _, err := service.AddEvent(e); err != nil {
		t.Fatal(err)
	}
	client := NewClient(srv.URL, "")
	// Every supported format over HTTP.
	for _, format := range ExportFormats {
		data, err := client.Export(t.Context(), e.UUID, format)
		if err != nil || len(data) == 0 {
			t.Fatalf("export %s: %v", format, err)
		}
	}
	if _, err := client.Export(t.Context(), e.UUID, "protobuf"); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := client.Export(t.Context(), "00000000-0000-0000-0000-000000000000", FormatMISPJSON); err == nil {
		t.Fatal("missing event exported")
	}
}

func TestHTTPSearchBadBody(t *testing.T) {
	srv, _ := apiServer(t, "")
	resp, err := http.Post(srv.URL+"/events/search", "application/json", strings.NewReader("{bad"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad search status = %d", resp.StatusCode)
	}
	resp2, err := http.Post(srv.URL+"/import/stix", "application/json", strings.NewReader("{bad"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad import status = %d", resp2.StatusCode)
	}
}

func TestClientConnectionErrors(t *testing.T) {
	dead := NewClient("http://127.0.0.1:1", "")
	if _, err := dead.Stats(t.Context()); err == nil {
		t.Fatal("dead endpoint succeeded")
	}
	if _, _, _, err := dead.ChangesPage(t.Context(), 0, 0); err == nil {
		t.Fatal("dead list succeeded")
	}
	if _, err := dead.AddEvent(t.Context(), sampleEvent(t, "x", "x.example")); err == nil {
		t.Fatal("dead add succeeded")
	}
}

// TestDurableNodeCompactsWithoutCore is the standalone tipd shape: a
// durable store, the TIP service and the store's own compaction trigger,
// no core.Platform. Writes past the op threshold must be snapshotted, or
// the WAL and the restart replay grow without bound.
func TestDurableNodeCompactsWithoutCore(t *testing.T) {
	store, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	stop := store.StartCompactor(slog.Default())
	defer stop()
	s := NewService(store)
	for b := 0; b*500 <= storage.CompactAfterOps; b++ {
		batch := make([]*misp.Event, 500)
		for i := range batch {
			batch[i] = sampleEvent(t, "evt", fmt.Sprintf("h%d-%d.example", b, i))
		}
		if _, err := s.AddEvents(batch); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if st.Compactions >= 1 && st.WALOps < storage.CompactAfterOps {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("durable TIP never compacted: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
