package tip

import (
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/caisplatform/caisp/internal/bus"
	"github.com/caisplatform/caisp/internal/misp"
)

func TestAddEventsStoresBatchAndPublishes(t *testing.T) {
	broker := bus.NewBroker()
	t.Cleanup(broker.Close)
	sub := broker.Subscribe(TopicEventAdd)
	s := newService(t, WithBroker(broker))

	batch := []*misp.Event{
		sampleEvent(t, "a", "a.example"),
		sampleEvent(t, "b", "b.example"),
		sampleEvent(t, "c", "c.example"),
	}
	stored, err := s.AddEvents(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 3 || s.Len() != 3 {
		t.Fatalf("stored = %d, len = %d", len(stored), s.Len())
	}
	for range batch {
		msg := <-sub.C()
		if msg.Topic != TopicEventAdd {
			t.Fatalf("topic = %q", msg.Topic)
		}
		if _, err := misp.UnmarshalWrapped(msg.Payload); err != nil {
			t.Fatalf("published payload undecodable: %v", err)
		}
	}
}

func TestAddEventsPartialFailure(t *testing.T) {
	s := newService(t)
	bad := sampleEvent(t, "bad", "bad.example")
	bad.UUID = "not-a-uuid"
	stored, err := s.AddEvents([]*misp.Event{
		sampleEvent(t, "good-1", "g1.example"),
		bad,
		nil,
		sampleEvent(t, "good-2", "g2.example"),
	})
	if err == nil {
		t.Fatal("invalid events produced no error")
	}
	if len(stored) != 2 || s.Len() != 2 {
		t.Fatalf("valid subset not stored: stored=%d len=%d", len(stored), s.Len())
	}
}

func TestAddEventsEditTopic(t *testing.T) {
	broker := bus.NewBroker()
	t.Cleanup(broker.Close)
	edits := broker.Subscribe(TopicEventEdit)
	s := newService(t, WithBroker(broker))

	e := sampleEvent(t, "evt", "evt.example")
	if _, err := s.AddEvents([]*misp.Event{e}); err != nil {
		t.Fatal(err)
	}
	// Re-storing the same UUID must announce an edit, not an add.
	if _, err := s.AddEvents([]*misp.Event{e}); err != nil {
		t.Fatal(err)
	}
	msg := <-edits.C()
	if msg.Topic != TopicEventEdit {
		t.Fatalf("topic = %q", msg.Topic)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestHTTPBatchRoundTrip(t *testing.T) {
	s := newService(t)
	srv := httptest.NewServer(NewAPI(s, "key"))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, "key")

	batch := []*misp.Event{
		sampleEvent(t, "a", "a.example"),
		sampleEvent(t, "b", "b.example"),
	}
	uuids, err := client.AddEvents(t.Context(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(uuids) != 2 {
		t.Fatalf("stored uuids = %v", uuids)
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	for _, u := range uuids {
		if _, err := client.GetEvent(t.Context(), u); err != nil {
			t.Fatalf("stored event %s unreadable: %v", u, err)
		}
	}
}

func TestHTTPBatchPartialRejection(t *testing.T) {
	s := newService(t)
	srv := httptest.NewServer(NewAPI(s, ""))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, "")

	bad := sampleEvent(t, "bad", "bad.example")
	bad.UUID = "not-a-uuid"
	uuids, err := client.AddEvents(t.Context(), []*misp.Event{sampleEvent(t, "good", "good.example"), bad})
	if err == nil || !strings.Contains(err.Error(), `invalid uuid "not-a-uuid"`) {
		t.Fatalf("rejection not reported with its reason: %v", err)
	}
	if len(uuids) != 1 || s.Len() != 1 {
		t.Fatalf("valid subset not stored: %v, len=%d", uuids, s.Len())
	}
}

func TestHTTPBatchRejectsNonArray(t *testing.T) {
	s := newService(t)
	srv := httptest.NewServer(NewAPI(s, ""))
	t.Cleanup(srv.Close)
	resp, err := srv.Client().Post(srv.URL+"/events/batch", "application/json",
		nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("empty body status = %d", resp.StatusCode)
	}
}
