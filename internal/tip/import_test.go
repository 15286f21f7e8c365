package tip

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/bus"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/storage"
)

// TestAddEventsRefusesRevisionOlderThanDeletion: a revision stamped
// before its UUID's deletion time is refused by the store, so AddEvents
// neither returns it as stored, nor logs it, nor announces it on the bus;
// the rest of its batch lands as usual.
func TestAddEventsRefusesRevisionOlderThanDeletion(t *testing.T) {
	store, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	broker := bus.NewBroker()
	defer broker.Close()
	s := NewService(store, WithBroker(broker))
	old := sampleEvent(t, "old", "old.example")
	if _, err := s.AddEvent(old); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteEventsAt([]storage.Deletion{{UUID: old.UUID, At: now.Add(time.Hour)}}); err != nil {
		t.Fatal(err)
	}
	ops := s.Stats().WALOps
	sub := broker.Subscribe(TopicEventPrefix)

	fresh := sampleEvent(t, "fresh", "fresh.example")
	stored, err := s.AddEvents([]*misp.Event{old.Clone(), fresh})
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 1 || stored[0] != fresh {
		t.Fatalf("stored %d events, want only the fresh one", len(stored))
	}
	if _, err := s.GetEvent(old.UUID); err == nil {
		t.Fatal("the refused revision is held")
	}
	if got := s.Stats().WALOps - ops; got != 1 {
		t.Fatalf("batch logged %d operations, want 1", got)
	}
	if n := len(sub.C()); n != 1 {
		t.Fatalf("%d announcements, want 1", n)
	}
	if msg := <-sub.C(); msg.Topic != TopicEventAdd {
		t.Fatalf("announced %q", msg.Topic)
	} else if e, err := misp.UnmarshalWrapped(msg.Payload); err != nil || e.UUID != fresh.UUID {
		t.Fatalf("announced %+v, %v; want the fresh event", e, err)
	}

	// The single-event path refuses it too, and says so.
	ops = s.Stats().WALOps
	if _, err := s.AddEvent(old.Clone()); !errors.Is(err, storage.ErrStale) {
		t.Fatalf("AddEvent of the stale revision = %v, want storage.ErrStale", err)
	}
	if _, err := s.GetEvent(old.UUID); err == nil {
		t.Fatal("the refused revision is held")
	}
	if got := s.Stats().WALOps - ops; got != 0 {
		t.Fatalf("AddEvent logged %d operations, want 0", got)
	}
	if n := len(sub.C()); n != 0 {
		t.Fatalf("%d announcements of the refused revision, want 0", n)
	}
	// POST /events answers 409.
	srv := httptest.NewServer(NewAPI(s, ""))
	defer srv.Close()
	body, err := misp.MarshalWrapped(old)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/events", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST /events of the stale revision = %d, want 409", resp.StatusCode)
	}
}

// TestImportOverClientSurvivesReopen: a durable node that imports a
// peer's change feed through Client.Changes, handing the store the bytes
// each event arrived in, holds the same events after a close and reopen.
func TestImportOverClientSurvivesReopen(t *testing.T) {
	source := newService(t)
	var want []*misp.Event
	for i, value := range []string{"a.example", "b.example", "c.example", "d.example"} {
		e := sampleEvent(t, `evt <&> "quoted"`, value)
		e.AddTag("tlp:amber")
		e.Orgc = &misp.Org{UUID: "11111111-1111-4111-8111-111111111111", Name: "CAISP"}
		obj := e.AddObject("file", "file")
		obj.AddAttribute("filename", "Payload delivery", "naïve .exe", now)
		e.Timestamp = misp.UT(now.Add(time.Duration(i) * time.Minute))
		want = append(want, e)
	}
	if _, err := source.AddEvents(want); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewAPI(source, ""))
	defer srv.Close()
	client := NewClient(srv.URL, "")

	dir := t.TempDir()
	store, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewService(store)
	var cursor uint64
	for more := true; more; {
		var changes []storage.Change
		changes, cursor, more, err = client.Changes(context.Background(), cursor, 3)
		if err != nil {
			t.Fatal(err)
		}
		events := make([]*misp.Event, len(changes))
		raw := make([][]byte, len(changes))
		for i, ch := range changes {
			if ch.Raw == nil {
				t.Fatal("a page from our own server kept no event bytes")
			}
			events[i], raw[i] = ch.Event, ch.Raw
		}
		if _, err := sink.ImportEvents(events, raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got, err := reopened.All()
	if err != nil {
		t.Fatal(err)
	}
	held, err := source.Search(SearchQuery{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || !reflect.DeepEqual(got, held) {
		t.Fatalf("reopened sink holds %+v\nsource holds %+v", got, held)
	}
}
