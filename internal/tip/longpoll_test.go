package tip

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/storage"
)

// awaitParked returns once n change-feed reads are parked on s. Parking
// has no other observable effect, so the test yields until the gauge's
// own counter says so.
func awaitParked(t *testing.T, s *Service, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.parked.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("parked = %d, want %d", s.parked.Load(), n)
		}
		runtime.Gosched()
	}
}

type pageResult struct {
	changes []storage.Change
	next    uint64
	more    bool
	err     error
}

// longPoll issues one change-feed read through the client with a wait on
// the context, in the background.
func longPoll(ctx context.Context, c *Client, after uint64, wait time.Duration) <-chan pageResult {
	out := make(chan pageResult, 1)
	go func() {
		var r pageResult
		r.changes, r.next, r.more, r.err = c.Changes(storage.WithWait(ctx, wait), after, 10)
		out <- r
	}()
	return out
}

// TestLongPollReleasedByEveryCommitPath parks a request past the head and
// releases it by each write path in turn; the answer carries the write.
func TestLongPollReleasedByEveryCommitPath(t *testing.T) {
	s := newService(t)
	srv := httptest.NewServer(NewAPI(s, ""))
	defer srv.Close()
	c := NewClient(srv.URL, "")
	victim := sampleEvent(t, "victim", "victim.example")
	if _, err := s.AddEvent(victim); err != nil {
		t.Fatal(err)
	}

	writes := []struct {
		name string
		do   func() error
		want func(storage.Change) bool
	}{
		{"Put", func() error { _, err := s.AddEvent(sampleEvent(t, "one", "one.example")); return err },
			func(ch storage.Change) bool { return ch.Event != nil && ch.Event.Info == "one" }},
		{"PutBatch", func() error {
			_, err := s.AddEvents([]*misp.Event{sampleEvent(t, "two", "two.example")})
			return err
		}, func(ch storage.Change) bool { return ch.Event != nil && ch.Event.Info == "two" }},
		{"DeleteEventsAt", func() error {
			_, err := s.DeleteEventsAt([]storage.Deletion{{UUID: victim.UUID, At: now.Add(time.Hour)}})
			return err
		},
			func(ch storage.Change) bool { return ch.Event == nil && ch.UUID == victim.UUID }},
	}
	for _, w := range writes {
		after := s.StoreSeq()
		got := longPoll(t.Context(), c, after, time.Minute)
		awaitParked(t, s, 1)
		if err := w.do(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		r := <-got
		if r.err != nil || len(r.changes) != 1 || !w.want(r.changes[0]) || r.next != after+1 {
			t.Fatalf("%s released the request with %+v", w.name, r)
		}
		awaitParked(t, s, 0)
	}
}

// TestLongPollAnswersAtOnceWhenEntriesExist: a wait is only ever spent on
// an empty page.
func TestLongPollAnswersAtOnceWhenEntriesExist(t *testing.T) {
	s := newService(t)
	seedEvents(t, s, 3)
	srv := httptest.NewServer(NewAPI(s, ""))
	defer srv.Close()
	r := <-longPoll(t.Context(), NewClient(srv.URL, ""), 0, time.Minute)
	if r.err != nil || len(r.changes) != 3 || r.next != 3 {
		t.Fatalf("got %+v", r)
	}
}

// TestLongPollExpiry: the wait running out answers as an idle plain read
// does — empty page, cursor unchanged, no more.
func TestLongPollExpiry(t *testing.T) {
	s := newService(t)
	seedEvents(t, s, 2)
	srv := httptest.NewServer(NewAPI(s, ""))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/events/changes?after=2&wait=20ms")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "[]\n" ||
		resp.Header.Get(SeqHeader) != "2" || resp.Header.Get(MoreHeader) != "false" {
		t.Fatalf("status %d body %q seq %q more %q", resp.StatusCode, body,
			resp.Header.Get(SeqHeader), resp.Header.Get(MoreHeader))
	}
}

// TestLongPollReleasedByCancelAndClose: the client going away and the
// store closing both free the parked handler.
func TestLongPollReleasedByCancelAndClose(t *testing.T) {
	s := newService(t)
	srv := httptest.NewServer(NewAPI(s, ""))
	defer srv.Close()
	c := NewClient(srv.URL, "")

	ctx, cancel := context.WithCancel(t.Context())
	got := longPoll(ctx, c, 0, time.Minute)
	awaitParked(t, s, 1)
	cancel()
	if r := <-got; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled request returned %+v", r)
	}
	awaitParked(t, s, 0)

	got = longPoll(t.Context(), c, 0, time.Minute)
	awaitParked(t, s, 1)
	if err := s.store.Close(); err != nil {
		t.Fatal(err)
	}
	if r := <-got; r.err != nil || len(r.changes) != 0 || r.next != 0 {
		t.Fatalf("store close released the request with %+v", r)
	}
	// Nothing parks on a closed store.
	if r := <-longPoll(t.Context(), c, 0, time.Minute); r.err != nil || len(r.changes) != 0 {
		t.Fatalf("read on a closed store: %+v", r)
	}
}

// TestLongPollBounds: a malformed wait is refused, an excessive one is
// capped, and beyond the ceiling of parked requests the server answers
// at once instead of parking one more.
func TestLongPollBounds(t *testing.T) {
	s := newService(t)
	srv := httptest.NewServer(NewAPI(s, ""))
	defer srv.Close()
	for _, bad := range []string{"wait=abc", "wait=-1s", "wait=5"} {
		resp, err := http.Get(srv.URL + "/events/changes?" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
	if d, err := parseWait("10m"); err != nil || d != storage.MaxWait {
		t.Fatalf("parseWait(10m) = %v, %v; want the cap %v", d, err, storage.MaxWait)
	}

	ctx, release := context.WithCancel(t.Context())
	var wg sync.WaitGroup
	for i := 0; i < maxParked; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _, _ = s.ChangesWait(ctx, 0, 10, time.Minute)
		}()
	}
	awaitParked(t, s, maxParked)
	changes, next, more, err := s.ChangesWait(t.Context(), 0, 10, time.Minute)
	if err != nil || len(changes) != 0 || next != 0 || more {
		t.Fatalf("request past the ceiling: %v %d %v %v", changes, next, more, err)
	}
	if got := s.parked.Load(); got != maxParked {
		t.Fatalf("parked = %d after a request past the ceiling, want %d", got, maxParked)
	}
	release()
	wg.Wait()
	awaitParked(t, s, 0)
}

// TestLongPollConcurrentWaiters runs 64 clients that each follow the
// feed by long-poll alone beside a writer; every one must reach the head.
// Meaningful under -race.
func TestLongPollConcurrentWaiters(t *testing.T) {
	s := newService(t)
	srv := httptest.NewServer(NewAPI(s, ""))
	defer srv.Close()
	const waiters, commits = 64, 20
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient(srv.URL, "")
			var after uint64
			for after < commits {
				_, next, _, err := c.Changes(storage.WithWait(t.Context(), time.Minute), after, 5)
				if err != nil {
					t.Error(err)
					return
				}
				after = next
			}
		}()
	}
	for i := 0; i < commits; i++ {
		if _, err := s.AddEvent(sampleEvent(t, "evt", "h.example")); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// TestPlainClientSendsNoWait: only a context that asks for it puts wait
// on the wire, and the client's own deadline stays above the wait.
func TestPlainClientSendsNoWait(t *testing.T) {
	var (
		mu      sync.Mutex
		queries []string
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		queries = append(queries, r.URL.RawQuery)
		mu.Unlock()
		w.Header().Set(SeqHeader, "0")
		_, _ = w.Write([]byte("[]\n"))
	}))
	defer srv.Close()
	c := NewClient(srv.URL, "", WithRequestTimeout(time.Second))
	if _, _, _, err := c.Changes(t.Context(), 7, 10); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.ChangesPage(storage.WithWait(t.Context(), 1500*time.Millisecond), 7, 10); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(queries) != 2 || queries[0] != "after=7&limit=10" || queries[1] != "after=7&limit=10&wait=1.5s" {
		t.Fatalf("queries = %q", queries)
	}
	ctx, cancel := c.withDeadline(storage.WithWait(t.Context(), time.Minute))
	defer cancel()
	if dl, ok := ctx.Deadline(); !ok || time.Until(dl) < time.Minute {
		t.Fatalf("deadline %v does not leave room for a one-minute wait", dl)
	}
}

// TestDrainReleasesParkedLongPolls is the daemons' shutdown sequence:
// their servers derive request contexts from the signal context
// (BaseContext), so cancelling it frees parked requests and Shutdown
// returns at once instead of sitting out the waits.
func TestDrainReleasesParkedLongPolls(t *testing.T) {
	s := newService(t)
	ctx, stop := context.WithCancel(t.Context())
	srv := httptest.NewUnstartedServer(NewAPI(s, ""))
	srv.Config.BaseContext = func(net.Listener) context.Context { return ctx }
	srv.Start()
	defer srv.Close()
	c := NewClient(srv.URL, "")

	got := longPoll(t.Context(), c, 0, storage.MaxWait)
	awaitParked(t, s, 1)
	stop()
	shutdownCtx, cancel := context.WithTimeout(t.Context(), 5*time.Second)
	defer cancel()
	if err := srv.Config.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("Shutdown waited out a parked request: %v", err)
	}
	if r := <-got; r.err != nil || len(r.changes) != 0 {
		t.Fatalf("drained request answered %+v", r)
	}
}
