package tip

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/storage"
)

// follow runs f until the test ends and returns the pages handle saw,
// by UUID. handle's error, when fail returns one, fails the page.
func follow(t *testing.T, f *Follower, fail func() error) <-chan []string {
	t.Helper()
	pages := make(chan []string, 8)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx, func(page []*misp.Event, _ uint64) error {
			uuids := make([]string, len(page))
			for i, me := range page {
				uuids[i] = me.UUID
			}
			pages <- uuids
			return fail()
		})
	}()
	t.Cleanup(func() {
		cancel()
		<-done // a parked read ends with ctx
	})
	return pages
}

func next(t *testing.T, pages <-chan []string) []string {
	t.Helper()
	select {
	case p := <-pages:
		return p
	case <-time.After(10 * time.Second):
		t.Fatal("no page handled")
		return nil
	}
}

func stored(t *testing.T, s *Service, info string) string {
	t.Helper()
	me := misp.NewEvent(info, time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC))
	if _, err := s.AddEvent(me); err != nil {
		t.Fatal(err)
	}
	return me.UUID
}

func newFollowed(t *testing.T) *Service {
	t.Helper()
	store, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return NewService(store)
}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// TestFollowerRetriesAFailedPage: a page whose handling fails is handled
// again after the backoff, and the cursor stays before it meanwhile.
func TestFollowerRetriesAFailedPage(t *testing.T) {
	s := newFollowed(t)
	first := stored(t, s, "first")
	clk := clock.NewFake(time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC))
	f := NewFollower(s, 0, clk, quiet)
	failed := false
	pages := follow(t, f, func() error {
		if !failed {
			failed = true
			return errors.New("write-back refused")
		}
		return nil
	})

	if p := next(t, pages); len(p) != 1 || p[0] != first {
		t.Fatalf("first page %v", p)
	}
	clk.BlockUntil(1) // the follower waits out its backoff
	if f.Cursor() != 0 || f.Lag(s.StoreSeq()) != 1 {
		t.Fatalf("cursor %d moved past a failed page", f.Cursor())
	}
	clk.Advance(followRetry)
	if p := next(t, pages); len(p) != 1 || p[0] != first {
		t.Fatalf("retried page %v", p)
	}
	second := stored(t, s, "second")
	if p := next(t, pages); len(p) != 1 || p[0] != second {
		t.Fatalf("next page %v", p)
	}
	if f.Cursor() < 1 {
		t.Fatalf("cursor %d after the retried page was handled", f.Cursor())
	}
}

// TestFollowerOverTheAPI: a follower reading through a Client is woken
// by the change feed's long-poll at each commit. Its clock never moves,
// so a read the server did not hold would leave it in its backoff.
func TestFollowerOverTheAPI(t *testing.T) {
	s := newFollowed(t)
	srv := httptest.NewServer(NewAPI(s, ""))
	t.Cleanup(srv.Close) // after the follower stops: its read may be parked
	clk := clock.NewFake(time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC))
	f := NewFollower(NewClient(srv.URL, ""), s.StoreSeq(), clk, quiet)
	pages := follow(t, f, func() error { return nil })
	for _, info := range []string{"first", "second", "third"} {
		uuid := stored(t, s, info)
		if p := next(t, pages); len(p) != 1 || p[0] != uuid {
			t.Fatalf("page %v, want [%s]", p, uuid)
		}
	}
}
