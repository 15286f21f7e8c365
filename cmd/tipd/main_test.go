package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/subscribe"
	"github.com/caisplatform/caisp/internal/tip"
)

// caughtUp is a Feed that closes caught when its reader asks for the page
// after head. A Follower asks for a page only once it has handled every
// page before it.
type caughtUp struct {
	tip.Feed
	head   uint64
	caught chan struct{}
}

func (f *caughtUp) NextPage(ctx context.Context, after uint64, limit int) ([]*misp.Event, uint64, error) {
	if after == f.head && f.caught != nil {
		close(f.caught)
		f.caught = nil // the follower is this Feed's only reader
	}
	return f.Feed.NextPage(ctx, after, limit)
}

// TestDetectionsEvaluateEveryCommittedEvent: a burst of ten times the old
// 256-deep subscription queue, committed before the detections start, is
// evaluated event by event and every event matches. Detections follow the
// change log from a cursor, so a late or slow reader loses nothing.
func TestDetectionsEvaluateEveryCommittedEvent(t *testing.T) {
	store, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	service := tip.NewService(store)
	subs := subscribe.NewEngine()
	defer subs.Close()
	sub, err := subs.Register("siem", "[domain-name:value = 'evil.example']")
	if err != nil {
		t.Fatal(err)
	}

	from := service.StoreSeq()
	const batches, per = 10, 256
	at := time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC)
	for b := 0; b < batches; b++ {
		batch := make([]*misp.Event, per)
		for i := range batch {
			me := misp.NewEvent(fmt.Sprintf("sighting %d/%d", b, i), at)
			me.AddAttribute("domain", "Network activity", "evil.example", at)
			batch[i] = me
		}
		if _, err := service.AddEvents(batch); err != nil {
			t.Fatal(err)
		}
	}

	feed := &caughtUp{Feed: service, head: service.StoreSeq(), caught: make(chan struct{})}
	caught := feed.caught
	f := tip.NewFollower(feed, from, clock.Real(), slog.New(slog.NewTextHandler(io.Discard, nil)))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		detect(ctx, f, subs)
	}()
	select {
	case <-caught:
	case <-time.After(10 * time.Second):
		t.Fatalf("detections stuck at %d of %d", f.Cursor(), feed.head)
	}
	cancel()
	<-done

	st := subs.Stats()
	got, _ := subs.Get(sub.ID)
	if st.Evaluated != batches*per || got.Matches != batches*per {
		t.Fatalf("evaluated %d and matched %d of %d committed events", st.Evaluated, got.Matches, batches*per)
	}
	if lag := f.Lag(service.StoreSeq()); lag != 0 {
		t.Fatalf("lag %d after catching up", lag)
	}
}
