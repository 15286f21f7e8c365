package tip

import (
	"context"
	"log/slog"
	"sync/atomic"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/storage"
)

// followPage bounds the revisions a Follower reads in one page.
const followPage = 256

// followRetry is how long a Follower waits before it reads a page again,
// after the read or the page's handling failed, or after a wait that
// gave up with nothing new.
const followRetry = time.Second

// Feed is a TIP's change log as a Follower reads it. NextPage returns the
// live revisions committed after the sequence after, oldest first and
// each UUID at most once (its newest revision), and the sequence to
// resume after. When nothing follows after it first waits for a commit;
// if ctx ends or the wait gives up first, it returns with the cursor
// unmoved. Service is the in-process Feed and Client the remote one.
type Feed interface {
	NextPage(ctx context.Context, after uint64, limit int) ([]*misp.Event, uint64, error)
}

// NextPage implements Feed over the local store: when nothing follows
// after, it parks until the store commits or closes, or ctx ends, and
// reads once more. The events are the store's shared frozen views
// (DESIGN.md §8): a consumer that mutates one clones it first.
func (s *Service) NextPage(ctx context.Context, after uint64, limit int) ([]*misp.Event, uint64, error) {
	committed := s.store.Committed() // before the read: see Store.Committed
	page, next, _, err := s.store.ChangesPage(after, limit)
	if err != nil || next != after {
		return page, next, err
	}
	select {
	case <-committed:
	case <-ctx.Done():
		return nil, after, ctx.Err()
	}
	page, next, _, err = s.store.ChangesPage(after, limit)
	return page, next, err
}

// NextPage implements Feed over the REST API: one GET /events/changes
// long-poll the server may hold until it commits, for storage.MaxWait at
// most.
func (c *Client) NextPage(ctx context.Context, after uint64, limit int) ([]*misp.Event, uint64, error) {
	page, next, _, err := c.ChangesPage(storage.WithWait(ctx, storage.MaxWait), after, limit)
	return page, next, err
}

// Follower hands a consumer every revision a Feed commits after its
// cursor: the newest revision of each UUID, at least once. A consumer
// that lags sees the revisions committed meanwhile folded into one per
// UUID; it never loses one. The cursor moves past a page only once the
// consumer has handled it.
type Follower struct {
	feed   Feed
	clk    clock.Clock
	logger *slog.Logger
	cursor atomic.Uint64
}

// NewFollower builds a follower of feed from the sequence from on; clk
// times its retries and logger receives their reasons.
func NewFollower(feed Feed, from uint64, clk clock.Clock, logger *slog.Logger) *Follower {
	f := &Follower{feed: feed, clk: clk, logger: logger}
	f.cursor.Store(from)
	return f
}

// Cursor is the sequence the follower has handled up to.
func (f *Follower) Cursor() uint64 { return f.cursor.Load() }

// Lag is the number of change-log entries up to head the follower has
// not handled; a nil follower has none.
func (f *Follower) Lag(head uint64) uint64 {
	if f == nil {
		return 0
	}
	if cur := f.Cursor(); cur < head {
		return head - cur
	}
	return 0
}

// Run reads the feed page by page until ctx ends. It hands each page and
// the sequence after it to handle, and advances the cursor when handle
// returns nil. A page that fails to read, or that handle fails, is read
// and handled again after a backoff on the clock.
func (f *Follower) Run(ctx context.Context, handle func(page []*misp.Event, next uint64) error) {
	for ctx.Err() == nil {
		after := f.Cursor()
		page, next, err := f.feed.NextPage(ctx, after, followPage)
		if err == nil && next != after {
			if err = handle(page, next); err == nil {
				f.cursor.Store(next)
				continue
			}
		}
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			f.logger.Warn("change-log follower: retrying page", "after", after, "in", followRetry, "error", err)
		}
		select {
		case <-ctx.Done():
		case <-f.clk.After(followRetry):
		}
	}
}

// Drain handles, as Run does, the pages committed up to head, and returns
// at head, at the feed's end or at a failure instead of waiting. Not for
// use while Run runs.
func (f *Follower) Drain(head uint64, handle func(page []*misp.Event, next uint64) error) {
	done, cancel := context.WithCancel(context.Background())
	cancel() // a caught-up Service answers a done context at once
	for after := f.Cursor(); after < head; after = f.Cursor() {
		page, next, err := f.feed.NextPage(done, after, followPage)
		if err != nil || next == after || handle(page, next) != nil {
			return
		}
		f.cursor.Store(next)
	}
}

// RegisterLag exposes caisp_consumer_lag{consumer} on reg, one series per
// named consumer: its lag, read at scrape time, is how far that
// consumer's follower trails the store. A nil registry registers nothing.
func RegisterLag(reg *obs.Registry, lags map[string]func() uint64) {
	vec := reg.GaugeVec("caisp_consumer_lag",
		"Change-log entries committed past the consumer's follower cursor.", "consumer")
	for consumer, lag := range lags {
		vec.Func(func() float64 { return float64(lag()) }, consumer)
	}
}
