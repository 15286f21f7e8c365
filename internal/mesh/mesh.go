// Package mesh is the platform's federation engine: it turns a set of
// independent TIP nodes into an N-node anti-entropy mesh, the multi-peer
// replication path between TIP nodes. This is the paper's
// Output Module grown horizontal — org-to-org intelligence exchange
// between peer MISP-like instances (§IV-A) at replication speeds that
// keep up with ingest.
//
// Each configured peer gets its own sync worker goroutine that pulls the
// peer's paginated ingest-sequence change feed (GET /events/changes),
// asking the peer to hold a request that finds nothing new until its
// store commits (storage.WithWait): a revision is pulled when it is
// committed, not when a timer next fires. Against a peer that ignores the
// wait the same loop sleeps a jittered interval between empty rounds, and
// it backs off exponentially while the peer is down. Peers sync
// concurrently, so a 16-peer node catches up against all peers at once
// instead of one at a time. The hot path is loss-free and echo-free:
//
//   - Sound cursors: replication pages over the peer's local ingest
//     sequence, not event modification time. A (timestamp, uuid) cursor
//     is unsound on a mesh — when the peer imports an event late (from a
//     third node) with an equal or older timestamp, it lands *behind* an
//     already-advanced time cursor and is never served again. On the
//     seq feed a late import always lands at the tail, past every
//     cursor already handed out.
//   - Durable cursors: every synced page advances a per-peer sequence
//     high-water mark persisted through a CursorStore, so a restarted
//     node resumes where it stopped instead of re-pulling history. A
//     page whose import fails outright does not advance the cursor —
//     the events are re-pulled next round.
//   - Echo suppression: before importing, each pulled event is checked
//     against the local store by UUID + timestamp. An event the node
//     already owns at a newer timestamp, or at the same one unless the
//     remote copy extends it, is skipped, so A→B→A round-trips re-import
//     nothing and trigger no re-analysis.
//   - Conflict resolution: concurrent edits of the same (cluster) UUID
//     resolve newest-timestamp-wins — a strictly newer remote revision
//     replaces the local one through the store's edit path, a strictly
//     older one is dropped. Within one second (the wire's granularity)
//     the remote wins only if it extends the local revision (extends).
//   - Deletion replication: tombstoned UUIDs on the change feed
//     (expired or retracted indicators) are applied locally at their
//     original deletion time, again newest-wins — a local edit strictly
//     newer than the deletion survives it.
//   - Batch import: pages land through the service's group-committed
//     ImportEvents, with the bytes each event arrived in, on the same
//     10.9× durable batch path as local ingest; the page size adapts
//     upward (doubling to MaxPage) while full pages keep coming.
package mesh

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/storage"
)

// Local is the importing side of the engine: the node's own TIP service.
// *tip.Service satisfies it.
type Local interface {
	// ImportEvents imports a batch through the group-commit path and
	// returns, beside events, the sequence each was stored at (0: not
	// stored, nil: the commit failed); raw[i] is the JSON events[i]
	// arrived in (storage.Change.Raw), or nil.
	ImportEvents(events []*misp.Event, raw [][]byte) ([]uint64, error)
	// GetEvent returns the locally stored revision of uuid, or an error
	// when the node does not hold it.
	GetEvent(uuid string) (*misp.Event, error)
	// DeleteEventsAt applies a page's replicated deletions, each at its
	// original deletion time, as one commit; it skips events it does not
	// hold and returns how many it removed.
	DeleteEventsAt(dels []storage.Deletion) (int, error)
}

// Remote is one peer's paginated pull surface: its ingest-sequence
// change feed, live revisions and deletion tombstones in feed order.
// *tip.Client satisfies it.
type Remote interface {
	Changes(ctx context.Context, afterSeq uint64, limit int) ([]storage.Change, uint64, bool, error)
}

// Peer names one replication source.
type Peer struct {
	// Name keys the peer's durable cursor and metric labels. It must be
	// unique and stable across restarts.
	Name   string
	Remote Remote
}

// Defaults for Engine tuning knobs, and the bounds of the exponential
// backoff a failing peer is retried under.
const (
	DefaultInterval = 30 * time.Second
	backoffMin      = time.Second
	backoffMax      = 5 * time.Minute
	// DefaultBasePage is the starting pull page size; full pages double
	// it up to DefaultMaxPage. The raised ceiling amortizes HTTP and JSON
	// overhead during catch-up, and gzip keeps the larger pages cheap on
	// the wire.
	DefaultBasePage = 500
	DefaultMaxPage  = 5000
)

// Totals are the engine's lifetime counters, summed over the peers'
// counts that the caisp_mesh_* {peer} series read when a registry is
// attached.
type Totals struct {
	Pages          int64 // pages pulled across all peers
	Pulled         int64 // events received from peers
	Imported       int64 // events actually imported (stored)
	EchoSuppressed int64 // already-owned events skipped (same timestamp)
	ConflictLocal  int64 // concurrent edits resolved keeping the local copy
	ConflictRemote int64 // concurrent edits resolved importing the remote copy
	Deleted        int64 // replicated deletions applied to the local store
	Errors         int64 // failed sync attempts (transport or import)
	Rounds         int64 // completed sync rounds (one peer drained to head)
}

// Engine drives continuous anti-entropy pull replication against the
// configured peers.
type Engine struct {
	local   Local
	cursors CursorStore
	peers   []*peerState

	interval time.Duration
	basePage int
	maxPage  int
	logger   *slog.Logger

	mu  sync.Mutex // guards cur
	cur map[string]Cursor

	rounds atomic.Int64

	// metric families; nil without WithMetrics.
	mSync   *obs.Histogram    // sync round latency
	mHopLat *obs.HistogramVec // {peer} single-hop replication latency
	mRepl   *obs.Histogram    // origin-to-here end-to-end latency

	// cross-node trace propagation; zero-valued without WithProvenance.
	node   string         // this node's name, stamped into appended hops
	prov   *obs.ProvTable // provenance for events this node re-serves
	tracer *obs.Tracer    // receives per-import multi-hop trace records

	runCtx  context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	started atomic.Bool
}

// peerState is one peer's mutable sync state, touched only by the peer's
// worker (or by SyncOnce, which the engine serializes per peer).
type peerState struct {
	name   string
	remote Remote
	page   int        // adaptive page size; guarded by busy
	busy   sync.Mutex // serializes overlapping syncs of one peer

	// Lifetime counts of this peer's traffic: Totals sums them and the
	// caisp_mesh_* {peer} series read them.
	pages, pulled, imported, echoSuppressed      atomic.Int64
	conflictLocal, conflictRemote, deleted, errs atomic.Int64

	// statMu guards the replication state below, which PeerInfos, the
	// health check and the {peer} gauges read concurrently with the worker.
	statMu      sync.Mutex
	backoff     time.Duration // 0 while healthy
	lastSuccess time.Time     // last fully drained round
	lastErr     string        // most recent sync error, "" while healthy
	failures    int64         // consecutive failed sync attempts
	lagSeconds  float64       // replication lag as of the last round
}

// Option configures an Engine.
type Option func(*Engine)

// WithInterval sets the base poll interval: how long a worker asks its
// peer to hold an idle request (at most storage.MaxWait), and around
// which it jitters its sleep, in [interval/2, 3·interval/2), between
// empty rounds against a peer that does not hold requests.
func WithInterval(d time.Duration) Option {
	return func(e *Engine) { e.interval = d }
}

// WithPageSize sets the starting and maximum pull page size. Full pages
// double the size toward max; any sync error resets it to base.
func WithPageSize(base, max int) Option {
	return func(e *Engine) { e.basePage, e.maxPage = base, max }
}

// WithLogger sets the engine logger.
func WithLogger(l *slog.Logger) Option {
	return func(e *Engine) {
		if l != nil {
			e.logger = l
		}
	}
}

// WithProvenance turns on cross-node trace propagation: every event the
// engine imports gets a hop stamped with this node's name and the pull
// time, and the accumulated provenance is recorded into table so the
// node's own change feed re-serves it to the next hop. node must match
// the name the local tip service serves under, or downstream origin-seq
// stamping misattributes events.
func WithProvenance(node string, table *obs.ProvTable) Option {
	return func(e *Engine) {
		e.node = node
		e.prov = table
	}
}

// WithTracer forwards each import's multi-hop provenance to tr, so the
// terminal node's GET /debug/traces shows the full replication path an
// event took across the mesh.
func WithTracer(tr *obs.Tracer) Option {
	return func(e *Engine) { e.tracer = tr }
}

// hopBuckets shapes the replication-latency histograms. A hop costs a
// pull and an import (milliseconds) from a peer that holds change-feed
// requests, up to the poll interval (default 30s, jittered to 45s) from
// one that does not, and minutes under backoff: 10ms to 10 minutes.
var hopBuckets = []float64{.01, .05, .25, 1, 5, 15, 30, 60, 120, 300, 600}

// WithMetrics registers the caisp_mesh_* families on reg (nil disables).
// The {peer} counters and gauges are scrape-time views of each
// configured peer's state, which New builds before applying options.
func WithMetrics(reg *obs.Registry) Option {
	return func(e *Engine) {
		if reg == nil {
			return
		}
		reg.GaugeFunc("caisp_mesh_peers",
			"Configured replication peers.",
			func() float64 { return float64(len(e.peers)) })
		pages := reg.CounterVec("caisp_mesh_pages_total",
			"Pages pulled from each peer.", "peer")
		pulled := reg.CounterVec("caisp_mesh_events_pulled_total",
			"Events received from each peer before suppression.", "peer")
		imported := reg.CounterVec("caisp_mesh_events_imported_total",
			"Events imported into the local store from each peer.", "peer")
		echo := reg.CounterVec("caisp_mesh_echo_suppressed_total",
			"Already-owned events skipped without re-import or re-analysis.", "peer")
		conflicts := reg.CounterVec("caisp_mesh_conflicts_total",
			"Concurrent edits of one UUID resolved newest-timestamp-wins.", "peer", "winner")
		deleted := reg.CounterVec("caisp_mesh_deletes_applied_total",
			"Replicated deletions applied to the local store per peer.", "peer")
		errs := reg.CounterVec("caisp_mesh_errors_total",
			"Failed sync attempts per peer (transport or import).", "peer")
		e.mSync = reg.Histogram("caisp_mesh_sync_seconds",
			"Working time of one sync round: drain a peer's backlog to its head, not counting the time the peer held the round's first request.")
		lag := reg.GaugeVec("caisp_mesh_lag_seconds",
			"Replication lag per peer: age of the newest event pulled in the last drained round while healthy, seconds since the last success while the peer is failing.", "peer")
		backoff := reg.GaugeVec("caisp_mesh_backoff_seconds",
			"Current failure backoff per peer; zero while healthy.", "peer")
		lastSuccess := reg.GaugeVec("caisp_mesh_last_success_unix_seconds",
			"Unix time of the last fully drained sync round per peer; zero until one succeeds.", "peer")
		for _, ps := range e.peers {
			count := func(vec *obs.CounterVec, n *atomic.Int64, winner ...string) {
				vec.Func(func() float64 { return float64(n.Load()) }, append([]string{ps.name}, winner...)...)
			}
			count(pages, &ps.pages)
			count(pulled, &ps.pulled)
			count(imported, &ps.imported)
			count(echo, &ps.echoSuppressed)
			count(conflicts, &ps.conflictLocal, "local")
			count(conflicts, &ps.conflictRemote, "remote")
			count(deleted, &ps.deleted)
			count(errs, &ps.errs)
			lag.Func(func() float64 { return ps.info().LagSeconds }, ps.name)
			backoff.Func(func() float64 { return ps.info().BackoffSeconds }, ps.name)
			lastSuccess.Func(func() float64 { return float64(ps.info().LastSuccessUnix) }, ps.name)
		}
		e.mHopLat = reg.HistogramVec("caisp_mesh_hop_latency_seconds",
			"Single-hop replication latency: time between the upstream node pulling (or ingesting) an event and this node pulling it. Pull plus import from a peer that holds change-feed requests until it commits; up to the poll interval from one that does not.", hopBuckets, "peer")
		e.mRepl = reg.Histogram("caisp_mesh_replication_seconds",
			"End-to-end replication latency: origin ingest to arrival at this node, any number of hops.", hopBuckets...)
	}
}

// New builds an engine over the local import surface and the given
// peers, loading durable cursors from cursors (NewMemCursors for a
// memory-only node). Call Start to begin replicating.
func New(local Local, peers []Peer, cursors CursorStore, opts ...Option) (*Engine, error) {
	if local == nil {
		return nil, errors.New("mesh: nil local service")
	}
	if cursors == nil {
		cursors = NewMemCursors()
	}
	e := &Engine{
		local:    local,
		cursors:  cursors,
		interval: DefaultInterval,
		basePage: DefaultBasePage,
		maxPage:  DefaultMaxPage,
		logger:   slog.Default(),
	}
	seen := map[string]bool{}
	for _, p := range peers {
		if p.Name == "" || p.Remote == nil {
			return nil, fmt.Errorf("mesh: peer needs a name and a remote")
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("mesh: duplicate peer %q", p.Name)
		}
		seen[p.Name] = true
		e.peers = append(e.peers, &peerState{name: p.Name, remote: p.Remote})
	}
	for _, o := range opts {
		o(e)
	}
	if e.interval <= 0 {
		e.interval = DefaultInterval
	}
	if e.basePage <= 0 {
		e.basePage = DefaultBasePage
	}
	if e.maxPage < e.basePage {
		e.maxPage = e.basePage
	}
	for _, ps := range e.peers {
		ps.page = e.basePage
	}
	cur, err := e.cursors.Load()
	if err != nil {
		return nil, err
	}
	e.cur = cur
	e.runCtx, e.cancel = context.WithCancel(context.Background())
	return e, nil
}

// Peers reports the configured peer count.
func (e *Engine) Peers() int { return len(e.peers) }

// Totals snapshots the lifetime counters.
func (e *Engine) Totals() Totals {
	t := Totals{Rounds: e.rounds.Load()}
	for _, ps := range e.peers {
		t.Pages += ps.pages.Load()
		t.Pulled += ps.pulled.Load()
		t.Imported += ps.imported.Load()
		t.EchoSuppressed += ps.echoSuppressed.Load()
		t.ConflictLocal += ps.conflictLocal.Load()
		t.ConflictRemote += ps.conflictRemote.Load()
		t.Deleted += ps.deleted.Load()
		t.Errors += ps.errs.Load()
	}
	return t
}

// Cursor returns the current high-water mark for a peer.
func (e *Engine) Cursor(peer string) Cursor {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cur[peer]
}

func (e *Engine) setCursor(peer string, c Cursor) {
	e.mu.Lock()
	e.cur[peer] = c
	snapshot := make(map[string]Cursor, len(e.cur))
	for k, v := range e.cur {
		snapshot[k] = v
	}
	e.mu.Unlock()
	if err := e.cursors.Save(snapshot); err != nil {
		// A lost save costs a re-pulled suffix (idempotent via echo
		// suppression), never lost events — log and continue.
		e.logger.Warn("mesh: cursor save failed", "peer", peer, "error", err)
	}
}

// Start launches one sync worker per peer. It is a no-op the second time.
func (e *Engine) Start() {
	if !e.started.CompareAndSwap(false, true) {
		return
	}
	for _, ps := range e.peers {
		e.wg.Add(1)
		go e.runPeer(ps)
	}
}

// Close stops the workers (cancelling requests peers are holding), waits
// for in-flight syncs, and leaves the durable cursors at their latest marks.
func (e *Engine) Close() {
	e.cancel()
	e.wg.Wait()
}

// runPeer is one peer's poll loop. Each round opens with a request the
// peer may hold until it has something new (storage.WithWait), made
// outside busy so SyncOnce and other rounds go on meanwhile. A round that
// pulled entries, or whose opening request was held, is followed by the
// next at once; one that came back empty and fast (the peer ignores the
// wait) by the jittered interval, so an idle engine never spins. A failing
// peer backs off exponentially.
func (e *Engine) runPeer(ps *peerState) {
	defer e.wg.Done()
	hold := min(e.interval, storage.MaxWait)
	// Initial jitter staggers the fleet so N workers do not fire their
	// first pull at the same instant.
	timer := time.NewTimer(time.Duration(rand.Int63n(int64(e.interval)/2 + 1)))
	defer timer.Stop()
	for {
		select {
		case <-e.runCtx.Done():
			return
		case <-timer.C:
		}
		asked := time.Now()
		first := e.pull(storage.WithWait(e.runCtx, hold), ps, e.Cursor(ps.name).Seq, e.basePage)
		held := time.Since(asked) >= hold/2
		if e.runCtx.Err() != nil {
			return // Close cancelled the parked request: not a peer failure
		}
		_, err := e.syncPeer(e.runCtx, ps, &first)
		next := e.jittered(e.interval)
		if held || len(first.live)+len(first.deletes) > 0 {
			next = 0
		}
		ps.statMu.Lock()
		if err != nil && e.runCtx.Err() == nil {
			ps.backoff = min(max(2*ps.backoff, backoffMin), backoffMax)
			next = e.jittered(ps.backoff)
			e.logger.Warn("mesh: sync failed", "peer", ps.name, "backoff", ps.backoff, "error", err)
		} else {
			ps.backoff = 0
		}
		ps.statMu.Unlock()
		timer.Reset(next)
	}
}

// jittered spreads d over [d/2, 3d/2) so poll rounds decorrelate.
func (e *Engine) jittered(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// SyncOnce drains every peer's backlog once, all peers concurrently, and
// returns the total number of events imported. It is the synchronous
// form the poll workers drive continuously, for callers that want
// deterministic rounds. It never asks a peer to hold a request nor waits
// for a worker parked on one.
func (e *Engine) SyncOnce(ctx context.Context) (int, error) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total int
		errs  []error
	)
	for _, ps := range e.peers {
		wg.Add(1)
		go func(ps *peerState) {
			defer wg.Done()
			n, err := e.syncPeer(ctx, ps, nil)
			mu.Lock()
			total += n
			if err != nil {
				errs = append(errs, fmt.Errorf("peer %s: %w", ps.name, err))
			}
			mu.Unlock()
		}(ps)
	}
	wg.Wait()
	return total, errors.Join(errs...)
}

// page is one pulled change-feed page: live revisions (Event non-nil,
// Prov attached when served) and deletion markers, apart.
type page struct {
	after, next   uint64 // cursor the request resumed from, and the one to resume at
	live, deletes []storage.Change
	more          bool
	err           error
}

// pull fetches one page after the given cursor and splits it into live
// revisions and deletion markers, keeping each live entry's Change
// wrapper so its provenance and raw bytes survive to import. It touches
// no engine state, so a worker may sit in it without holding busy.
func (e *Engine) pull(ctx context.Context, ps *peerState, after uint64, limit int) page {
	pg := page{after: after}
	var changes []storage.Change
	changes, pg.next, pg.more, pg.err = ps.remote.Changes(ctx, after, limit)
	for _, ch := range changes {
		if ch.Event != nil {
			pg.live = append(pg.live, ch)
		} else {
			pg.deletes = append(pg.deletes, ch)
		}
	}
	return pg
}

// syncPeer drains one peer's backlog from the durable cursor to the
// peer's head: pull a page, suppress echoes, resolve conflicts, batch
// import, advance the cursor, repeat while pages remain. first, when
// non-nil, is the page the peer's worker pulled (and possibly waited for)
// to open the round, used if the cursor still stands where that request
// began. The round's clock starts here, after any such wait.
func (e *Engine) syncPeer(ctx context.Context, ps *peerState, first *page) (int, error) {
	ps.busy.Lock()
	defer ps.busy.Unlock()
	start := time.Now()
	cur := e.Cursor(ps.name)
	if first != nil && first.after != cur.Seq {
		first = nil // an overlapping SyncOnce moved the cursor meanwhile
	}
	imported := 0
	var newest time.Time // newest event timestamp pulled this round
	for {
		if err := ctx.Err(); err != nil {
			return imported, err
		}
		var pg page
		if first != nil {
			pg, first = *first, nil
		} else {
			pg = e.pull(ctx, ps, cur.Seq, ps.page)
		}
		if pg.err != nil {
			ps.page = e.basePage
			e.markFailure(ps, pg.err)
			return imported, pg.err
		}
		entries := len(pg.live) + len(pg.deletes)
		ps.pages.Add(1)
		ps.pulled.Add(int64(entries))
		if len(pg.live) > 0 {
			n, err := e.importPage(ps, pg.live)
			imported += n
			if err != nil {
				// Nothing from this page landed: do not advance the
				// cursor, the page is re-pulled after backoff.
				ps.page = e.basePage
				e.markFailure(ps, err)
				return imported, err
			}
			if ts := pg.live[len(pg.live)-1].Event.Timestamp.Time; ts.After(newest) {
				newest = ts
			}
		}
		if len(pg.deletes) > 0 {
			if err := e.applyDeletes(ps, pg.deletes); err != nil {
				ps.page = e.basePage
				e.markFailure(ps, err)
				return imported, err
			}
		}
		if pg.next > cur.Seq {
			// The peer scanned up to next even when every entry there was
			// stale; advancing past those entries is loss-free because a
			// re-put always reappears later in the feed.
			cur = Cursor{Seq: pg.next}
			e.setCursor(ps.name, cur)
		}
		if !pg.more {
			break
		}
		// Adaptive sizing: a page cut short by its limit means backlog —
		// double toward the ceiling so catch-up takes fewer round-trips.
		ps.page = min(2*ps.page, e.maxPage)
	}
	e.rounds.Add(1)
	if e.mSync != nil {
		e.mSync.Observe(time.Since(start).Seconds())
	}
	// Drained to the peer's head: lag is how stale the newest event
	// pulled this round was on arrival, zero when already caught up.
	lag := 0.0
	if !newest.IsZero() {
		lag = time.Since(newest).Seconds()
	}
	e.markSuccess(ps, lag)
	return imported, nil
}

// markSuccess records one drained round: the peer is healthy, its lag
// is the freshness of what the round pulled, and the last-success clock
// restarts. This is the only healthy path that sets the lag — a failed
// round must not leave the previous round's value standing, so
// markFailure resets it to time-since-last-success instead.
func (e *Engine) markSuccess(ps *peerState, lag float64) {
	ps.statMu.Lock()
	ps.lastSuccess = time.Now()
	ps.failures = 0
	ps.lastErr = ""
	ps.lagSeconds = lag
	ps.statMu.Unlock()
}

// markFailure records one failed sync attempt and resets the lag to
// seconds since the last successful round, so a dead peer's lag grows
// instead of freezing at its last healthy reading.
func (e *Engine) markFailure(ps *peerState, err error) {
	ps.errs.Add(1)
	ps.statMu.Lock()
	ps.failures++
	ps.lastErr = err.Error()
	if !ps.lastSuccess.IsZero() {
		ps.lagSeconds = time.Since(ps.lastSuccess).Seconds()
	}
	ps.statMu.Unlock()
}

// importPage filters one pulled page against the local store and batch
// imports what remains. The error is non-nil only when the whole batch
// failed to land (the caller then refuses to advance the cursor);
// per-event validation rejections are logged and skipped, matching
// ImportEvents' partial-failure tolerance; a page rejected whole as
// invalid is passed too, counted as a peer error. Each entry's Event is
// non-nil; its Prov, when the peer serves provenance, rides through to
// the engine's table with this node's hop appended.
func (e *Engine) importPage(ps *peerState, changes []storage.Change) (int, error) {
	fresh := make([]*misp.Event, 0, len(changes))
	raw := make([][]byte, 0, len(changes))
	prov := make(map[string]*obs.Provenance, len(changes))
	for _, ch := range changes {
		ev := ch.Event
		if ch.Prov != nil {
			prov[ev.UUID] = ch.Prov
		}
		local, err := e.local.GetEvent(ev.UUID)
		if err == nil {
			// Already own this UUID: newest timestamp wins. Compare at
			// Unix-second (wire) granularity — the local original may keep
			// sub-second precision its round-tripped copy lost, and that
			// precision difference is not an edit.
			switch lts, rts := local.Timestamp.Unix(), ev.Timestamp.Unix(); {
			case lts == rts && !extends(ev, local):
				// The echo case — our own event coming back around the
				// mesh (A→B→A) or a copy both sides already replicated.
				ps.echoSuppressed.Add(1)
				continue
			case lts > rts:
				// Local revision is newer: drop the stale remote copy.
				ps.conflictLocal.Add(1)
				continue
			default:
				// Remote revision is newer, or extends ours within the same
				// second: import through the edit path.
				ps.conflictRemote.Add(1)
			}
		}
		fresh = append(fresh, ev)
		raw = append(raw, ch.Raw)
	}
	if len(fresh) == 0 {
		return 0, nil
	}
	e.stampProvenance(ps, fresh, prov)
	seqs, err := e.local.ImportEvents(fresh, raw)
	stored := fresh[:0]
	for i, seq := range seqs {
		if seq != 0 {
			stored = append(stored, fresh[i])
		}
	}
	switch {
	case err == nil:
	case len(stored) > 0:
		e.logger.Warn("mesh: partial import", "peer", ps.name,
			"stored", len(stored), "pulled", len(fresh), "error", err)
	case seqs != nil && errors.Is(err, misp.ErrInvalid): // rejected, not a failed commit
		ps.errs.Add(1)
		e.logger.Warn("mesh: page rejected as invalid, passed", "peer", ps.name,
			"pulled", len(fresh), "error", err)
	default:
		return 0, fmt.Errorf("mesh: import: %w", err)
	}
	ps.imported.Add(int64(len(stored)))
	e.observeImport(ps, stored, prov)
	return len(stored), nil
}

// extends reports whether remote, stamped in the same second as local,
// carries strictly more: every member of local is in remote, and remote
// has further ones or is the same set scored (caisp:eioc) where local is
// not. A cluster under a stable UUID only grows and is scored after it is
// stored, so this relation orders its same-second revisions and a node
// only moves forward along it: a stale revision, an echo and a re-scored
// copy of the same members (decayed-score:) extend nothing, and
// incomparable revisions keep the local copy as any tie did.
func extends(remote, local *misp.Event) bool {
	r, l := members(remote), members(local)
	for m := range l {
		if !r[m] {
			return false
		}
	}
	return len(r) > len(l) || remote.HasTag("caisp:eioc") && !local.HasTag("caisp:eioc")
}

// members is the set of e's correlating attributes (type, value), loose and
// in objects: its indicators, not the score and context write-backs.
func members(e *misp.Event) map[[2]string]bool {
	out := map[[2]string]bool{}
	add := func(attrs []misp.Attribute) {
		for i := range attrs {
			if attrs[i].Correlates() {
				out[[2]string{attrs[i].Type, attrs[i].Value}] = true
			}
		}
	}
	add(e.Attributes)
	for i := range e.Objects {
		add(e.Objects[i].Attributes)
	}
	return out
}

// stampProvenance appends this node's hop to the provenance of each event
// about to be imported and files it before the import commits: the commit
// wakes peers parked on this node's feed, and what they are served must
// already name the true origin (see obs.ProvTable.Record). Events from
// peers that predate provenance get a record originating at that peer.
func (e *Engine) stampProvenance(ps *peerState, events []*misp.Event, prov map[string]*obs.Provenance) {
	if e.prov == nil && e.tracer == nil && e.mHopLat == nil {
		return
	}
	now := time.Now().UnixNano()
	for _, ev := range events {
		p := prov[ev.UUID]
		if p == nil {
			p = &obs.Provenance{Origin: ps.name}
		} else {
			p = p.Clone()
		}
		p.Hops = append(p.Hops, obs.Hop{Node: e.node, PulledUnixNano: now})
		prov[ev.UUID] = p
		e.prov.Record(ev.UUID, p)
	}
}

// observeImport feeds the hop and end-to-end latencies of the events that
// landed, and their traces, to metrics and tracer. Hop latency counts from
// the previous node's pull, or from the origin ingest for the first hop.
func (e *Engine) observeImport(ps *peerState, stored []*misp.Event, prov map[string]*obs.Provenance) {
	if e.tracer == nil && e.mHopLat == nil {
		return
	}
	now := time.Now()
	for _, ev := range stored {
		p := prov[ev.UUID]
		prevNano := p.IngestUnixNano
		if n := len(p.Hops); n > 1 {
			prevNano = p.Hops[n-2].PulledUnixNano
		}
		if prevNano > 0 && e.mHopLat != nil {
			e.mHopLat.With(ps.name).Observe(now.Sub(time.Unix(0, prevNano)).Seconds())
		}
		if p.IngestUnixNano > 0 && e.mRepl != nil {
			e.mRepl.Observe(now.Sub(time.Unix(0, p.IngestUnixNano)).Seconds())
		}
		e.tracer.RecordImport(ev.UUID, p)
	}
}

// applyDeletes lands one page's tombstones locally. Newest-wins holds
// for deletions too: a local revision stamped after the deletion time
// is a concurrent edit that survives (the edit will out-replicate the
// tombstone on the next round in the other direction). Applying with
// the original deletion time — not time.Now() — keeps that comparison
// transitive across multi-hop topologies.
func (e *Engine) applyDeletes(ps *peerState, deletes []storage.Change) error {
	batch := make([]storage.Deletion, 0, len(deletes))
	for _, d := range deletes {
		local, err := e.local.GetEvent(d.UUID)
		if err != nil {
			// Never had it (or already deleted): nothing to drop.
			continue
		}
		if local.Timestamp.Unix() > d.DeletedAt.Unix() {
			// Concurrent local edit newer than the deletion: the edit wins.
			ps.conflictLocal.Add(1)
			continue
		}
		batch = append(batch, storage.Deletion{UUID: d.UUID, At: d.DeletedAt})
	}
	n, err := e.local.DeleteEventsAt(batch)
	if err != nil {
		return fmt.Errorf("mesh: apply %d deletes: %w", len(batch), err)
	}
	ps.deleted.Add(int64(n))
	return nil
}
