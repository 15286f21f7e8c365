// Package storage implements the embedded event store backing the
// operational module — the stand-in for the relational database of the
// paper's MISP instance. Events are MISP events keyed by UUID; writes go
// through a segmented, CRC-framed write-ahead log, reads are served from
// in-memory maps with a secondary index over attribute values (MISP's
// "correlation" lookups). Snapshots bound recovery time; a truncated WAL
// tail is repaired on replay while corruption mid-file is detected and
// reported.
//
// The store trusts its callers and does not validate a revision: input
// from outside the program is validated where it enters, in tip.Service,
// and the store's other writer, the lifecycle, re-scores revisions that
// were validated there (DESIGN.md §8).
//
// The read side is snapshot-isolated: PutBatch installs events that are
// never mutated afterwards, so Get/Search*/All/ChangesPage return shared
// frozen revisions instead of deep copies, and the lock-held critical
// sections shrink to map lookups. Callers that intend to mutate a result
// must take GetClone (see DESIGN.md §8). The one order the store keeps
// is the ingest-sequence change log (ChangesPage, Changes); value
// postings are map-backed sets with lazily rebuilt sorted slices; and
// the wrapped-MISP wire encoding is cached once per stored revision
// (WrappedJSON).
//
// Durability is pause-free (DESIGN.md §9): Compact freezes the current
// event map behind a copy-on-write overlay under a brief lock, then
// streams the snapshot record-by-record to disk entirely outside the
// lock while writers and readers proceed; the WAL rotates into
// size-bounded segments and compaction deletes the sealed segments the
// published snapshot covers. Recovery decodes snapshot and WAL records
// across a worker pool.
package storage

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/obs"
)

const (
	snapshotFile = "snapshot.json"

	// tombstoneRetention bounds the deletion tombstones the change feed
	// keeps for replication. Keeping every deletion forever would
	// reintroduce the unbounded growth expiry exists to prevent; overflow
	// forgets the oldest deletions first.
	tombstoneRetention = 1 << 16
)

// ErrNotFound is returned when the requested event does not exist.
var ErrNotFound = errors.New("storage: event not found")

// ErrStale reports a revision not newer than its UUID's deletion, which
// PutBatch refuses by leaving it out of what it installed. The store
// itself never returns it; tip.Service.AddEvent does for the one event it
// was handed.
var ErrStale = errors.New("storage: revision not newer than its deletion")

// ErrLegacyFormat is returned by Open when the data directory holds an
// on-disk layout that predates the segmented WAL: a single events.wal log
// or a monolithic snapshot. The error names the file found.
var ErrLegacyFormat = errors.New("storage: pre-segmentation on-disk format")

// storedEvent is one installed revision: the frozen event plus its lazily
// computed wrapped-MISP wire encoding. A later put of the same UUID
// installs a fresh storedEvent, so cached bytes can never describe a
// stale revision.
type storedEvent struct {
	event   *misp.Event
	seq     uint64 // WAL sequence of the operation that installed this revision
	wrapped atomic.Pointer[[]byte]
}

// wrappedJSON returns the {"Event": …} encoding of this revision,
// computing it at most once. Safe for concurrent use; never called with
// the store lock held — the event is frozen, so no lock is needed.
func (se *storedEvent) wrappedJSON() ([]byte, error) {
	if p := se.wrapped.Load(); p != nil {
		return *p, nil
	}
	data, err := misp.MarshalWrapped(se.event)
	if err != nil {
		return nil, err
	}
	se.wrapped.Store(&data)
	return data, nil
}

// postings is one secondary-index entry: the set of event UUIDs for a key,
// plus a lazily rebuilt UUID-sorted slice. The set is only mutated under
// the store's write lock; the sorted cache is an atomic pointer so readers
// holding the read lock can rebuild it concurrently without racing.
type postings struct {
	set    map[string]struct{}
	sorted atomic.Pointer[[]string]
}

// uuids returns the members in sorted order, rebuilding the cache if a
// write invalidated it. Concurrent rebuilds are idempotent.
func (p *postings) uuids() []string {
	if sp := p.sorted.Load(); sp != nil {
		return *sp
	}
	out := make([]string, 0, len(p.set))
	for uuid := range p.set {
		out = append(out, uuid)
	}
	sort.Strings(out)
	p.sorted.Store(&out)
	return out
}

func addPosting(m map[string]*postings, key, uuid string) {
	p := m[key]
	if p == nil {
		p = &postings{set: make(map[string]struct{}, 1)}
		m[key] = p
	}
	p.set[uuid] = struct{}{}
	p.sorted.Store(nil)
}

func removePosting(m map[string]*postings, key, uuid string) {
	p := m[key]
	if p == nil {
		return
	}
	delete(p.set, uuid)
	if len(p.set) == 0 {
		delete(m, key)
		return
	}
	p.sorted.Store(nil)
}

// changeEntry is one element of the ingest-sequence change log.
type changeEntry struct {
	seq  uint64
	uuid string
	del  bool // deletion marker: the entry tombstones uuid instead of installing it
}

// tombstone records one deletion the change feed must keep visible: the
// sequence that removed the event and the wall-clock deletion time peers
// compare against a concurrent edit (newest wins).
type tombstone struct {
	seq uint64
	at  time.Time
}

// Store is a concurrency-safe embedded event store. Construct with Open.
type Store struct {
	mu sync.RWMutex

	dir  string
	wal  *walWriter
	seq  uint64
	sync bool

	events map[string]*storedEvent // base map: the compacted live state
	// overlay diverts writes while a streaming snapshot reads the base
	// map off-lock. Non-nil only between a compaction's capture and its
	// merge; a nil value is a delete tombstone. Readers consult overlay
	// first (lookup/forEach), so the view stays exact throughout.
	overlay map[string]*storedEvent
	count   int // live events across base+overlay

	byValue map[string]*postings // attribute value -> event UUIDs

	// changes is the ingest-sequence change log: one entry per applied
	// put or delete, ascending by seq — the store's only order.
	// Replication cursors and the lifecycle pass page over it
	// (ChangesPage, Changes); a late-imported event always lands at the
	// log's tail, so a cursor can never skip it. An entry is live while
	// the installed revision still carries its seq; re-puts and deletes
	// leave stale entries behind, compacted away once they outnumber the
	// live ones.
	changes      []changeEntry
	staleChanges int

	// tombstones maps deleted UUIDs to their deletion record while the
	// deletion is still replicable. Bounded by tombstoneCap: once the map
	// overflows, the oldest deletions are forgotten (a peer whose cursor
	// predates them re-syncs from the live set instead).
	tombstones   map[string]tombstone
	tombstoneCap int

	walOps int // operations appended since last snapshot
	// loading marks snapshot bulk-load during Open, when every change
	// entry is live, so compactChanges has nothing to drop.
	loading bool

	segmentSize int64 // WAL segment bound (defaultSegmentSize)

	// commit is closed by the next commit or Close (Committed). Nil until
	// a reader asks to be woken: a write nobody waits on pays a nil check.
	commit chan struct{}
	closed bool

	compactMu      sync.Mutex // serializes Compact; taken before mu
	compactions    int64
	lastCompactDur time.Duration

	metrics *storeMetrics // nil without WithMetrics
}

// storeMetrics are the caisp_store_* latency histograms; scrape-time
// gauge/counter views over the durability counters are registered
// alongside them (see WithMetrics).
type storeMetrics struct {
	putBatchDur *obs.Histogram // caisp_store_put_batch_seconds
	batchSize   *obs.Histogram // caisp_store_batch_size_events
	commitDur   *obs.Histogram // caisp_store_commit_seconds (WAL write and flush; fsync only WithSync)
	compactDur  *obs.Histogram // caisp_store_compaction_seconds
}

// Option configures Open.
type Option interface{ apply(*Store) }

type syncOption bool

func (o syncOption) apply(s *Store) { s.sync = bool(o) }

// WithSync forces an fsync after every WAL append (durable but slow).
// Default is buffered writes flushed on every append without fsync.
func WithSync(enabled bool) Option { return syncOption(enabled) }

type metricsOption struct{ reg *obs.Registry }

func (o metricsOption) apply(s *Store) { s.registerMetrics(o.reg) }

// WithMetrics registers the store's caisp_store_* families into reg:
// write-path and compaction latency histograms plus scrape-time views
// over the durability counters (WAL footprint, segment count, event
// count). A nil registry disables instrumentation.
func WithMetrics(reg *obs.Registry) Option { return metricsOption{reg: reg} }

func (s *Store) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.metrics = &storeMetrics{
		putBatchDur: reg.Histogram("caisp_store_put_batch_seconds",
			"Group-committed PutBatch latency for the whole batch."),
		batchSize: reg.Histogram("caisp_store_batch_size_events",
			"Events per group-committed batch.", obs.SizeBuckets...),
		commitDur: reg.Histogram("caisp_store_commit_seconds",
			"WAL group append latency: frame, write, flush and (with WithSync) fsync."),
		compactDur: reg.Histogram("caisp_store_compaction_seconds",
			"Wall time of one compaction (capture, stream, merge)."),
	}
	reg.GaugeFunc("caisp_store_events",
		"Live events in the store.",
		func() float64 { return float64(s.Len()) })
	reg.GaugeFunc("caisp_store_wal_bytes",
		"On-disk WAL footprint across all segments.",
		func() float64 { return float64(s.Durability().WALBytes) })
	reg.GaugeFunc("caisp_store_wal_segments",
		"WAL segment files (sealed plus active).",
		func() float64 { return float64(s.Durability().WALSegments) })
	reg.GaugeFunc("caisp_store_wal_ops",
		"Operations appended since the last snapshot.",
		func() float64 { return float64(s.Durability().WALOps) })
	reg.CounterFunc("caisp_store_compactions_total",
		"Snapshots published since Open.",
		func() float64 { return float64(s.Durability().Compactions) })
}

// walRecord is one WAL entry. At carries a delete's wall-clock time
// (Unix seconds) so the tombstone replays with its original conflict
// timestamp; put records leave it zero. Base and Runs are a patch's
// (wal.go).
type walRecord struct {
	Seq   uint64      `json:"seq"`
	Op    string      `json:"op"` // "put", "patch" or "delete"
	UUID  string      `json:"uuid,omitempty"`
	At    int64       `json:"at,omitempty"`
	Base  uint64      `json:"base,omitempty"`
	Runs  [][3]int    `json:"runs,omitempty"`
	Event *misp.Event `json:"event,omitempty"`
	// eventJSON is a put's event as JSON, or a patch's without the
	// attributes its runs carry, which its frame splices in
	// (appendPayload); replay decodes it back into Event.
	eventJSON []byte
}

// Open loads (or creates) a store in dir. An empty dir opens a memory-only
// store with no durability. Recovery decodes the snapshot and the sealed
// WAL segments across GOMAXPROCS workers and repairs a torn tail on the
// active segment.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{
		dir:          dir,
		events:       make(map[string]*storedEvent),
		byValue:      make(map[string]*postings),
		tombstones:   make(map[string]tombstone),
		tombstoneCap: tombstoneRetention,
		segmentSize:  defaultSegmentSize,
	}
	for _, o := range opts {
		o.apply(s)
	}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create dir: %w", err)
	}
	// The pre-segmentation single-file WAL is no longer read; refuse it
	// rather than open as if its events did not exist.
	legacy := filepath.Join(dir, "events.wal")
	if _, err := os.Stat(legacy); err == nil {
		return nil, fmt.Errorf("%w: %s", ErrLegacyFormat, legacy)
	}
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	segs, err := s.replaySegments()
	if err != nil {
		return nil, err
	}
	wal, err := openWALWriter(dir, segs, s.seq, s.sync, s.segmentSize)
	if err != nil {
		return nil, err
	}
	s.wal = wal
	return s, nil
}

// PutBatch stores a batch of events with group-commit semantics: every
// event is copied (the caller keeps ownership) and encoded first, then
// all WAL records are framed into one buffer and written with a single
// flush (and, with WithSync, a single fsync) before the in-memory state
// is updated. The batch is all-or-nothing — in memory and across a
// crash: the commit flag rides on the batch's final WAL frame.
// raw, when non-nil, runs beside events: a non-nil raw[i] is the JSON
// events[i] was decoded from (misp.ListItem.EventJSON), logged instead of
// a fresh encoding. It returns, beside events, the change-log sequence
// each was installed at, or 0 for one refused: one stamped at or before a
// deletion of its UUID standing before the batch is a stale copy arriving
// late and is refused, with no WAL frame and no change entry. Ties go to
// the deletion. A revision of a stored UUID is logged as a patch on it
// (wal.go) while that is still the UUID's revision under the lock.
func (s *Store) PutBatch(events []*misp.Event, raw [][]byte) ([]uint64, error) {
	if len(events) == 0 {
		return nil, nil
	}
	if s.metrics != nil {
		s.metrics.batchSize.Observe(float64(len(events)))
		defer func(start time.Time) {
			s.metrics.putBatchDur.Observe(time.Since(start).Seconds())
		}(time.Now())
	}
	// Copies, diffs and encodings are made before the lock.
	puts := make(map[string]int) // a UUID put twice in the batch is logged in full
	for _, e := range events {
		if e != nil && s.wal != nil {
			puts[e.UUID]++
		}
	}
	recs := make([]walRecord, len(events))
	for i, e := range events {
		if e == nil {
			return nil, fmt.Errorf("storage: nil event in batch")
		}
		recs[i] = walRecord{Op: "put", Event: e.Clone()} // unlocked: caller events are copied before the write lock
		if i < len(raw) {
			recs[i].eventJSON = raw[i]
		}
		if len(recs[i].eventJSON) == 0 && s.wal != nil {
			var base *storedEvent
			if puts[e.UUID] == 1 {
				s.mu.RLock()
				base, _ = s.lookup(e.UUID)
				s.mu.RUnlock()
			}
			if err := recs[i].encode(base); err != nil {
				return nil, err
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := recs[:0]
	seqs := make([]uint64, len(events))
	for i, rec := range recs {
		if s.refuses(rec.Event) {
			continue
		}
		if rec.Op == "patch" {
			if se, ok := s.lookup(rec.Event.UUID); !ok || se.seq != rec.Base {
				if err := rec.encode(nil); err != nil { // another write replaced the base
					return nil, err
				}
			}
		}
		rec.Seq = s.seq + uint64(len(kept)) + 1
		kept = append(kept, rec)
		seqs[i] = rec.Seq
	}
	if len(kept) == 0 {
		return seqs, nil
	}
	if err := s.appendWALGroup(kept); err != nil {
		return nil, err
	}
	s.seq += uint64(len(kept))
	for _, rec := range kept {
		s.apply(rec.Event, rec.Seq) // each event at its own record's seq
	}
	s.signalCommit()
	return seqs, nil
}

// encode sets the record's frame bytes: a patch on base when base is not
// nil and the event carries any of its attributes unchanged, else a put
// of the whole event.
func (r *walRecord) encode(base *storedEvent) error {
	e := r.Event
	r.Op, r.Base, r.Runs = "put", 0, nil
	if base != nil {
		if runs, fresh := diffAttributes(base.event.Attributes, e.Attributes); runs != nil {
			partial := *e
			partial.Attributes = fresh
			r.Op, r.Base, r.Runs, e = "patch", base.seq, runs, &partial
		}
	}
	var err error
	if r.eventJSON, err = json.Marshal(e); err != nil {
		return fmt.Errorf("storage: encode event: %w", err)
	}
	return nil
}

// lookup resolves a UUID through the compaction overlay (if one is
// active) and the base map. Caller holds at least the read lock.
func (s *Store) lookup(uuid string) (*storedEvent, bool) {
	if s.overlay != nil {
		if se, ok := s.overlay[uuid]; ok {
			return se, se != nil
		}
	}
	se, ok := s.events[uuid]
	return se, ok
}

// forEach visits every live event exactly once, overlay first. Caller
// holds at least the read lock.
func (s *Store) forEach(fn func(uuid string, se *storedEvent)) {
	if s.overlay != nil {
		for uuid, se := range s.overlay {
			if se != nil {
				fn(uuid, se)
			}
		}
		for uuid, se := range s.events {
			if _, shadowed := s.overlay[uuid]; !shadowed {
				fn(uuid, se)
			}
		}
		return
	}
	for uuid, se := range s.events {
		fn(uuid, se)
	}
}

// Get returns the current revision of the event with the given UUID as a
// shared frozen view: the result must not be mutated. Callers that need a
// private copy take GetClone.
func (s *Store) Get(uuid string) (*misp.Event, error) {
	e, _, err := s.GetSeq(uuid)
	return e, err
}

// GetSeq is Get and the sequence PutBatch installed the revision at.
func (s *Store) GetSeq(uuid string) (*misp.Event, uint64, error) {
	s.mu.RLock()
	se, ok := s.lookup(uuid)
	s.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, uuid)
	}
	return se.event, se.seq, nil
}

// GetClone returns a private deep copy of the event — the read for callers
// that intend to mutate the result.
func (s *Store) GetClone(uuid string) (*misp.Event, error) {
	e, err := s.Get(uuid)
	if err != nil {
		return nil, err
	}
	return e.Clone(), nil // unlocked: private copy taken after the lock was released
}

// Has reports whether an event with the given UUID is stored, without
// materializing it.
func (s *Store) Has(uuid string) bool {
	s.mu.RLock()
	_, ok := s.lookup(uuid)
	s.mu.RUnlock()
	return ok
}

// WrappedJSON returns the {"Event": …} wire encoding of the current
// revision of the event, computed at most once per revision and shared
// between the HTTP read paths and an attached broker. The returned bytes
// are read-only.
func (s *Store) WrappedJSON(uuid string) ([]byte, error) {
	s.mu.RLock()
	se, ok := s.lookup(uuid)
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, uuid)
	}
	return se.wrappedJSON()
}

// WrappedJSONFor returns the cached wire encoding when e is a stored
// revision (as returned by the copy-free read methods), and a fresh
// encoding of e otherwise. The returned bytes are read-only.
func (s *Store) WrappedJSONFor(e *misp.Event) ([]byte, error) {
	s.mu.RLock()
	se, ok := s.lookup(e.UUID)
	s.mu.RUnlock()
	if ok && se.event == e {
		return se.wrappedJSON()
	}
	return misp.MarshalWrapped(e)
}

// Delete removes the event with the given UUID, stamping the tombstone
// with the current wall clock.
func (s *Store) Delete(uuid string) error {
	return s.DeleteAt(uuid, time.Now())
}

// DeleteAt removes the event with the given UUID and records at as the
// deletion time on its tombstone: a one-element DeleteBatch that fails
// with ErrNotFound when the store does not hold the event.
func (s *Store) DeleteAt(uuid string, at time.Time) error {
	n, err := s.DeleteBatch([]Deletion{{UUID: uuid, At: at}})
	if err == nil && n == 0 {
		return fmt.Errorf("%w: %s", ErrNotFound, uuid)
	}
	return err
}

// Deletion names one event to remove and the deletion time its tombstone
// records.
type Deletion struct {
	UUID string
	At   time.Time
}

// DeleteBatch removes a batch of events as one commit group: one WAL
// append and flush (and, with WithSync, one fsync) for the whole batch,
// all-or-nothing across a crash like PutBatch. UUIDs the store does not
// hold (or that repeat within the batch) are skipped; it returns how many
// events it removed.
// Replication uses the per-entry times to re-apply a peer's deletions at
// their original times, so newest-wins conflict resolution stays
// transitive across hops; local deletions go through Delete. Each
// deletion lands in the WAL and the ingest-sequence change log, so it
// survives compaction + restart and reaches every replication cursor.
func (s *Store) DeleteBatch(dels []Deletion) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := make([]walRecord, 0, len(dels))
	seen := make(map[string]bool, len(dels))
	for _, d := range dels {
		if _, ok := s.lookup(d.UUID); !ok || seen[d.UUID] {
			continue
		}
		seen[d.UUID] = true
		recs = append(recs, walRecord{Seq: s.seq + uint64(len(recs)) + 1, Op: "delete", UUID: d.UUID, At: d.At.Unix()})
	}
	if len(recs) == 0 {
		return 0, nil
	}
	if err := s.appendWALGroup(recs); err != nil {
		return 0, err
	}
	s.seq += uint64(len(recs))
	s.applyDeletes(recs)
	s.signalCommit()
	return len(recs), nil
}

// Committed returns a channel closed by the next commit (PutBatch,
// DeleteBatch) or by Close. A change-feed reader parks on it instead of
// polling; it must take the channel before it reads the feed, so that a
// commit landing between the read and the park still wakes it.
func (s *Store) Committed() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.commit == nil {
		s.commit = make(chan struct{})
		if s.closed {
			close(s.commit)
		}
	}
	return s.commit
}

// MaxWait bounds how long one change-feed read may stay parked. The
// serving side caps a requested wait at it and the pulling side never
// asks for more, so a reader can tell a peer that held its request from
// one that ignored the wait by how long the answer took.
const MaxWait = 30 * time.Second

type waitKey struct{}

// WithWait marks ctx so that a change-feed read made under it may park
// for up to d when nothing follows its cursor (Store.Committed). The hint
// rides in the context because callers wrap the pull surface
// (mesh.Remote) and forward only context, cursor and limit.
func WithWait(ctx context.Context, d time.Duration) context.Context {
	return context.WithValue(ctx, waitKey{}, d)
}

// WaitFrom returns the wait WithWait attached to ctx, or zero.
func WaitFrom(ctx context.Context) time.Duration {
	d, _ := ctx.Value(waitKey{}).(time.Duration)
	return d
}

// signalCommit wakes the readers parked on Committed. Caller holds the
// write lock and has applied the write, so a woken reader sees it.
func (s *Store) signalCommit() {
	if s.commit != nil && !s.closed {
		close(s.commit)
		s.commit = nil
	}
}

// Seq reports the store's ingest-sequence high-water mark: the sequence
// of the newest change-log entry. Peer cursors chase this value, so it
// is the watermark GET /cluster/status publishes for lag accounting; a
// lifecycle pass records it as the point where the pass ends.
func (s *Store) Seq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq
}

// Len returns the number of stored events.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// All returns every event, sorted by UUID, as shared frozen views.
func (s *Store) All() ([]*misp.Event, error) { return s.Select(nil) }

// Select is All restricted to what keep accepts (nil: everything); keep
// runs after the read lock is released, and only what it keeps is sorted.
func (s *Store) Select(keep func(*misp.Event) bool) ([]*misp.Event, error) {
	s.mu.RLock()
	out := make([]*misp.Event, 0, s.count)
	s.forEach(func(_ string, se *storedEvent) {
		out = append(out, se.event)
	})
	s.mu.RUnlock()
	if keep != nil {
		out = slices.DeleteFunc(out, func(e *misp.Event) bool { return !keep(e) })
	}
	slices.SortFunc(out, func(a, b *misp.Event) int { return strings.Compare(a.UUID, b.UUID) })
	return out, nil
}

// SearchValue returns events carrying an attribute with exactly this
// value, in UUID order. Only values are indexed (DESIGN.md §8).
func (s *Store) SearchValue(value string) ([]*misp.Event, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p := s.byValue[value]
	if p == nil {
		return nil, nil
	}
	out := make([]*misp.Event, 0, len(p.set))
	for _, uuid := range p.uuids() {
		if se, ok := s.lookup(uuid); ok {
			out = append(out, se.event)
		}
	}
	return out, nil
}

// ChangesPage returns up to limit live events from the ingest-sequence
// change log, strictly after afterSeq, oldest-ingested first. It also
// returns the sequence to resume from (the last log entry scanned —
// stale entries advance it too, so pages over a churned log still make
// progress) and whether entries remain beyond the returned page. This
// is the sound replication feed: an event imported late still appears
// after every cursor handed out before it. A limit of 0 or less returns everything.
func (s *Store) ChangesPage(afterSeq uint64, limit int) ([]*misp.Event, uint64, bool, error) {
	s.mu.RLock()
	i := sort.Search(len(s.changes), func(i int) bool {
		return s.changes[i].seq > afterSeq
	})
	out := make([]*misp.Event, 0, min(len(s.changes)-i, max(limit, 0)))
	next := afterSeq
	more := false
	for _, ent := range s.changes[i:] {
		if limit > 0 && len(out) == limit {
			more = true
			break
		}
		next = ent.seq
		if se, ok := s.lookup(ent.uuid); ok && se.seq == ent.seq {
			out = append(out, se.event)
		}
	}
	s.mu.RUnlock()
	return out, next, more, nil
}

// Change is one entry of the tombstone-aware change feed (Changes):
// either a live event revision or a deletion marker a replication peer
// applies to drop its copy.
type Change struct {
	// Seq is the ingest sequence of the change (zero when the change was
	// decoded from a wire page, which carries only the page cursor).
	Seq uint64
	// UUID identifies the event either way.
	UUID string
	// Event is the live revision; nil marks a deletion.
	Event *misp.Event
	// DeletedAt is the deletion wall time when Event is nil — the
	// timestamp newest-wins conflict resolution compares against a
	// concurrent edit.
	DeletedAt time.Time
	// Raw is the JSON a wire page's Event was decoded from, when the
	// decoder kept it (misp.ListItem.EventJSON); read-only, for PutBatch.
	Raw []byte
	// Prov is the cross-node trace context attached at the serving or
	// decoding layer (the store itself does not track provenance): the
	// origin node, its ingest sequence there, and the per-hop pull
	// timestamps accumulated along the replication path. Nil when the
	// serving side predates provenance or the entry is a tombstone.
	Prov *obs.Provenance
}

// Changes is ChangesPage with deletions included: up to limit entries
// strictly after afterSeq, oldest first, where a tombstoned UUID yields
// a deletion marker instead of being silently skipped. Replication
// pulls this feed so deletes propagate; dashboards and exports that
// only want live events keep using ChangesPage.
func (s *Store) Changes(afterSeq uint64, limit int) ([]Change, uint64, bool, error) {
	s.mu.RLock()
	i := sort.Search(len(s.changes), func(i int) bool {
		return s.changes[i].seq > afterSeq
	})
	out := make([]Change, 0, min(len(s.changes)-i, max(limit, 0)))
	next := afterSeq
	more := false
	for _, ent := range s.changes[i:] {
		if limit > 0 && len(out) == limit {
			more = true
			break
		}
		next = ent.seq
		if ent.del {
			if t, ok := s.tombstones[ent.uuid]; ok && t.seq == ent.seq {
				out = append(out, Change{Seq: ent.seq, UUID: ent.uuid, DeletedAt: t.at})
			}
			continue
		}
		if se, ok := s.lookup(ent.uuid); ok && se.seq == ent.seq {
			out = append(out, Change{Seq: ent.seq, UUID: ent.uuid, Event: se.event})
		}
	}
	s.mu.RUnlock()
	return out, next, more, nil
}

// Correlated returns the UUIDs of events sharing at least one attribute
// value with the given event — MISP's automatic correlation. Only the
// query's correlating attributes are looked up (misp.Attribute.Correlates),
// so a call walks the postings of the event's own indicator values and not
// those of comments, score write-backs and context text, which nearly
// every stored event shares.
func (s *Store) Correlated(e *misp.Event) []string {
	values := correlatingValues(e)
	if len(values) == 0 {
		return nil
	}
	var out []string
	s.mu.RLock()
	for _, value := range values {
		if p := s.byValue[value]; p != nil {
			for uuid := range p.set {
				if uuid != e.UUID {
					out = append(out, uuid)
				}
			}
		}
	}
	s.mu.RUnlock()
	// An event sharing several values was appended once per value.
	sort.Strings(out)
	return slices.Compact(out)
}

// correlatingValues lists the values Correlated looks up for e: those of
// its loose and object attributes that take part in correlation.
func correlatingValues(e *misp.Event) []string {
	var values []string
	attrs := allAttributes(e)
	for i := range attrs {
		if attrs[i].Correlates() {
			values = append(values, attrs[i].Value)
		}
	}
	return values
}

// Compact publishes a snapshot of the current state and prunes the WAL
// segments it covers. The write lock is held only for the capture (an
// O(1) overlay install plus a segment rotation) and the merge; the
// snapshot itself is encoded record-by-record and streamed to a temp
// file with writers and readers proceeding concurrently, then renamed
// into place atomically. Concurrent Compact calls serialize.
func (s *Store) Compact() error {
	if s.dir == "" {
		return nil
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	start := time.Now()

	// Capture: freeze the base map behind an empty overlay and seal the
	// active WAL segment, all under a brief lock. Tombstones are copied
	// at capture (the live map keeps mutating while the snapshot
	// streams); the copy is bounded by the retention cap.
	s.mu.Lock()
	snapSeq, base, ops := s.seq, s.events, s.walOps
	if err := s.rotateWALLocked(snapSeq); err != nil {
		s.mu.Unlock()
		return err
	}
	tombs := make(map[string]tombstone, len(s.tombstones))
	for uuid, t := range s.tombstones {
		tombs[uuid] = t
	}
	s.overlay = make(map[string]*storedEvent)
	s.mu.Unlock()

	// Stream: base is immutable while the overlay is up — encode it
	// record-by-record entirely outside the lock.
	err := s.writeSnapshotFile(base, tombs, snapSeq)

	// Merge: fold the writes that happened meanwhile back into the base
	// map and, on success, drop the WAL segments the snapshot covers.
	s.mu.Lock()
	for uuid, se := range s.overlay {
		if se == nil {
			delete(s.events, uuid)
		} else {
			s.events[uuid] = se
		}
	}
	s.overlay = nil
	var covered []string
	if err == nil {
		covered = s.finishCompactionLocked(snapSeq, ops, start)
	}
	s.mu.Unlock()
	s.removeFiles(covered)
	return err
}

// rotateWALLocked seals the active segment so everything at or below
// snapSeq lives in sealed segments. Caller holds the write lock.
func (s *Store) rotateWALLocked(snapSeq uint64) error {
	if s.wal == nil {
		return nil
	}
	return s.wal.rotate(snapSeq + 1)
}

// finishCompactionLocked updates counters and collects the sealed
// segments the published snapshot covers. Caller
// holds the write lock; the returned paths are deleted outside it.
func (s *Store) finishCompactionLocked(snapSeq uint64, ops int, start time.Time) []string {
	s.walOps -= ops
	s.compactions++
	s.lastCompactDur = time.Since(start)
	if s.metrics != nil {
		s.metrics.compactDur.Observe(s.lastCompactDur.Seconds())
	}
	var covered []string
	if s.wal != nil {
		covered = s.wal.dropCovered(snapSeq)
	}
	return covered
}

func (s *Store) removeFiles(paths []string) {
	for _, p := range paths {
		os.Remove(p)
	}
}

// DurabilityStats describes the persistence layer for observability
// surfaces (tip.Stats, GET /stats) and compaction policy.
type DurabilityStats struct {
	// WALOps counts operations appended since the last snapshot.
	WALOps int `json:"wal_ops"`
	// WALBytes is the on-disk WAL footprint across all segments.
	WALBytes int64 `json:"wal_bytes"`
	// WALSegments counts segment files (sealed plus the active one).
	WALSegments int `json:"wal_segments"`
	// Compactions counts snapshots published since Open.
	Compactions int64 `json:"compactions"`
	// LastCompactionDuration is the wall time of the latest compaction.
	LastCompactionDuration time.Duration `json:"last_compaction_ns"`
	// Tombstones counts retained deletion markers in the change feed.
	Tombstones int `json:"tombstones"`
}

// Durability returns persistence counters. All zero for a memory-only
// store.
func (s *Store) Durability() DurabilityStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d := DurabilityStats{
		WALOps:                 s.walOps,
		Compactions:            s.compactions,
		LastCompactionDuration: s.lastCompactDur,
		Tombstones:             len(s.tombstones),
	}
	if s.wal != nil {
		d.WALBytes = s.wal.bytes()
		d.WALSegments = s.wal.segments()
	}
	return d
}

// Close flushes and closes the WAL. It waits for an in-flight
// compaction to finish first.
func (s *Store) Close() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Nobody parks on a store that will never commit again.
	s.signalCommit()
	s.closed = true
	if s.wal == nil {
		return nil
	}
	return s.wal.close()
}

// appendWALGroup writes a group of records as one buffered write, one
// flush and (with WithSync) one fsync — the group commit. The final
// record's frame carries the commit flag that makes the group atomic
// across recovery. Caller holds the write lock.
func (s *Store) appendWALGroup(recs []walRecord) error {
	if s.wal != nil {
		var start time.Time
		if s.metrics != nil {
			start = time.Now()
		}
		if err := s.wal.append(recs); err != nil {
			return err
		}
		if s.metrics != nil {
			s.metrics.commitDur.Observe(time.Since(start).Seconds())
		}
		// Only a log has a backlog: a memory-only store counts none.
		s.walOps += len(recs)
	}
	return nil
}

// apply installs a put into memory state as a fresh frozen revision at
// sequence seq (each put consumes one WAL sequence, so within a batch
// every event applies at its own record's seq). Caller holds the write
// lock and must only apply ascending sequences, which keeps the change
// log sorted.
func (s *Store) apply(e *misp.Event, seq uint64) {
	if s.refuses(e) {
		// Only an older log holds a refused put; the tombstone stays the
		// UUID's latest fact in the feed.
		return
	}
	old, existed := s.lookup(e.UUID)
	if existed {
		s.reindex(old.event, e)
		s.staleChanges++ // the old revision's change entry is now dead
	} else {
		s.index(e)
		s.count++
	}
	se := &storedEvent{event: e, seq: seq}
	if s.overlay != nil {
		s.overlay[e.UUID] = se
	} else {
		s.events[e.UUID] = se
	}
	if _, dead := s.tombstones[e.UUID]; dead {
		// A re-put over a tombstoned UUID resurrects it: the deletion is
		// no longer the latest fact, so its change entry dies.
		delete(s.tombstones, e.UUID)
		s.staleChanges++
	}
	s.changes = append(s.changes, changeEntry{seq: seq, uuid: e.UUID})
	s.compactChanges()
}

// refuses reports whether e is stamped at or before its UUID's deletion
// time, so must not resurrect it (PutBatch). Caller holds the write lock.
func (s *Store) refuses(e *misp.Event) bool {
	t, dead := s.tombstones[e.UUID]
	return dead && e.Timestamp.Unix() <= t.at.Unix()
}

// applyDeletes installs committed delete records into memory state, in
// order. Caller holds the write lock (or is the single-threaded loader).
func (s *Store) applyDeletes(recs []walRecord) {
	for _, rec := range recs {
		old, existed := s.lookup(rec.UUID)
		if !existed {
			continue
		}
		s.unindex(old.event)
		s.count--
		s.staleChanges++ // the deleted revision's change entry is now dead
		if s.overlay != nil {
			s.overlay[rec.UUID] = nil // tombstone shadowing the frozen base
		} else {
			delete(s.events, rec.UUID)
		}
		s.recordTombstone(rec.UUID, rec.Seq, time.Unix(rec.At, 0).UTC())
	}
	s.compactChanges()
}

// recordTombstone appends the deletion to the change log and the
// tombstone map, evicting the oldest tombstones past the retention cap.
// Caller holds the write lock (or is the single-threaded loader).
func (s *Store) recordTombstone(uuid string, seq uint64, at time.Time) {
	s.tombstones[uuid] = tombstone{seq: seq, at: at}
	s.changes = append(s.changes, changeEntry{seq: seq, uuid: uuid, del: true})
	if len(s.tombstones) <= s.tombstoneCap {
		return
	}
	// Prune to 3/4 of the cap so the O(n log n) sort amortizes across the
	// next cap/4 deletions.
	all := make([]changeEntry, 0, len(s.tombstones))
	for u, t := range s.tombstones {
		all = append(all, changeEntry{seq: t.seq, uuid: u})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	drop := len(all) - (s.tombstoneCap - s.tombstoneCap/4)
	for _, ent := range all[:drop] {
		delete(s.tombstones, ent.uuid)
		s.staleChanges++ // the forgotten deletion's change entry is now dead
	}
}

// compactChanges drops stale change-log entries once they outnumber the
// live ones (amortized O(1) per apply). Skipped during snapshot
// bulk-load, where every entry is live anyway. Caller holds the write
// lock.
func (s *Store) compactChanges() {
	if s.loading || s.staleChanges < 1024 || s.staleChanges*2 < len(s.changes) {
		return
	}
	live := s.changes[:0]
	for _, ent := range s.changes {
		if ent.del {
			if t, ok := s.tombstones[ent.uuid]; ok && t.seq == ent.seq {
				live = append(live, ent)
			}
			continue
		}
		if se, ok := s.lookup(ent.uuid); ok && se.seq == ent.seq {
			live = append(live, ent)
		}
	}
	clear(s.changes[len(live):])
	s.changes = live
	s.staleChanges = 0
}

func (s *Store) index(e *misp.Event) {
	for _, a := range allAttributes(e) {
		addPosting(s.byValue, a.Value, e.UUID)
	}
}

// reindex moves the postings of old, the revision e replaces, to e: only
// the postings of values one of them carries and the other does not gain
// or lose the UUID, so a revision that grew touches only its new values.
func (s *Store) reindex(old, e *misp.Event) {
	carried := make(map[string]bool, len(old.Attributes)) // old's values, true once e carries them too
	for _, a := range allAttributes(old) {
		carried[a.Value] = false
	}
	for _, a := range allAttributes(e) {
		if _, ok := carried[a.Value]; ok {
			carried[a.Value] = true
			continue
		}
		addPosting(s.byValue, a.Value, e.UUID)
	}
	for value, kept := range carried {
		if !kept {
			removePosting(s.byValue, value, e.UUID)
		}
	}
}

func (s *Store) unindex(e *misp.Event) {
	for _, a := range allAttributes(e) {
		removePosting(s.byValue, a.Value, e.UUID)
	}
}

// allAttributes enumerates loose and object-grouped attributes alike.
func allAttributes(e *misp.Event) []misp.Attribute {
	if len(e.Objects) == 0 {
		return e.Attributes
	}
	out := make([]misp.Attribute, 0, len(e.Attributes)+8)
	out = append(out, e.Attributes...)
	for _, o := range e.Objects {
		out = append(out, o.Attributes...)
	}
	return out
}
