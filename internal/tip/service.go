// Package tip implements the threat-intelligence-platform instance at the
// heart of the Operational Module — the stand-in for the paper's MISP
// deployment. It stores MISP-format events in the embedded store, performs
// automatic correlation on insert, serves its change log to the
// consumers of "event stored" — the heuristic component among them, where
// the paper uses zeroMQ (§IV-A) — through Follower, exposes the MISP-like
// REST API with export modules (MISP JSON, STIX 2.0, CSV) and
// synchronizes events between instances. Every revision that reaches the
// store from outside it passes through Service.ImportEvents, the one
// place a revision is validated.
package tip

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync/atomic"
	"time"

	"github.com/caisplatform/caisp/internal/bus"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/storage"
)

// Topics the service publishes on an attached broker (WithBroker).
const (
	// TopicEventAdd announces newly stored events (wrapped MISP JSON).
	TopicEventAdd = "misp.event.add"
	// TopicEventEdit announces re-stored (updated) events.
	TopicEventEdit = "misp.event.edit"
	// TopicEventPrefix subscribes to both adds and edits (prefix matching).
	TopicEventPrefix = "misp.event."
)

// Service is one TIP instance.
type Service struct {
	store  *storage.Store
	broker *bus.Broker
	logger *slog.Logger
	name   string
	prov   *obs.ProvTable // nil disables provenance tracking

	storeOps *obs.CounterVec // caisp_tip_store_total{op}; nil without WithMetrics
	parked   atomic.Int64    // change-feed reads parked in ChangesWait
}

// Option configures a Service.
type Option interface{ apply(*Service) }

type brokerOption struct{ b *bus.Broker }

func (o brokerOption) apply(s *Service) { s.broker = o.b }

// WithBroker attaches a message bus; stored events are published on it.
func WithBroker(b *bus.Broker) Option { return brokerOption{b: b} }

type loggerOption struct{ l *slog.Logger }

func (o loggerOption) apply(s *Service) { s.logger = o.l }

// WithLogger sets the service logger.
func WithLogger(l *slog.Logger) Option { return loggerOption{l: l} }

type nameOption string

func (o nameOption) apply(s *Service) { s.name = string(o) }

// WithName labels the instance (log and stats output).
func WithName(name string) Option { return nameOption(name) }

type provOption struct{ t *obs.ProvTable }

func (o provOption) apply(s *Service) { s.prov = o.t }

// WithProvenance attaches the cross-node trace table: local ingests are
// recorded as origins under the instance name, and the change feed
// serves each event's provenance (origin node, origin ingest seq,
// per-hop pull timestamps) alongside the event so mesh peers can extend
// the path. The table is shared with the node's mesh engine, which
// overwrites entries for events that arrived by replication. Nil
// disables provenance.
func WithProvenance(t *obs.ProvTable) Option { return provOption{t: t} }

type metricsOption struct{ reg *obs.Registry }

func (o metricsOption) apply(s *Service) {
	if o.reg == nil {
		return
	}
	s.storeOps = o.reg.CounterVec("caisp_tip_store_total",
		"Events stored through the TIP, by operation (add or edit).", "op")
	o.reg.GaugeFunc("caisp_tip_changes_parked",
		"Change-feed requests parked until the next commit; at the ceiling further ones are answered at once.",
		func() float64 { return float64(s.parked.Load()) })
}

// WithMetrics registers the service's caisp_tip_* families into reg (nil
// disables instrumentation). The store and broker register their own
// families through their respective WithMetrics options.
func WithMetrics(reg *obs.Registry) Option { return metricsOption{reg: reg} }

// NewService wraps a store.
func NewService(store *storage.Store, opts ...Option) *Service {
	s := &Service{
		store:  store,
		logger: slog.Default(),
		name:   "tip",
	}
	for _, o := range opts {
		o.apply(s)
	}
	return s
}

// AddEvent stores one event through ImportEvents, returning the UUIDs of
// already stored events it correlates with: those sharing the value of at
// least one of its correlating attributes (MISP's automatic correlation;
// comments, score write-backs and context text do not correlate, see
// misp.Attribute.Correlates). The lookup costs the postings of the event's
// own indicator values, not the size of the store, so the per-event path
// (eIoC write-back, POST /events, infrastructure sightings) stays flat as
// the TIP fills. New and updated events are announced on an attached
// broker; an invalid event fails with its reason, and one older than its
// UUID's deletion with storage.ErrStale, unannounced.
// The store keeps a private copy; the caller retains ownership of e.
func (s *Service) AddEvent(e *misp.Event) (correlated []string, err error) {
	if e != nil {
		correlated = s.store.Correlated(e)
	}
	seqs, err := s.ImportEvents([]*misp.Event{e}, nil)
	if err != nil {
		return nil, err
	}
	if seqs[0] == 0 {
		return nil, fmt.Errorf("%w: %s", storage.ErrStale, e.UUID)
	}
	return correlated, nil
}

// AddEvents stores a batch of events through the store's group-commit
// path (one WAL write and flush for the whole batch instead of one per
// event). It is partial-failure tolerant: events that fail validation
// are skipped and their errors aggregated with errors.Join, while the
// valid remainder is still stored and announced on the bus. It
// returns the events actually stored; one the store refuses as older than
// its UUID's deletion is neither returned, counted nor published.
// Correlation is computed against the state before the batch; events
// inside one batch correlate with each other on subsequent lookups.
func (s *Service) AddEvents(events []*misp.Event) (stored []*misp.Event, err error) {
	seqs, err := s.ImportEvents(events, nil)
	for i, seq := range seqs {
		if seq != 0 {
			stored = append(stored, events[i])
		}
	}
	return stored, err
}

// ImportEvents is AddEvents for events that arrived encoded: raw, when
// non-nil, runs beside events, and a non-nil raw[i] is the JSON events[i]
// was decoded from (storage.Change.Raw), which the store logs as is.
// It is the one place a revision is validated (DESIGN.md §8): every write
// that reaches the store from outside it, REST, mesh import and
// write-back alike, comes through here, and the store trusts what it is
// handed. It returns, beside events, the sequence each was installed at
// (storage.Store.PutBatch), 0 for one invalid or refused; nil on a failed
// commit.
func (s *Service) ImportEvents(events []*misp.Event, raw [][]byte) ([]uint64, error) {
	var errs []error
	valid := make([]*misp.Event, 0, len(events))
	at := make([]int, 0, len(events)) // the index in events of each valid event
	topics := make([]string, 0, len(events))
	var validRaw [][]byte
	for i, e := range events {
		if e == nil {
			errs = append(errs, fmt.Errorf("tip: nil event"))
			continue
		}
		if verr := e.Validate(); verr != nil {
			errs = append(errs, verr)
			continue
		}
		topic := TopicEventAdd
		if s.store.Has(e.UUID) {
			topic = TopicEventEdit
		}
		valid = append(valid, e)
		at = append(at, i)
		topics = append(topics, topic)
		if i < len(raw) {
			validRaw = append(validRaw, raw[i])
		}
	}
	seqs := make([]uint64, len(events))
	if len(valid) > 0 {
		// Record this node as each revision's origin before the commit, which
		// wakes peers parked on the change feed: their page reads this
		// table. The mesh importer has already filed forwarded provenance;
		// RecordLocal keeps that.
		now := time.Now()
		for _, e := range valid {
			s.prov.RecordLocal(e.UUID, s.name, now)
		}
		installed, perr := s.store.PutBatch(valid, validRaw)
		if perr != nil {
			return nil, errors.Join(append(errs, perr)...)
		}
		stored := 0
		for i, seq := range installed {
			if seq != 0 {
				seqs[at[i]] = seq
				s.publish(topics[i], valid[i])
				s.countStore(topics[i])
				stored++
			}
		}
		s.logger.Debug("event batch stored", "instance", s.name,
			"stored", stored, "refused", len(valid)-stored, "rejected", len(errs))
	}
	return seqs, errors.Join(errs...)
}

// GetEvent fetches one event by UUID as a shared frozen view (DESIGN.md
// §8): the result must not be mutated.
func (s *Service) GetEvent(uuid string) (*misp.Event, error) {
	return s.store.Get(uuid)
}

// WrappedJSONFor returns the {"Event": …} wire encoding of an event,
// served from the store's encode-once cache when e is a stored revision
// (as returned by GetEvent/Search/ChangesPage). The bytes are read-only.
func (s *Service) WrappedJSONFor(e *misp.Event) ([]byte, error) {
	return s.store.WrappedJSONFor(e)
}

// DeleteEvent removes one event by UUID. The deletion tombstones the
// UUID in the change feed, so replication peers drop their copies too.
func (s *Service) DeleteEvent(uuid string) error {
	return s.store.Delete(uuid)
}

// DeleteEventsAt removes a batch of events as one commit group, each
// tombstone recording its entry's deletion time — the entry point
// replication uses to re-apply a peer's deletions at their original
// times so newest-wins stays transitive across mesh hops. Events the
// store does not hold are skipped; it returns how many were removed.
func (s *Service) DeleteEventsAt(dels []storage.Deletion) (int, error) {
	return s.store.DeleteBatch(dels)
}

// SearchQuery selects events; zero fields are ignored, set fields AND.
type SearchQuery struct {
	// Value matches an exact attribute value.
	Value string `json:"value,omitempty"`
	// Type matches an attribute type.
	Type string `json:"type,omitempty"`
	// Tag matches an event tag.
	Tag string `json:"tag,omitempty"`
	// Since keeps events stamped at or after this instant.
	Since time.Time `json:"since,omitempty"`
}

// Search runs a query against the store. Results are shared frozen views
// in UUID order. A value query narrows the candidates through the store's
// value index; a query without a value is one filtered pass over the store
// (DESIGN.md §8). Every other criterion is checked per event.
func (s *Service) Search(q SearchQuery) ([]*misp.Event, error) {
	match := func(e *misp.Event) bool {
		return (q.Type == "" || hasType(e, q.Type)) && (q.Tag == "" || e.HasTag(q.Tag)) &&
			(q.Since.IsZero() || !e.Timestamp.Before(q.Since))
	}
	if q.Value == "" {
		return s.store.Select(match)
	}
	candidates, err := s.store.SearchValue(q.Value)
	if err != nil {
		return nil, err
	}
	return slices.DeleteFunc(candidates, func(e *misp.Event) bool { return !match(e) }), nil // a fresh slice, in UUID order
}

// ChangesPage lists up to limit events from the node's ingest-sequence
// change feed, strictly after afterSeq, plus the sequence to resume from
// and whether more entries remain. This is the feed the mesh replicates
// over: unlike a (timestamp, uuid) cursor, an event this node imports
// late still lands past every cursor already handed out, so a peer
// paging the feed can never skip it.
func (s *Service) ChangesPage(afterSeq uint64, limit int) ([]*misp.Event, uint64, bool, error) {
	return s.store.ChangesPage(afterSeq, limit)
}

// Changes is ChangesPage with deletions included: tombstoned UUIDs
// yield deletion markers so a replication peer can drop its copy
// instead of keeping a resurrected revision forever. When provenance is
// enabled each live entry also carries its cross-node trace context;
// events the table has forgotten (evicted, or recovered from a WAL that
// predates the table) get origin-only provenance synthesized from the
// change log so downstream hops still learn the origin node and seq.
func (s *Service) Changes(afterSeq uint64, limit int) ([]storage.Change, uint64, bool, error) {
	changes, next, more, err := s.store.Changes(afterSeq, limit)
	if err != nil || s.prov == nil {
		return changes, next, more, err
	}
	for i := range changes {
		if changes[i].Event == nil {
			continue
		}
		p := s.prov.Lookup(changes[i].UUID)
		if p == nil {
			p = &obs.Provenance{Origin: s.name}
		}
		if p.OriginSeq == 0 && p.Origin == s.name {
			// The group-commit path does not learn per-event sequences;
			// the change log does. Fill the origin seq at the wire.
			p.OriginSeq = changes[i].Seq
		}
		changes[i].Prov = p
	}
	return changes, next, more, nil
}

// maxParked is the ceiling on change-feed reads parked at once. A read
// beyond it is answered immediately: that peer degrades to plain polling.
const maxParked = 256

// ChangesWait is Changes for a reader willing to wait: when nothing
// follows afterSeq it parks until the store commits or closes, wait
// expires or ctx ends, then reads the feed once more. An empty page with
// the cursor unchanged is a valid answer.
func (s *Service) ChangesWait(ctx context.Context, afterSeq uint64, limit int, wait time.Duration) ([]storage.Change, uint64, bool, error) {
	if wait <= 0 {
		return s.Changes(afterSeq, limit)
	}
	committed := s.store.Committed() // before the read: see Store.Committed
	changes, next, more, err := s.Changes(afterSeq, limit)
	if err != nil || next != afterSeq {
		return changes, next, more, err
	}
	parked := s.parked.Add(1)
	defer s.parked.Add(-1)
	if parked > maxParked {
		return changes, next, more, nil
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-committed:
	case <-timer.C:
	case <-ctx.Done():
	}
	return s.Changes(afterSeq, limit)
}

// Provenance returns the attached cross-node trace table (nil when
// provenance is disabled).
func (s *Service) Provenance() *obs.ProvTable { return s.prov }

// Name reports the instance name — the node identity provenance and
// the fleet status view publish.
func (s *Service) Name() string { return s.name }

// StoreSeq reports the store's ingest-sequence high-water mark.
func (s *Service) StoreSeq() uint64 { return s.store.Seq() }

// Len reports the number of stored events.
func (s *Service) Len() int { return s.store.Len() }

// Stats summarizes the instance, including the durability counters of
// the underlying store (WAL footprint, compaction progress).
type Stats struct {
	Name        string `json:"name"`
	Events      int    `json:"events"`
	WALOps      int    `json:"wal_ops"`
	WALBytes    int64  `json:"wal_bytes"`
	WALSegments int    `json:"wal_segments"`
	Compactions int64  `json:"compactions"`
	// Tombstones counts retained deletion markers in the change feed.
	Tombstones int `json:"tombstones"`
	// LastCompactionMS is the wall time of the latest snapshot in
	// milliseconds (0 when none ran yet).
	LastCompactionMS float64 `json:"last_compaction_ms"`
	// BusPublished / BusDropped expose the attached broker's fan-out
	// counters; drop-oldest losses from lagging subscribers are otherwise
	// silent. Zero when no broker is attached.
	BusPublished int   `json:"bus_published"`
	BusDropped   int64 `json:"bus_dropped"`
}

// Stats returns instance counters.
func (s *Service) Stats() Stats {
	d := s.store.Durability()
	st := Stats{
		Name:             s.name,
		Events:           s.store.Len(),
		WALOps:           d.WALOps,
		WALBytes:         d.WALBytes,
		WALSegments:      d.WALSegments,
		Compactions:      d.Compactions,
		Tombstones:       d.Tombstones,
		LastCompactionMS: float64(d.LastCompactionDuration) / float64(time.Millisecond),
	}
	if s.broker != nil {
		st.BusPublished = s.broker.Published()
		st.BusDropped = s.broker.Dropped()
	}
	return st
}

// publish announces a just-stored event on the bus, reusing the store's
// encode-once wire encoding so the same bytes serve the bus and the HTTP
// read paths. An event the store does not hold is not announced.
func (s *Service) publish(topic string, e *misp.Event) {
	if s.broker == nil {
		return
	}
	// Encoded only when somebody listens: a batch run has no subscriber.
	s.broker.PublishFunc(topic, func() ([]byte, bool) {
		data, err := s.store.WrappedJSON(e.UUID)
		return data, err == nil
	})
}

// countStore bumps the store-operation counter, mapping the bus topic to
// its operation label.
func (s *Service) countStore(topic string) {
	if s.storeOps == nil {
		return
	}
	op := "add"
	if topic == TopicEventEdit {
		op = "edit"
	}
	s.storeOps.With(op).Inc()
}

func hasType(e *misp.Event, typ string) bool {
	for _, a := range e.Attributes {
		if a.Type == typ {
			return true
		}
	}
	for _, o := range e.Objects {
		for _, a := range o.Attributes {
			if a.Type == typ {
				return true
			}
		}
	}
	return false
}

// MarshalStats renders stats as JSON (used by the HTTP layer).
func MarshalStats(st Stats) []byte {
	data, err := json.Marshal(st)
	if err != nil {
		return []byte(`{}`)
	}
	return data
}
