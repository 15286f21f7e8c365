package obs

import (
	"sync"
	"time"
)

// Hop is one replication step of an event's journey across the mesh: the
// node that pulled the event and when it pulled it. Hops accumulate in
// order, so the gap between consecutive pull times is the dwell time on
// the intermediate node — poll interval plus import cost, measured from
// real traffic rather than inferred from configuration.
type Hop struct {
	Node           string `json:"node"`
	PulledUnixNano int64  `json:"pulled_unix_nano"`
}

// Provenance is the compact cross-node trace context carried on mesh
// wire items (a "Provenance" sibling of the "Event" key on change-feed
// pages). The origin node stamps it at ingest; every node that imports
// the event appends one Hop before forwarding, so the terminal node of
// any replication path can reconstruct the full multi-hop journey and
// its per-hop latencies.
type Provenance struct {
	// Origin names the node that first ingested the event.
	Origin string `json:"origin"`
	// OriginSeq is the event's ingest sequence on the origin node — the
	// position in the origin's change feed the event first appeared at.
	OriginSeq uint64 `json:"origin_seq"`
	// IngestUnixNano is the origin's ingest wall time. Zero when the
	// origin predates provenance tracking (the event was recovered from
	// a WAL written before the table existed); latency observations are
	// skipped for such events rather than fabricated.
	IngestUnixNano int64 `json:"ingest_unix_nano,omitempty"`
	// Hops records every node that imported the event after the origin,
	// in pull order.
	Hops []Hop `json:"hops,omitempty"`
}

// Clone returns a deep copy safe to mutate (append hops) without
// aliasing the table's stored value.
func (p *Provenance) Clone() *Provenance {
	if p == nil {
		return nil
	}
	out := *p
	out.Hops = append([]Hop(nil), p.Hops...)
	return &out
}

// DefaultProvCap bounds a ProvTable: provenance is a trace sidecar, not
// durable state, so the table forgets oldest-first once full. A node
// serving an evicted (or pre-table) event synthesizes origin-only
// provenance at the wire instead.
const DefaultProvCap = 65536

// ProvTable is a bounded in-memory map from event UUID to the latest
// known provenance of that revision. The TIP service records local
// ingests as origins; the mesh engine replaces entries with forwarded
// provenance (origin + accumulated hops) when a revision arrives by
// replication. Eviction is FIFO by insertion order, mirroring the
// tracer's bounded active set. All methods are safe for concurrent use
// and no-op on a nil receiver.
type ProvTable struct {
	mu   sync.Mutex
	m    map[string]*Provenance
	fifo []string
	cap  int
	// imports holds the UUIDs Record filed for an import not yet stored:
	// the RecordLocal that import's own store call issues must keep them.
	imports map[string]bool
}

// NewProvTable builds a table bounded at capacity (DefaultProvCap when
// capacity <= 0).
func NewProvTable(capacity int) *ProvTable {
	if capacity <= 0 {
		capacity = DefaultProvCap
	}
	return &ProvTable{m: make(map[string]*Provenance), cap: capacity, imports: make(map[string]bool)}
}

// RecordLocal stamps uuid as originating on node at now. The ingest
// sequence is filled in lazily at serve time (the change feed knows the
// exact per-event sequence; the group-commit path does not).
func (t *ProvTable) RecordLocal(uuid, node string, now time.Time) {
	if t == nil || uuid == "" {
		return
	}
	t.put(uuid, &Provenance{Origin: node, IngestUnixNano: now.UnixNano()}, false)
}

// Record replaces uuid's provenance wholesale — the mesh import path,
// storing the forwarded context with this node's hop already appended.
// The importer calls it before it stores the event, so that a peer woken
// by the commit is not served a self-origin record; the next RecordLocal
// for uuid (the store call's own) is therefore ignored.
func (t *ProvTable) Record(uuid string, p *Provenance) {
	if t == nil || uuid == "" || p == nil {
		return
	}
	t.put(uuid, p.Clone(), true)
}

func (t *ProvTable) put(uuid string, p *Provenance, imported bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if imported {
		t.imports[uuid] = true
	} else if t.imports[uuid] {
		delete(t.imports, uuid)
		return
	}
	if _, ok := t.m[uuid]; !ok {
		if len(t.m) >= t.cap {
			t.evictOldestLocked()
		}
		t.fifo = append(t.fifo, uuid)
	}
	t.m[uuid] = p
}

func (t *ProvTable) evictOldestLocked() {
	for len(t.fifo) > 0 {
		victim := t.fifo[0]
		t.fifo = t.fifo[1:]
		if _, ok := t.m[victim]; ok {
			delete(t.m, victim)
			delete(t.imports, victim)
			return
		}
	}
}

// Lookup returns a copy of uuid's provenance, or nil when unknown.
func (t *ProvTable) Lookup(uuid string) *Provenance {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[uuid].Clone()
}

// Len reports the number of tracked UUIDs.
func (t *ProvTable) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}
