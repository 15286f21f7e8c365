package health

import (
	"net/http"
	"runtime"

	"github.com/caisplatform/caisp/internal/obs"
)

// PeerInfo is one replication peer's watermark as seen from this node —
// the mesh engine's per-peer state projected onto the fleet view.
type PeerInfo struct {
	Name string `json:"name"`
	// Cursor is the durable high-water mark into the peer's change feed.
	Cursor uint64 `json:"cursor"`
	// LastSuccessUnix is when the last fully drained sync round against
	// the peer completed (Unix seconds; 0 when none succeeded yet).
	LastSuccessUnix int64 `json:"last_success_unix"`
	// LagSeconds is the replication lag: age of the newest event pulled
	// in the last drained round while healthy, or seconds since the last
	// success while the peer is failing.
	LagSeconds float64 `json:"lag_seconds"`
	// BackoffSeconds is the current failure backoff (0 while healthy).
	BackoffSeconds float64 `json:"backoff_seconds"`
	// Failures counts consecutive failed sync attempts.
	Failures int64 `json:"failures"`
	// LastError is the most recent sync error (empty while healthy).
	LastError string `json:"last_error,omitempty"`
}

// NodeStatus is the GET /cluster/status payload: one node's identity,
// store watermarks, peer lag and health verdict — everything caisp-top
// needs to render a fleet row without scraping /metrics.
type NodeStatus struct {
	Node      string `json:"node"`
	Role      string `json:"role"`
	GoVersion string `json:"go_version"`
	// StoreSeq is the node's own ingest-sequence high-water mark — the
	// value peer cursors chase.
	StoreSeq uint64 `json:"store_seq"`
	// Events is the live event count in the store.
	Events int `json:"events"`
	// WALOps counts operations appended since the last compaction
	// (the compaction backlog).
	WALOps int `json:"wal_ops"`
	// IngestTotal counts events stored since boot (adds + edits),
	// the counter caisp-top differentiates into a rate.
	IngestTotal int64 `json:"ingest_total"`
	// Clients is the number of connected dashboard/match websockets.
	Clients int `json:"clients"`
	// Peers lists the node's replication peers, empty off-mesh.
	Peers []PeerInfo `json:"peers,omitempty"`
	// Health is the full check report (the /readyz payload inline).
	Health Report `json:"health"`
}

// StatusHandler serves GET /cluster/status from a snapshot function.
// The handler stamps GoVersion itself so callers only fill what they
// know.
func StatusHandler(fn func() NodeStatus) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		st := fn()
		if st.GoVersion == "" {
			st.GoVersion = runtime.Version()
		}
		obs.WriteJSON(w, http.StatusOK, st)
	})
}
