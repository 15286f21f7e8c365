package mesh

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"github.com/caisplatform/caisp/internal/storage"
)

// Cursor is a per-peer replication high-water mark over the remote's
// ingest-sequence change feed (GET /events/changes): the next pull
// resumes strictly after Seq. The sequence is assigned by the peer's
// own WAL and persisted with every event, so a saved cursor stays valid
// across restarts of either side. A zero cursor (including one loaded
// from a pre-seq sidecar) re-pulls from the beginning, which echo
// suppression makes idempotent.
type Cursor struct {
	Seq uint64 `json:"seq"`
}

// CursorStore persists the per-peer cursors so a restarted node resumes
// replication from its high-water marks instead of re-pulling history.
type CursorStore interface {
	// Load returns the persisted cursors keyed by peer name. A store
	// that has never been written returns an empty map, not an error.
	Load() (map[string]Cursor, error)
	// Save atomically replaces the persisted cursor set.
	Save(map[string]Cursor) error
}

// FileCursors is a CursorStore backed by one small JSON sidecar file,
// written atomically (temp file + rename) so a crash mid-save leaves the
// previous cursor set intact. Losing a save is harmless: the cursor is a
// resume optimization, and re-pulling a suffix is made idempotent by the
// engine's echo suppression.
type FileCursors struct {
	mu   sync.Mutex
	path string
}

// NewFileCursors persists cursors at path (created on first Save).
func NewFileCursors(path string) *FileCursors {
	return &FileCursors{path: path}
}

// Load implements CursorStore.
func (f *FileCursors) Load() (map[string]Cursor, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	data, err := os.ReadFile(f.path)
	if os.IsNotExist(err) {
		return map[string]Cursor{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("mesh: load cursors: %w", err)
	}
	out := map[string]Cursor{}
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("mesh: decode cursors %s: %w", f.path, err)
	}
	return out, nil
}

// Save implements CursorStore.
func (f *FileCursors) Save(cur map[string]Cursor) error {
	data, err := json.MarshalIndent(cur, "", "  ")
	if err != nil {
		return fmt.Errorf("mesh: encode cursors: %w", err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := storage.WriteFileAtomic(f.path, append(data, '\n')); err != nil {
		return fmt.Errorf("mesh: save cursors: %w", err)
	}
	return nil
}

// MemCursors is an in-process CursorStore for memory-only nodes and
// tests: cursors survive engine restarts within the process but not
// process restarts.
type MemCursors struct {
	mu  sync.Mutex
	cur map[string]Cursor
}

// NewMemCursors returns an empty in-memory cursor store.
func NewMemCursors() *MemCursors { return &MemCursors{cur: map[string]Cursor{}} }

// Load implements CursorStore.
func (m *MemCursors) Load() (map[string]Cursor, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]Cursor, len(m.cur))
	for k, v := range m.cur {
		out[k] = v
	}
	return out, nil
}

// Save implements CursorStore.
func (m *MemCursors) Save(cur map[string]Cursor) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cur = make(map[string]Cursor, len(cur))
	for k, v := range cur {
		m.cur[k] = v
	}
	return nil
}
