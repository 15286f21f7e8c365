package subscribe

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"github.com/caisplatform/caisp/internal/storage"
)

// Subscription persistence: standing STIX-pattern detections are part of
// the node's durable state — a tipd restart mid mesh catch-up must not
// silently drop them. With WithPersistPath set, the engine mirrors the
// live pattern set to one small JSON sidecar on every register and
// unsubscribe, and replays the sidecar on boot with the original
// subscription IDs and creation stamps, so handles clients hold across
// the restart stay valid. Match counters are runtime state and restart
// at zero.

// WithPersistPath enables persistence at path. The file is loaded during
// NewEngine (before the first event is evaluated) and rewritten
// atomically (temp file + rename) after each mutation.
func WithPersistPath(path string) Option {
	return func(e *Engine) { e.persistPath = path }
}

// persistedSubscription is the sidecar record for one standing pattern.
type persistedSubscription struct {
	ID        string     `json:"id"`
	ClientID  string     `json:"client_id"`
	Pattern   string     `json:"pattern"`
	CreatedAt time.Time  `json:"created_at"`
	ExpiresAt *time.Time `json:"expires_at,omitempty"`
}

// loadPersisted replays the sidecar into the empty engine. Entries that
// no longer parse (or exceed the current quotas) are skipped with a log
// line rather than failing boot: a standing detection set must not brick
// the daemon.
func (e *Engine) loadPersisted() {
	if e.persistPath == "" {
		return
	}
	data, err := os.ReadFile(e.persistPath)
	if os.IsNotExist(err) {
		return
	}
	if err != nil {
		e.logger.Warn("subscriptions: load failed", "path", e.persistPath, "error", err)
		return
	}
	var recs []persistedSubscription
	if err := json.Unmarshal(data, &recs); err != nil {
		e.logger.Warn("subscriptions: decode failed", "path", e.persistPath, "error", err)
		return
	}
	restored := 0
	now := e.clk.Now().UTC()
	for _, rec := range recs {
		if rec.ID == "" || rec.Pattern == "" {
			continue
		}
		if rec.ExpiresAt != nil && !now.Before(*rec.ExpiresAt) {
			// The TTL ran out while the daemon was down; don't resurrect.
			continue
		}
		if _, err := e.register(rec.ID, rec.CreatedAt, rec.ExpiresAt, rec.ClientID, rec.Pattern); err != nil {
			e.logger.Warn("subscriptions: skipped on reload",
				"id", rec.ID, "client", rec.ClientID, "error", err)
			continue
		}
		restored++
	}
	if restored > 0 {
		e.logger.Info("subscriptions restored", "count", restored, "path", e.persistPath)
	}
}

// persist mirrors the live pattern set to the sidecar. persistMu orders
// concurrent writers so the file always reflects some consistent
// snapshot; the snapshot itself is taken under the engine read lock.
func (e *Engine) persist() {
	if e.persistPath == "" {
		return
	}
	e.persistMu.Lock()
	defer e.persistMu.Unlock()

	e.mu.RLock()
	recs := make([]persistedSubscription, 0, len(e.subs))
	for _, sub := range e.subs {
		recs = append(recs, persistedSubscription{
			ID:        sub.ID,
			ClientID:  sub.ClientID,
			Pattern:   sub.Pattern,
			CreatedAt: sub.CreatedAt,
			ExpiresAt: sub.ExpiresAt,
		})
	}
	e.mu.RUnlock()
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].CreatedAt.Equal(recs[j].CreatedAt) {
			return recs[i].CreatedAt.Before(recs[j].CreatedAt)
		}
		return recs[i].ID < recs[j].ID
	})

	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		e.logger.Warn("subscriptions: encode failed", "error", err)
		return
	}
	if err := storage.WriteFileAtomic(e.persistPath, append(data, '\n')); err != nil {
		e.logger.Warn("subscriptions: persist failed", "error", err)
	}
}
