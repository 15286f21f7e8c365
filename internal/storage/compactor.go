package storage

import (
	"context"
	"log/slog"
)

// The compaction policy RunCompactor applies: snapshot once this many
// WAL operations accumulated since the last snapshot, bounding restart
// replay, or once the on-disk WAL crosses this many bytes, so a burst of
// large events cannot grow the log unboundedly between op-count
// triggers.
const (
	CompactAfterOps   = 5000
	CompactAfterBytes = 32 << 20
)

// RunCompactor is the store's background compaction trigger: it parks
// on Committed and runs Compact once the WAL passes CompactAfterOps or
// CompactAfterBytes, so snapshots never run on a writer's path and
// commits landing during one coalesce into the next check. Failures are
// logged to logger. It returns when ctx ends, compacting once more if a
// trigger is pending, or once the store is closed; on a memory-only
// store, which has no WAL to bound, at once. End it before Close.
func (s *Store) RunCompactor(ctx context.Context, logger *slog.Logger) {
	if s.dir == "" {
		return
	}
	for {
		// Take the wake-up before reading the watermarks, so a commit
		// landing in between still wakes the loop.
		woke := s.Committed()
		if !s.compactIfDue(logger) {
			return // closed: Committed stays closed from now on
		}
		select {
		case <-woke:
		case <-ctx.Done():
			s.compactIfDue(logger)
			return
		}
	}
}

// compactIfDue compacts when the WAL is past either threshold. It
// reports false once the store is closed.
func (s *Store) compactIfDue(logger *slog.Logger) bool {
	s.mu.RLock()
	closed, due := s.closed, s.walOps > CompactAfterOps || s.wal.bytes() > CompactAfterBytes
	s.mu.RUnlock()
	if due && !closed {
		if err := s.Compact(); err != nil {
			logger.Warn("store compaction failed", "error", err)
		}
	}
	return !closed
}
