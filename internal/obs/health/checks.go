package health

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
)

// probeFile is the scratch file DirWritable creates and removes on each
// evaluation. Dot-prefixed so store snapshots and WAL scans ignore it.
const probeFile = ".caisp-health-probe"

// DirWritable probes that dir still accepts writes — the WAL-writable
// check: it creates a scratch file, writes a byte, syncs and removes
// it. Any failure is Down (the store cannot commit), which fails
// liveness so the orchestrator restarts onto, hopefully, healthier
// storage. An empty dir (memory-only store) always passes.
func DirWritable(dir string) Check {
	return func() Result {
		if dir == "" {
			return Pass()
		}
		path := filepath.Join(dir, probeFile)
		f, err := os.Create(path)
		if err != nil {
			return Downf(fmt.Sprintf("data dir not writable: %v", err))
		}
		_, werr := f.Write([]byte{1})
		serr := f.Sync()
		cerr := f.Close()
		rerr := os.Remove(path)
		for _, err := range []error{werr, serr, cerr, rerr} {
			if err != nil {
				return Downf(fmt.Sprintf("data dir write failed: %v", err))
			}
		}
		return Pass()
	}
}

// Progress degrades when a monotonic counter stops advancing — the
// scheduler-liveness pattern (lifecycle passes, analyzer flushes). The
// check remembers the last observed value and when it changed; once the
// counter sits still longer than within, the component is Degraded. The
// first evaluation establishes the baseline and passes, so a freshly
// booted node is not penalized for work it has not had time to do.
func Progress(fn func() int64, within time.Duration, clk clock.Clock) Check {
	var (
		mu      sync.Mutex
		last    int64
		lastAt  time.Time
		started bool
	)
	return func() Result {
		v := fn()
		t := clk.Now()
		mu.Lock()
		defer mu.Unlock()
		if !started || v != last {
			started = true
			last, lastAt = v, t
			return Pass()
		}
		if idle := t.Sub(lastAt); idle > within {
			return Degradedf(fmt.Sprintf("no progress for %s (stuck at %d)", idle.Round(time.Second), v))
		}
		return Pass()
	}
}

// Max degrades once a sampled value exceeds limit — the backlog /
// saturation pattern (WAL ops awaiting compaction, hub queue fill
// fraction). what names the value in the degraded reason.
func Max(what string, fn func() float64, limit float64) Check {
	return func() Result {
		if v := fn(); v > limit {
			return Degradedf(fmt.Sprintf("%s %.6g exceeds %.6g", what, v, limit))
		}
		return Pass()
	}
}
