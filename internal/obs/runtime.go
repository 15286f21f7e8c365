package obs

import (
	"runtime"
	"sync"
	"time"
)

// memStatsTTL bounds how often the runtime gauges call
// runtime.ReadMemStats: the read briefly stops the world, and one scrape
// renders several families off the same snapshot, so a short cache keeps
// a scrape to at most one read without going stale between scrapes.
const memStatsTTL = time.Second

// memReader caches one runtime.MemStats snapshot for all the registered
// GaugeFuncs/CounterFuncs that render from it.
type memReader struct {
	mu   sync.Mutex
	at   time.Time
	stat runtime.MemStats
}

func (m *memReader) read() runtime.MemStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if time.Since(m.at) > memStatsTTL {
		runtime.ReadMemStats(&m.stat)
		m.at = time.Now()
	}
	return m.stat
}

// RegisterRuntime exposes the Go runtime's health signals as scrape-time
// views: live goroutine count, heap in use, and cumulative GC pause
// time.
func RegisterRuntime(reg *Registry) {
	mem := &memReader{}
	reg.GaugeFunc("caisp_go_goroutines",
		"Goroutines currently live in the process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("caisp_go_heap_bytes",
		"Heap bytes in use (runtime.MemStats.HeapAlloc).",
		func() float64 { return float64(mem.read().HeapAlloc) })
	reg.CounterFunc("caisp_go_gc_pause_seconds_total",
		"Cumulative stop-the-world GC pause time.",
		func() float64 { return float64(mem.read().PauseTotalNs) / 1e9 })
	reg.CounterFunc("caisp_go_gc_cycles_total",
		"Completed garbage collection cycles.",
		func() float64 { return float64(mem.read().NumGC) })
}

// Version is the build version stamped on caisp_build_info. Overridable
// at link time (-ldflags "-X ...obs.Version=v1.2.3"); defaults to the
// development placeholder.
var Version = "dev"

// RegisterBuildInfo exposes caisp_build_info: a constant-1 gauge whose
// labels carry the build version and Go toolchain, the conventional
// join key for version rollout dashboards.
func RegisterBuildInfo(reg *Registry) {
	reg.GaugeVec("caisp_build_info",
		"Build metadata; the value is always 1.",
		"version", "goversion").With(Version, runtime.Version()).Set(1)
}
