package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the layer's public function. Times are nanoseconds since
// the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // span ID, -1 for a root
	Round  int    `json:"round"`  // request identifier: ingest round, request or page index
	// Probe marks a duplicate call made only to time a layer the real
	// call hides (Store.Correlated inside Service.AddEvent). Probes are
	// excluded from self-time sums: their work happened twice.
	Probe bool `json:"probe,omitempty"`
}

// recorder keeps spans in memory until the benchmark ends. A nil
// recorder records nothing, so the untraced pass shares the code path.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, round int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, Start: now, Parent: parent, Round: round})
	r.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// probe marks a span as a duplicate timing call.
func (r *recorder) probe(id int) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].Probe = true
	r.mu.Unlock()
}

func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// selfSeconds sums, per span name, each span's duration minus the part
// its direct children cover, over spans of round minRound and later. Probe spans are summed under their own name
// but are not subtracted from their parent: the parent's real call did
// the same work a second time, which is the cost being estimated.
func (r *recorder) selfSeconds(minRound int) map[string]float64 {
	out := map[string]float64{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 && !s.Probe {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range r.spans {
		if s.Round < minRound {
			continue
		}
		out[s.Name] += float64(s.End-s.Start-child[i]) / 1e9
	}
	return out
}

// perSpanCost calibrates what recording one span costs on this machine,
// so the traced pass can state its own overhead.
func perSpanCost() time.Duration {
	const n = 200000
	r := newRecorder()
	start := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("calibrate", -1, i))
	}
	return time.Since(start) / n
}

// writeJSONL writes one span per line to dir/trace-<workload>.jsonl.
func (r *recorder) writeJSONL(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
