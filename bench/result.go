package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/tip"
)

// The metric names below are the benchmark's contract with
// BENCHMARK.json; TestBenchmarkJSONMatches keeps the two in step.

// endToEndMetrics are what a user of the platform sees. Every workload
// reports every one of them (the README defines each per workload).
//
// The bounds are what the parent commit's run-to-run spread and
// set-to-set drift on the two-core sandbox support (README, "Bounds").
// Tail latencies did not clear that bar on every workload and are
// reported ungated, as lat_tail_ms among the per-layer metrics.
var endToEndMetrics = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerMetrics are single-layer figures from the traced pass; a layer
// a workload does not exercise reports 0.
var perLayerMetrics = []metricDef{
	{"lat_tail_ms", "ms", "lower", 0},
	{"feed.parse_s", "s", "lower", 0},
	{"feed.records", "count", "higher", 0},
	{"feed.malformed", "count", "lower", 0},
	{"normalize.new_s", "s", "lower", 0},
	{"textclass.classify_s", "s", "lower", 0},
	{"dedup.offer_s", "s", "lower", 0},
	{"dedup.hit_ratio", "ratio", "higher", 0},
	{"correlate.add_s", "s", "lower", 0},
	{"correlate.to_misp_s", "s", "lower", 0},
	{"correlate.clusters_new", "count", "higher", 0},
	{"correlate.clusters_updated", "count", "higher", 0},
	{"correlate.clusters_merged", "count", "higher", 0},
	{"heuristic.to_stix_s", "s", "lower", 0},
	{"heuristic.evaluate_s", "s", "lower", 0},
	{"heuristic.reduce_s", "s", "lower", 0},
	{"tip.add_events_s", "s", "lower", 0},
	{"tip.add_event_s", "s", "lower", 0},
	{"tip.http_s", "s", "lower", 0},
	{"tip.write_ack_p50_ms", "ms", "lower", 0},
	{"storage.correlated_s", "s", "lower", 0},
	{"storage.put_s", "s", "lower", 0},
	{"storage.put_batch_s", "s", "lower", 0},
	{"storage.wal_bytes_per_event", "B", "lower", 0},
	{"storage.compactions", "count", "lower", 0},
	{"storage.compaction_s", "s", "lower", 0},
	{"storage.recover_s", "s", "lower", 0},
	{"storage.get_s", "s", "lower", 0},
	{"storage.search_s", "s", "lower", 0},
	{"storage.changes_page_s", "s", "lower", 0},
	{"subscribe.evaluate_s", "s", "lower", 0},
	{"subscribe.candidates_per_event", "count", "lower", 0},
	{"subscribe.matches", "count", "higher", 0},
	{"dashboard.push_s", "s", "lower", 0},
	{"wsock.frames_sent", "count", "higher", 0},
	{"wsock.evicted", "count", "lower", 0},
	{"bus.published", "count", "higher", 0},
	{"bus.dropped", "count", "lower", 0},
	{"mesh.sync_s", "s", "lower", 0},
	{"mesh.pull_s", "s", "lower", 0},
	{"mesh.pages", "count", "lower", 0},
	{"mesh.pulled", "count", "higher", 0},
	{"mesh.imported", "count", "higher", 0},
	{"mesh.echo_suppressed", "count", "lower", 0},
	{"mesh.poll_wait_s", "s", "lower", 0},
	{"dash_fresh_p50_ms", "ms", "lower", 0},
	{"dash_fresh_tail_ms", "ms", "lower", 0},
	{"match_fresh_p50_ms", "ms", "lower", 0},
	{"match_fresh_tail_ms", "ms", "lower", 0},
	{"peer_fresh_p50_ms", "ms", "lower", 0},
	{"peer_fresh_tail_ms", "ms", "lower", 0},
	{"core.serial_run_s", "s", "lower", 0},
	{"core.unattributed_s", "s", "lower", 0},
	{"bench.gen_late_p99_ms", "ms", "lower", 0},
	{"bench.backlog_docs", "count", "lower", 0},
	{"bench.trace_overhead_s", "s", "lower", 0},
}

type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// metric is one reported value. N is the sample count behind a timing
// and Note says which percentile a tail is.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// runResult is the outcome of one pass of one workload.
type runResult struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Traced     bool              `json:"traced"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Violations []string          `json:"violations,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	// Info carries workload-specific figures outside the contract (the
	// sizes reached, counts, the per-sink freshness of stream.paced).
	Info      map[string]metric `json:"info,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`
	WallS     float64           `json:"wall_s"`
}

func newResult(cfg runConfig) *runResult {
	r := &runResult{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Traced: cfg.Traced,
		Metrics: map[string]metric{}, Info: map[string]metric{},
	}
	defs := endToEndMetrics
	if cfg.Traced {
		defs = perLayerMetrics
	}
	for _, d := range defs {
		r.Metrics[d.Name] = metric{Unit: d.Unit}
	}
	return r
}

// set records a contract metric; an unknown name is a programming error.
func (r *runResult) set(name string, value float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("bench: metric " + name + " is not declared for this pass")
	}
	m.Value = value
	r.Metrics[name] = m
}

// setTiming records a median and (when tailName is set) its tail from
// one sample set, with the sample count and the tail's percentile.
func (r *runResult) setTiming(p50Name, tailName string, s summary) {
	r.set(p50Name, s.P50)
	m := r.Metrics[p50Name]
	m.N = s.N
	r.Metrics[p50Name] = m
	if tailName == "" {
		return
	}
	r.set(tailName, s.Tail)
	m = r.Metrics[tailName]
	m.N, m.Note = s.N, tailNote(s)
	r.Metrics[tailName] = m
}

func tailNote(s summary) string { return "p" + strconv.FormatFloat(s.TailPct, 'f', -1, 64) }

// infoTail reports a tail outside the contract (the untraced pass).
func (r *runResult) infoTail(name string, s summary) {
	r.Info[name] = metric{Value: s.Tail, Unit: "ms", N: s.N, Note: tailNote(s)}
}

func (r *runResult) info(name string, value float64, unit string) {
	r.Info[name] = metric{Value: value, Unit: unit}
}

// gate is the correctness gate: operations attempted and failed, and the
// invariants that did not hold.
type gate struct {
	attempted  int64
	failed     int64
	violations []string
}

// ops counts a class of operations; failed ones are also a violation.
func (g *gate) ops(attempted, failed int64, what string) {
	g.attempted += attempted
	if failed > 0 {
		g.failed += failed
		g.violations = append(g.violations, fmt.Sprintf("%s: %d of %d failed", what, failed, attempted))
	}
}

// require checks one invariant.
func (g *gate) require(ok bool, format string, args ...any) {
	g.attempted++
	if !ok {
		g.failed++
		g.violations = append(g.violations, fmt.Sprintf(format, args...))
	}
}

func (g *gate) finish(r *runResult) {
	r.Attempted, r.Failed, r.Violations = g.attempted, g.failed, g.violations
	r.Correct = len(g.violations) == 0
}

// print writes every metric by name with its unit and sample count.
func (r *runResult) print(w io.Writer) {
	pass := "end-to-end"
	if r.Traced {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s seed=%d %s, measured %.1fs, wall %.1fs\n", r.Workload, r.Seed, pass, r.Seconds, r.WallS)
	printMetrics(w, r.Metrics)
	if len(r.Info) > 0 {
		fmt.Fprintln(w, "   -- workload detail")
		printMetrics(w, r.Info)
	}
	fmt.Fprintf(w, "   operations attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "   VIOLATION %s\n", v)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "   spans written to %s\n", r.TraceFile)
	}
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		extra := ""
		if m.N > 0 {
			extra = fmt.Sprintf("  (n=%d", m.N)
			if m.Note != "" {
				extra += ", " + m.Note
			}
			extra += ")"
		}
		fmt.Fprintf(w, "   %-32s %14.4f %s%s\n", n, m.Value, m.Unit, extra)
	}
}

// scrape renders a registry in Prometheus text form and returns every
// series by name (labels included). It is how the benchmark reads the
// layers' own counters without reaching into them.
func scrape(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	if reg == nil {
		return out
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return out
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// series sums every scraped series of one family (any labels).
func series(m map[string]float64, family string) float64 {
	var sum float64
	for name, v := range m {
		if name == family || strings.HasPrefix(name, family+"{") {
			sum += v
		}
	}
	return sum
}

// storeDigest folds every stored event's identity and revision into one
// order-independent hash (FNV over uuid+timestamp), and counts them.
func storeDigest(svc *tip.Service) (uint64, int, error) {
	events, _, _, err := svc.ChangesPage(0, 0) // limit 0: the whole live set
	if err != nil {
		return 0, 0, err
	}
	var sum uint64
	for _, e := range events {
		h := fnv.New64a()
		_, _ = io.WriteString(h, e.UUID)
		_, _ = io.WriteString(h, strconv.FormatInt(e.Timestamp.Unix(), 10))
		sum ^= h.Sum64()
	}
	return sum, len(events), nil
}

// liveHeapMB forces a collection and returns the live heap, less memory
// the benchmark itself holds.
func liveHeapMB(benchBytes int) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return (float64(ms.HeapAlloc) - float64(benchBytes)) / (1 << 20)
}

// quietLogger discards the platform's logs: the benchmark's output is
// its own.
func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// scratchDir makes a fresh directory under out/ for a durable store.
func scratchDir(out, name string) (string, error) {
	base := out + "/data"
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}
