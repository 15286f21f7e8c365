package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}, {-1, 1}, {2, 5},
	} {
		if got := quantile(s, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
}

// TestTailPercentile: a tail is only reported where at least ten samples
// lie beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {1000000, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 50 && tc.n*(100-int(p)) < 1000 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than ten samples beyond it", tc.n, p)
		}
	}
}

func TestSummarizeAndSpread(t *testing.T) {
	var samples []float64
	for i := 1000; i >= 1; i-- { // unsorted on purpose
		samples = append(samples, float64(i))
	}
	s := summarize(samples)
	if s.N != 1000 || s.TailPct != 99 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.P50-500.5) > 1e-9 || math.Abs(s.Tail-990.01) > 1e-6 {
		t.Errorf("p50 %v tail %v", s.P50, s.Tail)
	}
	if samples[0] != 1000 {
		t.Error("summarize reordered its input")
	}
	if got, want := spread([]float64{9, 10, 11, 10, 10}), 0.0; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{8, 9, 10, 11, 12}); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("spread = %v, want 0.2", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
}

// TestOpenLoopTimesFromDue: a slow callback does not push later ticks
// back, and its cost shows as lateness of the ticks behind it.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const every = 10 * time.Millisecond
	o := openLoop{start: time.Now(), offsets: everyOffsets(6, every)}
	var dues []time.Time
	o.run(context.Background(), func(i int, due time.Time) {
		dues = append(dues, due)
		if i == 1 {
			time.Sleep(3 * every) // a stall
		}
	})
	if len(dues) != 6 || len(o.lateMs) != 6 {
		t.Fatalf("fired %d ticks, recorded %d", len(dues), len(o.lateMs))
	}
	for i, due := range dues {
		if want := o.start.Add(time.Duration(i) * every); !due.Equal(want) {
			t.Errorf("tick %d due %v, want %v", i, due.Sub(o.start), want.Sub(o.start))
		}
	}
	// Ticks 2 and 3 were due during the stall: they fire late, and say so.
	if o.lateMs[2] < ms(every) {
		t.Errorf("tick 2 fired %.1fms late, want at least %v: the stall was not charged", o.lateMs[2], every)
	}
	// The loop catches up instead of shifting the schedule.
	if o.lateMs[5] > ms(every) {
		t.Errorf("tick 5 still %.1fms late: the schedule slipped", o.lateMs[5])
	}
}

func TestOpenLoopStopsWithContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	o := openLoop{start: time.Now(), offsets: everyOffsets(1000, time.Hour)}
	fired := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		o.run(ctx, func(int, time.Time) { fired++ })
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	if fired > 1 {
		t.Errorf("fired %d ticks after cancel", fired)
	}
}

func TestRecorderSelfTime(t *testing.T) {
	r := &recorder{t0: time.Now()}
	r.spans = []span{
		{ID: 0, Name: "round", Start: 0, End: 100, Parent: -1, Round: 0},
		{ID: 1, Name: "a", Start: 10, End: 40, Parent: 0, Round: 0},
		{ID: 2, Name: "probe", Start: 40, End: 60, Parent: 0, Round: 0, Probe: true},
		{ID: 3, Name: "a", Start: 60, End: 70, Parent: 0, Round: 0},
		{ID: 4, Name: "a", Start: 0, End: 1000, Parent: -1, Round: 5},
	}
	self := r.selfSeconds(0)
	if got := self["round"] * 1e9; math.Abs(got-60) > 1e-6 { // 100 - 30 - 10; the probe is not subtracted
		t.Errorf("round self = %vns, want 60", got)
	}
	if got := self["a"] * 1e9; math.Abs(got-1040) > 1e-6 {
		t.Errorf("a self = %vns, want 1040", got)
	}
	if got := r.selfSeconds(1)["a"] * 1e9; math.Abs(got-1000) > 1e-6 {
		t.Errorf("a self from round 1 = %vns, want 1000", got)
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("x", -1, 0)) // the untraced pass records nothing and must not crash
	if nilRec.count() != 0 {
		t.Error("nil recorder counted spans")
	}
	path, err := r.writeJSONL(t.TempDir(), "unit")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(r.spans) {
		t.Fatalf("%d lines for %d spans", len(lines), len(r.spans))
	}
	var back span
	if err := json.Unmarshal([]byte(lines[2]), &back); err != nil || back != r.spans[2] {
		t.Errorf("span did not round-trip: %+v (%v)", back, err)
	}
}

func writeLedger(t *testing.T, dir, name string, mutate func(*ledger)) string {
	t.Helper()
	led := &ledger{Env: environment{Seconds: 10}, Workloads: map[string]*workloadLedger{}}
	for _, w := range workloads {
		wl := &workloadLedger{EndToEnd: map[string]aggregate{}, Attempted: 1000, Correct: true}
		for _, d := range endToEndMetrics {
			wl.EndToEnd[d.Name] = aggregateOf([]float64{99, 100, 100, 100, 101}, d.Unit, d.Better, d.Bound)
		}
		led.Workloads[w.name] = wl
	}
	mutate(led)
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, encode(t, led), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	base := writeLedger(t, dir, "base.json", func(*ledger) {})
	bound := map[string]float64{}
	for _, d := range endToEndMetrics {
		bound[d.Name] = d.Bound
	}
	// set replaces one row with a constant value relative to the base's 100.
	set := func(workload, metricName string, value float64) func(*ledger) {
		return func(l *ledger) {
			old := l.Workloads[workload].EndToEnd[metricName]
			l.Workloads[workload].EndToEnd[metricName] = aggregateOf([]float64{value, value, value}, old.Unit, old.Better, old.Bound)
		}
	}
	cases := []struct {
		name   string
		mutate func(*ledger)
		ok     bool
		expect string
	}{
		{"same", func(*ledger) {}, true, ""},
		{"throughput up is not a regression", set("ingest.mem", "ops_per_s", 150), true, ""},
		{"throughput down inside the bound", set("ingest.mem", "ops_per_s", 100*(1-bound["ops_per_s"]+0.02)), true, ""},
		{"throughput down past the bound", set("ingest.mem", "ops_per_s", 100*(1-bound["ops_per_s"]-0.02)), false, "REGRESSED"},
		{"latency up inside the bound", set("share.mixed", "lat_p50_ms", 100*(1+bound["lat_p50_ms"]-0.02)), true, ""},
		{"latency up past the bound", set("share.mixed", "lat_p50_ms", 100*(1+bound["lat_p50_ms"]+0.02)), false, "REGRESSED"},
		{"noisy row is unresolved", func(l *ledger) {
			l.Workloads["mesh.catchup"].EndToEnd["live_heap_mb"] = aggregateOf([]float64{60, 80, 100, 120, 140}, "MB", "lower", bound["live_heap_mb"])
		}, true, "unresolved"},
		{"failed share rose", func(l *ledger) { l.Workloads["stream.paced"].Failed = 3 }, false, "FAILED OPERATIONS ROSE"},
	}
	for _, tc := range cases {
		path := writeLedger(t, dir, "new.json", tc.mutate)
		var out bytes.Buffer
		ok, err := compareFiles(&out, base, path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v\n%s", tc.name, ok, tc.ok, out.String())
		}
		if tc.expect != "" && !strings.Contains(out.String(), tc.expect) {
			t.Errorf("%s: output lacks %q\n%s", tc.name, tc.expect, out.String())
		}
		if rows := strings.Count(out.String(), "\n"); rows != 1+len(workloads)*(len(endToEndMetrics)+1) {
			t.Errorf("%s: %d rows, want one per workload and metric", tc.name, rows)
		}
	}
}
