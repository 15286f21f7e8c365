package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the definitions in this package")

// benchmarkSpec is BENCHMARK.json as this package defines it.
func benchmarkSpec() map[string]any {
	var wl, e2e, layers []map[string]any
	for _, w := range workloads {
		wl = append(wl, map[string]any{"name": w.name, "why": w.why})
	}
	for _, d := range endToEndMetrics {
		e2e = append(e2e, map[string]any{"name": d.Name, "unit": d.Unit, "better": d.Better, "bound": d.Bound})
	}
	for _, d := range perLayerMetrics {
		layers = append(layers, map[string]any{"name": d.Name, "unit": d.Unit, "better": d.Better})
	}
	return map[string]any{
		"command": []string{"bash", "bench/run.sh"}, "paths": []string{"bench"}, "run_seconds": 10,
		"workloads": wl, "end_to_end": e2e, "per_layer": layers,
	}
}

// TestBenchmarkJSONMatches keeps the driver's contract file and the
// metric and workload definitions in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	want, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	const path = "../BENCHMARK.json"
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatal(err)
	}
	_ = json.Unmarshal(want, &w)
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("BENCHMARK.json differs from the package's definitions; run go test -run TestBenchmarkJSONMatches -update")
	}
	for _, wl := range workloads {
		if len(wl.why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", wl.name, len(wl.why))
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEndMetrics...), perLayerMetrics...) {
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v above 0.25", d.Name, d.Bound)
		}
	}
}

func smokeConfig(t *testing.T, name string, seed int64, traced bool) runConfig {
	t.Helper()
	return runConfig{Workload: name, Seed: seed, Seconds: 1, Traced: traced, Sizes: smokeSizes(), OutDir: t.TempDir()}
}

// TestSmokeEveryWorkload runs every workload, untraced and traced, at
// the -smoke size and holds each to the correctness gate.
func TestSmokeEveryWorkload(t *testing.T) {
	start := time.Now()
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			res, err := runOne(context.Background(), w, smokeConfig(t, w.name, 7, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d failed %d violations %v", w.name, traced, res.Attempted, res.Failed, res.Violations)
			}
			defs := endToEndMetrics
			if traced {
				defs = perLayerMetrics
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			if !traced {
				for _, d := range defs {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, d.Name, res.Metrics[d.Name].Value)
					}
				}
			} else if res.TraceFile == "" {
				t.Errorf("%s: traced pass wrote no span file", w.name)
			}
		}
	}
	t.Logf("all workloads, both passes: %v", time.Since(start))
}

func encode(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSeedDeterminism: the same seed gives byte-identical documents,
// pattern lists and preload sets; another seed gives different ones.
func TestSeedDeterminism(t *testing.T) {
	sz := smokeSizes()
	gen := func(seed int64) map[string][]byte {
		out := map[string][]byte{}
		for round := 0; round < 3; round++ {
			docs, err := documents(seed, round, sz.FeedItems)
			if err != nil {
				t.Fatal(err)
			}
			for name, doc := range docs {
				out["doc/"+name+"/"+string(rune('0'+round))] = doc
			}
		}
		hot, err := hotDomains(seed, 3, sz.FeedItems, 10)
		if err != nil {
			t.Fatal(err)
		}
		out["patterns"] = encode(t, patternList(seed, sz.Patterns, hot))
		out["preload"] = encode(t, synthEvents(seed, "share", 50))
		out["expired"] = encode(t, synthEvents(seed, "expired", 50))
		cfg := runConfig{Workload: "stream.paced", Seed: seed, Seconds: 1, Sizes: sz}
		in, err := pacedSchedule(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out["stream.patterns"] = encode(t, in.patterns)
		var due []time.Duration
		for _, d := range in.docs {
			due = append(due, d.due)
			out["stream.docs"] = append(out["stream.docs"], d.data...)
		}
		out["stream.due"] = encode(t, due)
		return out
	}
	a, b, c := gen(11), gen(11), gen(12)
	for name := range a {
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("%s differs between two generations of seed 11", name)
		}
		if name != "stream.due" && bytes.Equal(a[name], c[name]) {
			t.Errorf("%s is the same for seeds 11 and 12", name)
		}
	}
}
