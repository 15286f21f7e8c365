package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// environment is recorded in every result file: two ledgers are only
// comparable when these agree.
type environment struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Repeat     int     `json:"repeat"`
	Sizes      sizes   `json:"sizes"`
}

func currentEnvironment(seed int64, seconds float64, repeat int, sz sizes) environment {
	env := environment{
		GitSHA: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), CPUModel: "unknown", Seed: seed, Seconds: seconds, Repeat: repeat, Sizes: sz,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitSHA = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				env.CPUModel = strings.TrimSpace(value)
				break
			}
		}
	}
	return env
}

// aggregate is one metric over the repeats of a ledger.
type aggregate struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better,omitempty"`
	Bound  float64   `json:"bound,omitempty"` // gated end-to-end metrics only
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median
	Values []float64 `json:"values"`
}

func aggregateOf(values []float64, unit, better string, bound float64) aggregate {
	s := summarize(values)
	return aggregate{Unit: unit, Better: better, Bound: bound,
		Median: s.P50, Q1: s.Q1, Q3: s.Q3, Spread: spread(values), Values: values}
}

// workloadLedger is one workload's rows.
type workloadLedger struct {
	Why       string               `json:"why"`
	EndToEnd  map[string]aggregate `json:"end_to_end"`
	PerLayer  map[string]aggregate `json:"per_layer"`
	Info      map[string]aggregate `json:"info"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Correct   bool                 `json:"correct"`
}

// ledger is the result file.
type ledger struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadLedger `json:"workloads"`
}

// runAll is the full mode: every workload untraced, then traced, repeat
// times over; medians and quartiles per metric into one result file.
func runAll(ctx context.Context, seed int64, seconds float64, repeat int, sz sizes, out, path string) (bool, error) {
	if repeat < 1 {
		repeat = 1
	}
	type samples map[string][]float64
	endToEnd, perLayer, info := map[string]samples{}, map[string]samples{}, map[string]samples{}
	units := map[string]string{}
	led := &ledger{Env: currentEnvironment(seed, seconds, repeat, sz), Workloads: map[string]*workloadLedger{}}
	for i := range workloads {
		w := &workloads[i]
		led.Workloads[w.name] = &workloadLedger{Why: w.why, Correct: true}
		endToEnd[w.name], perLayer[w.name], info[w.name] = samples{}, samples{}, samples{}
	}
	collect := func(into samples, ms map[string]metric) {
		for name, m := range ms {
			into[name] = append(into[name], m.Value)
			units[name] = m.Unit
		}
	}
	for rep := 0; rep < repeat; rep++ {
		for _, traced := range []bool{false, true} {
			for i := range workloads {
				w := &workloads[i]
				cfg := runConfig{Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced, Sizes: sz, OutDir: out}
				res, err := runOne(ctx, w, cfg)
				if err != nil {
					return false, err
				}
				if repeat > 1 {
					fmt.Printf("-- repeat %d of %d\n", rep+1, repeat)
				}
				res.print(os.Stdout)
				wl := led.Workloads[w.name]
				wl.Attempted += res.Attempted
				wl.Failed += res.Failed
				wl.Correct = wl.Correct && res.Correct
				if traced {
					collect(perLayer[w.name], res.Metrics)
				} else {
					collect(endToEnd[w.name], res.Metrics)
					collect(info[w.name], res.Info)
				}
			}
		}
	}
	ok := true
	for name, wl := range led.Workloads {
		wl.EndToEnd, wl.PerLayer, wl.Info = map[string]aggregate{}, map[string]aggregate{}, map[string]aggregate{}
		for _, d := range endToEndMetrics {
			wl.EndToEnd[d.Name] = aggregateOf(endToEnd[name][d.Name], d.Unit, d.Better, d.Bound)
		}
		for _, d := range perLayerMetrics {
			wl.PerLayer[d.Name] = aggregateOf(perLayer[name][d.Name], d.Unit, d.Better, 0)
		}
		for metricName, values := range info[name] {
			wl.Info[metricName] = aggregateOf(values, units[metricName], "", 0)
		}
		ok = ok && wl.Correct
	}
	data, err := json.MarshalIndent(led, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	printLedger(os.Stdout, led)
	fmt.Printf("result written to %s\n", path)
	return ok, nil
}

// printLedger is the summary table of a full run.
func printLedger(w io.Writer, led *ledger) {
	fmt.Fprintf(w, "\n== summary: seed %d, %gs measured, %d repeat(s), %s, %s, GOMAXPROCS %d\n",
		led.Env.Seed, led.Env.Seconds, led.Env.Repeat, led.Env.GitSHA, led.Env.GoVersion, led.Env.GOMAXPROCS)
	for i := range workloads {
		name := workloads[i].name
		wl := led.Workloads[name]
		fmt.Fprintf(w, "%s  attempted=%d failed=%d correct=%v\n", name, wl.Attempted, wl.Failed, wl.Correct)
		for _, d := range endToEndMetrics {
			a := wl.EndToEnd[d.Name]
			fmt.Fprintf(w, "   %-14s median %12.4f %-4s q1 %12.4f q3 %12.4f spread %5.1f%% (bound %2.0f%%)\n",
				d.Name, a.Median, a.Unit, a.Q1, a.Q3, 100*a.Spread, 100*a.Bound)
		}
	}
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var led ledger
	if err := json.Unmarshal(data, &led); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &led, nil
}

// compareFiles prints one row per workload and gated metric and reports
// whether new is acceptable: no gated metric worse than its bound, no
// workload whose share of failed operations rose. A row whose run-to-run
// spread (on either side) exceeds the bound is marked unresolved: the
// medians differ by less than the noise can tell.
func compareFiles(w io.Writer, oldPath, newPath string) (bool, error) {
	oldLed, err := readLedger(oldPath)
	if err != nil {
		return false, err
	}
	newLed, err := readLedger(newPath)
	if err != nil {
		return false, err
	}
	if oldLed.Env.Seconds != newLed.Env.Seconds || oldLed.Env.Sizes != newLed.Env.Sizes {
		fmt.Fprintln(w, "warning: the two ledgers were measured with different durations or sizes")
	}
	ok := true
	names := make([]string, 0, len(newLed.Workloads))
	for name := range newLed.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-15s %-13s %14s %14s %8s %6s  %s\n", "workload", "metric", "old", "new", "worse", "bound", "verdict")
	for _, name := range names {
		nw, ow := newLed.Workloads[name], oldLed.Workloads[name]
		if ow == nil {
			fmt.Fprintf(w, "%-15s (not in %s)\n", name, oldPath)
			continue
		}
		for _, d := range endToEndMetrics {
			o, n := ow.EndToEnd[d.Name], nw.EndToEnd[d.Name]
			worse := 0.0
			if o.Median != 0 {
				worse = (n.Median - o.Median) / math.Abs(o.Median)
				if d.Better == "higher" {
					worse = -worse
				}
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict = "REGRESSED"
				ok = false
			}
			if noise := math.Max(o.Spread, n.Spread); noise > d.Bound {
				verdict += fmt.Sprintf(" (unresolved: spread %.1f%% exceeds the bound)", 100*noise)
			}
			fmt.Fprintf(w, "%-15s %-13s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n",
				name, d.Name, o.Median, n.Median, 100*worse, 100*d.Bound, verdict)
		}
		oldShare := float64(ow.Failed) / float64(max(ow.Attempted, 1))
		newShare := float64(nw.Failed) / float64(max(nw.Attempted, 1))
		verdict := "ok"
		if newShare > oldShare || !nw.Correct {
			verdict = "FAILED OPERATIONS ROSE"
			ok = false
		}
		fmt.Fprintf(w, "%-15s %-13s %14.6f %14.6f %8s %6s  %s\n", name, "failed_share", oldShare, newShare, "", "", verdict)
	}
	return ok, nil
}
