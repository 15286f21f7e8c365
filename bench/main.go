// Command bench is CAISP's benchmark: five workloads that drive the real
// core.Platform, tip.API/tip.Client and mesh.Engine through their public
// functions with inputs generated from a seed, end to end and (in a
// second, traced pass) layer by layer. See README.md.
//
//	bash bench/run.sh -seed 1                 all workloads, untraced then traced
//	bash bench/run.sh -seed 1 -repeat 5 -o a.json
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh --workload ingest.mem --seed 3 --seconds 10 --trace 0
//
// The last form is the driver's: one pass of one workload, the result as
// one JSON object on the last line of standard output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"
)

// runConfig is one pass of one workload.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Traced   bool
	Sizes    sizes
	OutDir   string
}

// workload is one entry of the benchmark's fixed list.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, cfg runConfig) (*runResult, error)
}

// workloads are final: later issues cite them by name.
var workloads = []workload{
	{"ingest.mem", "closed loop of RunBatch rounds on one in-memory platform: the CPU path (feed, normalize, dedup, correlate, heuristic, subscribe, dashboard) with history-dependent cost, no WAL",
		func(ctx context.Context, cfg runConfig) (*runResult, error) { return runIngest(ctx, cfg, false) }},
	{"ingest.durable", "the same records with DataDir on disk: WAL group commit, per-eIoC Put+fsync, background compaction and recovery join the path, so a storage-only change moves this and not ingest.mem",
		func(ctx context.Context, cfg runConfig) (*runResult, error) { return runIngest(ctx, cfg, true) }},
	{"stream.paced", "open loop at a fixed rate far below capacity through Platform.Start to a dashboard client, a matches watcher and a mesh peer: latency is timers, queues and publish, not CPU",
		runStream},
	{"share.mixed", "closed-loop tip.Client reads (get, search, changes, STIX export) beside open-loop batch writes on one durable TIP: the snapshot-isolated read path under write load",
		runShare},
	{"mesh.catchup", "a cold durable sink pulls a preloaded source to its head with mesh.Engine.SyncOnce: page sizing, gzip, decode, PutBatch import and tombstone apply, which ingest.* never touch",
		runCatchup},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func main() {
	var (
		name       = flag.String("workload", "", "run one pass of this workload (driver mode); empty runs all five, untraced then traced")
		seed       = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds    = flag.Float64("seconds", 10, "length of each measured phase")
		trace      = flag.Int("trace", 0, "driver mode: 1 runs the traced per-layer pass")
		smoke      = flag.Bool("smoke", false, "tiny sizes: every workload and the correctness gate in seconds")
		repeat     = flag.Int("repeat", 1, "full mode: run everything this many times and report medians and quartiles")
		out        = flag.String("out", "bench/out", "directory for results, traces and scratch data")
		resultFile = flag.String("o", "", "full mode: result file (default <out>/result.json)")
		compare    = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare old.json new.json"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}

	sz := fullSizes()
	if *smoke {
		sz = smokeSizes()
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	ctx := context.Background()

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		cfg := runConfig{Workload: w.name, Seed: *seed, Seconds: *seconds, Traced: *trace != 0, Sizes: sz, OutDir: *out}
		res, err := runOne(ctx, w, cfg)
		if err != nil {
			fatal(err)
		}
		res.print(os.Stdout)
		line, err := json.Marshal(driverLine(res))
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	path := *resultFile
	if path == "" {
		path = *out + "/result.json"
	}
	ok, err := runAll(ctx, *seed, *seconds, *repeat, sz, *out, path)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one pass and stamps its wall time.
func runOne(ctx context.Context, w *workload, cfg runConfig) (*runResult, error) {
	start := time.Now()
	res, err := w.run(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// driverLine is the one JSON object the driver reads.
func driverLine(r *runResult) map[string]any {
	metrics := map[string]any{}
	for name, m := range r.Metrics {
		metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{
		"correct": r.Correct, "attempted": max(r.Attempted, 1), "failed": r.Failed, "metrics": metrics,
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
