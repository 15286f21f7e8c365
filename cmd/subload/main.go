// Command subload drives the streaming-detection engine with a large
// standing pattern population and a synthetic stream of admitted MISP
// events, and reports evaluation throughput, candidate-set sizes and
// match-push latency percentiles. It backs the fan-out curve in
// EXPERIMENTS.md §X11.
//
// The pattern mix models a SIEM detection estate — mostly hash-dispatched
// point lookups (equality/IN) with small ordered/LIKE/CIDR tails.
// Watchers ride net.Pipe like cmd/wsload: the hub-side path (encode-once
// prepared frames, bounded queues) is identical to production.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/subscribe"
	"github.com/caisplatform/caisp/internal/wsock"
)

type config struct {
	patterns  int           // standing subscriptions to register
	clients   int           // WebSocket watchers on the match stream
	events    int           // synthetic admitted events to evaluate
	matchPct  int           // percent of events drawing values from the pattern space
	mixed     bool          // events also carry IP + threat-score fields (per-path tails)
	queue     int           // per-watcher send queue depth (hub evicts on overflow)
	drainWait time.Duration // bound on waiting for frame deliveries
}

func main() {
	var cfg config
	flag.IntVar(&cfg.patterns, "patterns", 1000, "standing pattern subscriptions")
	flag.IntVar(&cfg.clients, "clients", 8, "match-stream watcher connections")
	flag.IntVar(&cfg.events, "events", 5000, "admitted events to evaluate")
	flag.IntVar(&cfg.matchPct, "match-rate", 10, "percent of events that hit a registered value")
	flag.BoolVar(&cfg.mixed, "mixed", false, "events carry IP and threat-score fields too")
	flag.IntVar(&cfg.queue, "queue", 8192, "per-watcher send queue depth")
	flag.DurationVar(&cfg.drainWait, "drain", 10*time.Second, "bound on waiting for deliveries to settle")
	flag.Parse()
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "subload:", err)
		os.Exit(1)
	}
}

// pattern mix percentages (of the standing population).
func patternFor(i int) string {
	switch {
	case i%100 < 88:
		return fmt.Sprintf("[domain-name:value = 'd%d.example']", i)
	case i%100 < 96:
		return fmt.Sprintf("[ipv4-addr:value IN ('10.%d.%d.1', '10.%d.%d.2')]",
			i/251%251, i%251, i/251%251, i%251)
	case i%100 < 98:
		return fmt.Sprintf("[x-caisp:threat-score >= 0.%d]", 1+i%9)
	case i%100 < 99:
		return fmt.Sprintf("[url:value LIKE '%%/kit-%d/%%.bin']", i)
	default:
		return fmt.Sprintf("[ipv4-addr:value ISSUBSET '192.%d.%d.0/24']", i/251%251, i%251)
	}
}

func run(cfg config, w io.Writer) error {
	if cfg.patterns < 1 || cfg.events < 1 {
		return fmt.Errorf("need at least one pattern and one event")
	}

	reg := obs.NewRegistry()
	engine := subscribe.NewEngine(
		subscribe.WithMetrics(reg),
		subscribe.WithHubMetrics(reg),
		subscribe.WithMaxPerClient(cfg.patterns+1),
		subscribe.WithHubOptions(wsock.WithQueueDepth(cfg.queue)),
	)
	defer engine.Close()

	setup := time.Now()
	for i := 0; i < cfg.patterns; i++ {
		if _, err := engine.Register("subload", patternFor(i)); err != nil {
			return fmt.Errorf("register pattern %d: %w", i, err)
		}
	}
	registerDur := time.Since(setup)

	// Watchers: each counts delivered frames and samples push latency from
	// the frame's pushed_unix_nano stamp.
	var (
		delivered atomic.Int64
		readerWG  sync.WaitGroup
		latMu     sync.Mutex
		lats      []time.Duration
		closers   []io.Closer
	)
	for i := 0; i < cfg.clients; i++ {
		sc, cc := net.Pipe()
		closers = append(closers, cc, sc)
		engine.AddWatcher(wsock.NewConnBuffered(sc, false, 2048, 2048))
		readerWG.Add(1)
		go func(nc net.Conn) {
			defer readerWG.Done()
			buf := make([]byte, 4096)
			for {
				op, payload, err := wsock.ReadFrameInto(nc, buf)
				if err != nil {
					return
				}
				if op != wsock.OpText {
					continue
				}
				delivered.Add(1)
				var frame struct {
					PushedUnixNano int64 `json:"pushed_unix_nano"`
				}
				if json.Unmarshal(payload, &frame) == nil && frame.PushedUnixNano > 0 {
					latMu.Lock()
					lats = append(lats, time.Duration(time.Now().UnixNano()-frame.PushedUnixNano))
					latMu.Unlock()
				}
			}
		}(cc)
	}

	// Event stream: one admitted MISP event per iteration, matchPct% of
	// them carrying a value some registered pattern watches.
	start := time.Now()
	matched := 0
	at := time.Unix(1700000000, 0).UTC()
	for i := 0; i < cfg.events; i++ {
		var value string
		if i%100 < cfg.matchPct {
			value = fmt.Sprintf("d%d.example", (i*37)%cfg.patterns)
		} else {
			value = fmt.Sprintf("miss%d.example", i)
		}
		me := &misp.Event{
			UUID:      fmt.Sprintf("00000000-0000-4000-8000-%012d", i),
			Info:      "subload synthetic event",
			Timestamp: misp.UT(at),
		}
		me.AddAttribute("domain", "Network activity", value, at)
		if cfg.mixed {
			me.AddAttribute("ip-dst", "Network activity", fmt.Sprintf("10.%d.%d.1", i%251, (i*13)%251), at)
		}
		score := -1.0
		if cfg.mixed {
			score = float64(i%10) / 10
		}
		matched += engine.EvaluateMISP(me, subscribe.StageCIoC, score)
	}
	evalElapsed := time.Since(start)

	// Drain: wait until frame delivery stops advancing or the bound expires.
	deadline := time.Now().Add(cfg.drainWait)
	last, lastChange := delivered.Load(), time.Now()
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		if n := delivered.Load(); n != last {
			last, lastChange = n, time.Now()
		} else if time.Since(lastChange) > 300*time.Millisecond {
			break
		}
	}
	survived := engine.Watchers()
	for _, c := range closers {
		c.Close()
	}
	readerWG.Wait()

	snap := engine.EvalSnapshot()
	fmt.Fprintf(w, "subload: %d patterns, %d clients, %d events (%d%% hot, mixed=%v)\n",
		cfg.patterns, cfg.clients, cfg.events, cfg.matchPct, cfg.mixed)
	fmt.Fprintf(w, "register: %v total (%.1fµs/pattern)\n",
		registerDur.Round(time.Millisecond),
		float64(registerDur.Microseconds())/float64(cfg.patterns))
	fmt.Fprintf(w, "evaluate: %d events in %v (%.0f events/s), %d matches\n",
		cfg.events, evalElapsed.Round(time.Millisecond),
		float64(cfg.events)/evalElapsed.Seconds(), matched)
	if snap.Eval != nil {
		fmt.Fprintf(w, "eval latency: mean=%s p50%s p99%s\n",
			seconds(snap.Eval.Sum/float64(snap.Eval.Count)),
			pctLabel(snap.Eval, 50, seconds), pctLabel(snap.Eval, 99, seconds))
		fmt.Fprintf(w, "candidates/event: mean=%.1f p99%s (of %d registered)\n",
			snap.Candidates.Sum/float64(snap.Candidates.Count),
			pctLabel(snap.Candidates, 99, func(v float64) string { return fmt.Sprintf("%.0f", v) }),
			snap.Registered)
	}
	fmt.Fprintf(w, "pushed %d frames to %d clients (%d survived the burst; overflow evicts)\n",
		delivered.Load(), cfg.clients, survived)
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		fmt.Fprintf(w, "push latency (%d samples): p50=%v p99=%v max=%v\n",
			len(lats), pct(lats, 50).Round(time.Microsecond),
			pct(lats, 99).Round(time.Microsecond), lats[len(lats)-1].Round(time.Microsecond))
	}
	if cfg.matchPct > 0 && matched == 0 {
		return fmt.Errorf("no matches recorded for a %d%% hot stream", cfg.matchPct)
	}
	if cfg.clients > 0 && cfg.matchPct > 0 && delivered.Load() == 0 {
		return fmt.Errorf("no match frames delivered")
	}
	return nil
}

// pctLabel renders percentile p from a cumulative-bucket histogram as an
// upper estimate ("<=bound"), or ">lastBound" when it falls in the +Inf
// overflow bucket.
func pctLabel(h *obs.HistogramSnapshot, p int, f func(float64) string) string {
	if h == nil || h.Count == 0 {
		return "=0"
	}
	target := (h.Count*int64(p) + 99) / 100
	for i, bound := range h.Bounds {
		if h.Counts[i] >= target {
			return "<=" + f(bound)
		}
	}
	return ">" + f(h.Bounds[len(h.Bounds)-1])
}

func seconds(s float64) string { return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String() }

// pct returns the p-th percentile of a sorted duration slice.
func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted) - 1) * p / 100
	return sorted[i]
}
