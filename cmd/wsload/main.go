// Command wsload drives the sharded broadcast hub with a large population
// of in-memory WebSocket clients — fast readers plus a deliberately slow
// cohort — and reports delivery throughput, eviction counts and push
// latency percentiles. It backs the fan-out curve in EXPERIMENTS.md §X10.
//
// Clients ride net.Pipe instead of kernel sockets: this box's descriptor
// limit caps TCP at ~10k connections, while in-memory pipes (with small
// bufio buffers via wsock.NewConnBuffered) hold 100k+ clients in a few GB.
// The hub-side code path — queueing, writer goroutines, frame bytes on the
// transport — is identical to production; only the transport is synthetic.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caisplatform/caisp/internal/wsock"
)

type config struct {
	clients      int           // total client connections
	slow         int           // of which: stalled readers (never drain)
	probes       int           // of which: latency-sampled fast readers
	shards       int           // hub shards (0 = hub default)
	queue        int           // per-client send-queue depth (0 = default)
	messages     int           // broadcasts to send
	interval     time.Duration // pacing between broadcasts
	payload      int           // payload bytes per message (≥8 for the timestamp)
	bufSize      int           // per-connection bufio buffer bytes
	writeTimeout time.Duration // per-connection write deadline
	drainWait    time.Duration // wall-clock bound on the final drain
}

func main() {
	var cfg config
	flag.IntVar(&cfg.clients, "clients", 1000, "total concurrent clients")
	flag.IntVar(&cfg.slow, "slow", 10, "clients that never read (stalled cohort)")
	flag.IntVar(&cfg.probes, "probes", 100, "fast clients sampled for push latency")
	flag.IntVar(&cfg.shards, "shards", 0, "hub shards (0 = default)")
	flag.IntVar(&cfg.queue, "queue", 0, "per-client queue depth (0 = default)")
	flag.IntVar(&cfg.messages, "messages", 50, "broadcasts to send")
	flag.DurationVar(&cfg.interval, "interval", 5*time.Millisecond, "pause between broadcasts")
	flag.IntVar(&cfg.payload, "payload", 256, "payload bytes per message")
	flag.IntVar(&cfg.bufSize, "bufsize", 512, "bufio buffer bytes per connection side")
	flag.DurationVar(&cfg.writeTimeout, "write-timeout", 2*time.Second, "per-connection write deadline")
	flag.DurationVar(&cfg.drainWait, "drain", 30*time.Second, "bound on waiting for deliveries to settle")
	flag.Parse()
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wsload:", err)
		os.Exit(1)
	}
}

// probe records push latencies for one sampled client. Each broadcast
// payload leads with the send time; the probe's reader stamps arrival.
type probe struct {
	lat []time.Duration
}

func run(cfg config, w io.Writer) error {
	if cfg.clients < 1 {
		return fmt.Errorf("need at least one client")
	}
	if cfg.slow >= cfg.clients {
		return fmt.Errorf("slow cohort (%d) must be smaller than the client count (%d)", cfg.slow, cfg.clients)
	}
	if cfg.payload < 8 {
		cfg.payload = 8 // room for the timestamp
	}
	fast := cfg.clients - cfg.slow
	if cfg.probes > fast {
		cfg.probes = fast
	}

	var opts []wsock.HubOption
	if cfg.shards > 0 {
		opts = append(opts, wsock.WithShards(cfg.shards))
	}
	if cfg.queue > 0 {
		opts = append(opts, wsock.WithQueueDepth(cfg.queue))
	}
	opts = append(opts, wsock.WithHubWriteTimeout(cfg.writeTimeout))
	hub := wsock.NewHub(opts...)
	defer hub.Close()

	var (
		delivered atomic.Int64 // data frames read by fast clients
		readerWG  sync.WaitGroup
		probes    = make([]*probe, cfg.probes)
		closers   = make([]io.Closer, 0, cfg.clients)
	)
	setup := time.Now()
	for i := 0; i < cfg.clients; i++ {
		sc, cc := net.Pipe()
		closers = append(closers, cc, sc)
		if i < cfg.slow {
			// Stalled cohort: a tiny write buffer and no reader, so the
			// writer goroutine blocks almost immediately.
			hub.Add(wsock.NewConnBuffered(sc, false, 0, 16))
			continue
		}
		hub.Add(wsock.NewConnBuffered(sc, false, cfg.bufSize, cfg.bufSize))
		var p *probe
		if pi := i - cfg.slow; pi < cfg.probes {
			p = &probe{lat: make([]time.Duration, 0, cfg.messages)}
			probes[pi] = p
		}
		readerWG.Add(1)
		go func(nc net.Conn, p *probe) {
			defer readerWG.Done()
			// bufSize also bounds the reader's scratch: frames larger than
			// the buffer still decode, at the cost of an allocation.
			// No bufio on the read side: ReadFrameInto issues few, large
			// reads, and skipping the per-client reader buffer trims
			// harness memory at 100k clients.
			buf := make([]byte, cfg.bufSize)
			for {
				op, payload, err := wsock.ReadFrameInto(nc, buf)
				if err != nil {
					return
				}
				if op != wsock.OpBinary && op != wsock.OpText {
					continue
				}
				delivered.Add(1)
				if p != nil && len(payload) >= 8 {
					sent := int64(binary.BigEndian.Uint64(payload))
					p.lat = append(p.lat, time.Duration(time.Now().UnixNano()-sent))
				}
			}
		}(cc, p)
	}
	setupDur := time.Since(setup)

	payload := make([]byte, cfg.payload)
	start := time.Now()
	for i := 0; i < cfg.messages; i++ {
		binary.BigEndian.PutUint64(payload, uint64(time.Now().UnixNano()))
		hub.BroadcastPrepared(wsock.PrepareBinary(payload))
		if cfg.interval > 0 {
			time.Sleep(cfg.interval)
		}
	}

	// Drain: wait until delivery stops advancing (or the bound expires).
	// The target is dynamic — fast clients evicted under overload stop
	// receiving — so settling beats a fixed count.
	deadline := time.Now().Add(cfg.drainWait)
	last, lastChange := delivered.Load(), time.Now()
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		if n := delivered.Load(); n != last {
			last, lastChange = n, time.Now()
		} else if time.Since(lastChange) > 500*time.Millisecond {
			break
		}
	}
	elapsed := time.Since(start)

	for _, c := range closers {
		c.Close()
	}
	readerWG.Wait()

	var lats []time.Duration
	for _, p := range probes {
		if p != nil {
			lats = append(lats, p.lat...)
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })

	total := int64(fast) * int64(cfg.messages)
	fmt.Fprintf(w, "wsload: %d clients (%d fast, %d slow), shards=%d queue=%d payload=%dB\n",
		cfg.clients, fast, cfg.slow, cfg.shards, cfg.queue, cfg.payload)
	fmt.Fprintf(w, "setup: %v to connect all clients\n", setupDur.Round(time.Millisecond))
	fmt.Fprintf(w, "delivered %d/%d frames in %v (%.0f deliveries/s), evicted %d\n",
		delivered.Load(), total, elapsed.Round(time.Millisecond),
		float64(delivered.Load())/elapsed.Seconds(), hub.Evicted())
	if len(lats) > 0 {
		fmt.Fprintf(w, "push latency (%d samples): p50=%v p99=%v max=%v\n",
			len(lats), pct(lats, 50).Round(time.Microsecond),
			pct(lats, 99).Round(time.Microsecond), lats[len(lats)-1].Round(time.Microsecond))
	}
	return nil
}

// pct returns the p-th percentile of a sorted duration slice.
func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted) - 1) * p / 100
	return sorted[i]
}
