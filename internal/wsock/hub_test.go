package wsock

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/obs"
)

// hubOptionFunc sets Hub fields the daemons leave at their defaults.
type hubOptionFunc func(*Hub)

func (f hubOptionFunc) applyHub(h *Hub) { f(h) }

// pipeClient is one in-memory hub client: the server half is registered
// with the hub, the client half is driven by the test.
type pipeClient struct {
	server *Conn
	client net.Conn
}

// newPipeClient registers a fresh net.Pipe-backed connection with the
// hub. writeBuf bounds the server-side bufio buffer, controlling how many
// bytes a stalled peer can absorb before writes block.
func newPipeClient(h *Hub, writeBuf int) *pipeClient {
	sc, cc := net.Pipe()
	conn := NewConnBuffered(sc, false, 0, writeBuf)
	h.Add(conn)
	return &pipeClient{server: conn, client: cc}
}

// drainCount reads frames off the client half, counting data messages.
func (p *pipeClient) drainCount(counter *atomic.Int64) {
	r := bufio.NewReader(p.client)
	var buf [4096]byte
	for {
		op, _, err := ReadFrameInto(r, buf[:])
		if err != nil {
			return
		}
		if op == OpText || op == OpBinary {
			counter.Add(1)
		}
	}
}

// TestWriteTimeoutOnStalledPeer pins the satellite fix: WriteText, Ping
// and WritePrepared on a deliberately unread connection must fail with a
// timeout instead of blocking forever.
func TestWriteTimeoutOnStalledPeer(t *testing.T) {
	sc, cc := net.Pipe() // nothing ever reads cc
	defer cc.Close()
	defer sc.Close()
	conn := NewConnBuffered(sc, false, 0, 16)
	conn.SetWriteTimeout(50 * time.Millisecond)

	payload := bytes.Repeat([]byte("x"), 256)
	start := time.Now()
	var err error
	// The first writes may land in the bufio buffer; a blocked flush must
	// still surface the deadline.
	for i := 0; i < 10 && err == nil; i++ {
		err = conn.WriteText(payload)
	}
	if err == nil {
		t.Fatal("writes to an unread connection never failed")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("error = %v, want net timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, deadline not applied", elapsed)
	}
	if err := conn.Ping(nil); err == nil {
		t.Fatal("ping after stalled write succeeded")
	}
}

// TestSlowClientDoesNotDelayOthers is the isolation acceptance property:
// with a stalled cohort among the clients, every other client receives
// every broadcast promptly — delivery never waits out a stalled client's
// write timeout — and exactly the stalled cohort is evicted.
func TestSlowClientDoesNotDelayOthers(t *testing.T) {
	for _, tc := range []struct {
		fast, stalled, messages int
	}{
		{fast: 8, stalled: 1, messages: 40},
		{fast: 990, stalled: 10, messages: 20},
	} {
		t.Run(fmt.Sprintf("%d clients %d stalled", tc.fast+tc.stalled, tc.stalled), func(t *testing.T) {
			hub := NewHub(WithQueueDepth(8))
			defer hub.Close()

			var received atomic.Int64
			clients := make([]*pipeClient, 0, tc.fast+tc.stalled)
			for i := 0; i < tc.fast; i++ {
				p := newPipeClient(hub, 0)
				clients = append(clients, p)
				go p.drainCount(&received)
			}
			for i := 0; i < tc.stalled; i++ {
				clients = append(clients, newPipeClient(hub, 16)) // 16-byte buffer: blocks at once
			}
			defer func() {
				for _, p := range clients {
					p.client.Close()
				}
			}()
			waitFor(t, func() bool { return hub.Len() == tc.fast+tc.stalled })

			// Lockstep pushes: each broadcast must reach every fast client
			// before the next goes out, within waitFor's 3 s — a fraction of
			// the stalled writers' 10 s timeout, so a fast client held up
			// behind a stalled one fails the round. The stalled writers never
			// drain, so their queues overflow the bound of 8 and trip the
			// drop-slowest eviction.
			payload := bytes.Repeat([]byte("r"), 1024)
			for i := 1; i <= tc.messages; i++ {
				hub.Broadcast(payload)
				want := int64(tc.fast * i)
				waitFor(t, func() bool { return received.Load() == want })
			}
			waitFor(t, func() bool { return hub.Evicted() == tc.stalled })
			if hub.Len() != tc.fast {
				t.Fatalf("Len = %d after eviction, want %d (a fast client was evicted)", hub.Len(), tc.fast)
			}
		})
	}
}

// TestEvictionIdempotentUnderChurn is the -race regression for the old
// snapshot/dead-sweep eviction race: concurrent Add, Remove, Broadcast
// and CloseAll must tear every connection down exactly once, without
// panics or deadlocks.
func TestEvictionIdempotentUnderChurn(t *testing.T) {
	hub := NewHub(WithQueueDepth(2), hubOptionFunc(func(h *Hub) {
		h.writeTimeout = time.Second
	}))
	defer hub.Close()

	var mu sync.Mutex
	var conns []*Conn
	var clientEnds []net.Conn
	addOne := func(stalled bool) {
		sc, cc := net.Pipe()
		conn := NewConnBuffered(sc, false, 0, 16)
		if !stalled {
			go func() { _, _ = io.Copy(io.Discard, cc) }()
		}
		hub.Add(conn)
		mu.Lock()
		conns = append(conns, conn)
		clientEnds = append(clientEnds, cc)
		mu.Unlock()
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) { // adders: a mix of healthy and stalled peers
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
					addOne(rng.Intn(4) == 0)
				}
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() { // remover
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
				mu.Lock()
				if len(conns) > 0 {
					hub.Remove(conns[rng.Intn(len(conns))])
				}
				mu.Unlock()
			}
		}
	}()
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func() { // broadcasters
			defer wg.Done()
			payload := bytes.Repeat([]byte("c"), 128)
			for {
				select {
				case <-stop:
					return
				default:
					hub.Broadcast(payload)
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // periodic CloseAll — the old code double-closed here
		defer wg.Done()
		for i := 0; i < 10; i++ {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
				hub.CloseAll()
			}
		}
	}()

	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	hub.CloseAll()
	if n := hub.Len(); n != 0 {
		t.Fatalf("Len after final CloseAll = %d", n)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, cc := range clientEnds {
		cc.Close()
	}
}

// TestBroadcastEncodeOnceAllocs is the encode-once acceptance assertion:
// one frame assembly per broadcast, with per-broadcast allocations flat in
// the client count.
func TestBroadcastEncodeOnceAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte("a"), 512)
	allocsWith := func(clients int) float64 {
		hub := NewHub(WithQueueDepth(256))
		defer hub.Close()
		for i := 0; i < clients; i++ {
			p := newPipeClient(hub, 0)
			defer p.client.Close()
			go func(cc net.Conn) { _, _ = io.Copy(io.Discard, cc) }(p.client)
		}
		waitFor(t, func() bool { return hub.Len() == clients })
		pf := PrepareText(payload)
		return testing.AllocsPerRun(50, func() {
			target := hub.Sent() + clients
			hub.BroadcastPrepared(pf)
			for hub.Sent() < target {
				runtime.Gosched()
			}
		})
	}
	one := allocsWith(1)
	many := allocsWith(64)
	t.Logf("allocs per broadcast: 1 client = %.1f, 64 clients = %.1f", one, many)
	if many > one+3 {
		t.Fatalf("broadcast allocations scale with clients: 1 → %.1f, 64 → %.1f", one, many)
	}
	if many > 8 {
		t.Fatalf("broadcast allocates %.1f times per message", many)
	}
}

// TestPreparedFrameWireCompatible checks a prepared frame decodes
// identically to one produced by the per-write encoder, across the three
// length encodings.
func TestPreparedFrameWireCompatible(t *testing.T) {
	for _, n := range []int{0, 1, 125, 126, 65535, 65536} {
		payload := bytes.Repeat([]byte("p"), n)
		pf := PrepareText(payload)
		var direct bytes.Buffer
		if err := writeFrame(&direct, frame{fin: true, opcode: OpText, payload: payload}, false); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pf.data, direct.Bytes()) {
			t.Fatalf("prepared frame (len %d) differs from writeFrame output", n)
		}
		got, err := readFrame(bytes.NewReader(pf.data))
		if err != nil {
			t.Fatal(err)
		}
		if !got.fin || got.opcode != OpText || !bytes.Equal(got.payload, payload) {
			t.Fatalf("prepared frame (len %d) did not round-trip", n)
		}
		if !bytes.Equal(pf.Payload(), payload) {
			t.Fatalf("Payload() mismatch at len %d", n)
		}
	}
}

// TestHubRemoveKeepsConnectionOpen pins the Remove contract: the
// connection is unregistered but stays writable by its owner.
func TestHubRemoveKeepsConnectionOpen(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	p := newPipeClient(hub, 0)
	defer p.client.Close()
	var received atomic.Int64
	go p.drainCount(&received)
	waitFor(t, func() bool { return hub.Len() == 1 })
	hub.Remove(p.server)
	if hub.Len() != 0 {
		t.Fatalf("Len after Remove = %d", hub.Len())
	}
	if err := p.server.WriteText([]byte("direct")); err != nil {
		t.Fatalf("write after Remove failed: %v", err)
	}
	waitFor(t, func() bool { return received.Load() == 1 })
	if hub.Evicted() != 0 {
		t.Fatalf("Remove counted as eviction: %d", hub.Evicted())
	}
}

// TestNewHubStartsNoGoroutine: a hub costs nothing until a client joins;
// each connection's writer is the only goroutine the hub runs.
func TestNewHubStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	hubs := make([]*Hub, 64)
	for i := range hubs {
		hubs[i] = NewHub()
	}
	grown := runtime.NumGoroutine() - before
	for _, h := range hubs {
		h.Close()
	}
	// Goroutines left by earlier tests can only exit meanwhile, so
	// anything per hub shows as at least one goroutine per hub.
	if grown >= len(hubs) {
		t.Fatalf("%d hubs started %d goroutines, want none", len(hubs), grown)
	}
}

// TestHubMetricsExposition: a slow-client eviction reads on
// caisp_wsock_evicted_total under its reason alone (the other two reasons
// read 0 from registration), and the queue-depth gauge and push histogram
// are single unlabeled series.
func TestHubMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	hub := NewHub(WithQueueDepth(1), WithHubMetrics(reg))
	defer hub.Close()
	fast := newPipeClient(hub, 0)
	defer fast.client.Close()
	var received atomic.Int64
	go fast.drainCount(&received)
	stalled := newPipeClient(hub, 16)
	defer stalled.client.Close()

	payload := bytes.Repeat([]byte("s"), 256)
	for i := int64(1); hub.Evicted() == 0; i++ {
		hub.Broadcast(payload)
		waitFor(t, func() bool { return received.Load() == i })
	}
	waitFor(t, func() bool { return hub.Sent() == int(received.Load()) })
	if hub.Len() != 1 {
		t.Fatalf("Len = %d after the eviction, want the fast client alone", hub.Len())
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exposition := sb.String()
	for _, want := range []string{
		"\ncaisp_wsock_evicted_total{reason=\"slow\"} 1\n",
		"\ncaisp_wsock_evicted_total{reason=\"timeout\"} 0\n",
		"\ncaisp_wsock_evicted_total{reason=\"error\"} 0\n",
		"\ncaisp_wsock_queue_depth ",
		fmt.Sprintf("\ncaisp_wsock_push_seconds_count %d\n", hub.Sent()),
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("exposition lacks %q:\n%s", strings.TrimSpace(want), exposition)
		}
	}
	if n := strings.Count(exposition, "\ncaisp_wsock_evicted_total{"); n != 3 {
		t.Errorf("caisp_wsock_evicted_total has %d series, want one per reason", n)
	}
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "caisp_wsock_queue_depth{") ||
			(strings.HasPrefix(line, "caisp_wsock_push_seconds") && strings.Contains(line, "{") && !strings.Contains(line, "{le=")) {
			t.Errorf("labeled series %q", line)
		}
	}
}
