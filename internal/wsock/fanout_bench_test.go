package wsock

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// benchHub builds a hub with n in-memory clients (slow of them stalled)
// and returns it with a delivery counter covering the fast clients.
func benchHub(b *testing.B, n, slow int, opts ...HubOption) (*Hub, *atomic.Int64, func()) {
	b.Helper()
	hub := NewHub(opts...)
	var received atomic.Int64
	var closers []io.Closer
	for i := 0; i < n; i++ {
		sc, cc := net.Pipe()
		wbuf := 0
		if i < slow {
			wbuf = 16 // stalled peers absorb almost nothing before blocking
		}
		conn := NewConnBuffered(sc, false, 0, wbuf)
		hub.Add(conn)
		closers = append(closers, cc, sc)
		if i >= slow {
			go func(cc net.Conn) {
				r := newCountingReader(cc, &received)
				_, _ = io.Copy(io.Discard, r)
			}(cc)
		}
	}
	cleanup := func() {
		hub.Close()
		for _, c := range closers {
			c.Close()
		}
	}
	return hub, &received, cleanup
}

// countingReader counts delivered frames by scanning for them is too
// costly; instead it counts bytes and the benchmark divides by the frame
// size (payloads are fixed-size, so byte counts map 1:1 to frames).
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func newCountingReader(r io.Reader, n *atomic.Int64) *countingReader {
	return &countingReader{r: r, n: n}
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// BenchmarkFanout measures one full broadcast — encode-once frame
// assembly plus delivery to every fast client — across client counts
// and a fast-vs-slow client mix. ns/op is the
// per-message fan-out completion time; allocs/op demonstrates the
// encode-once property (flat in client count).
func BenchmarkFanout(b *testing.B) {
	payload := bytes.Repeat([]byte("x"), 256)
	frameBytes := int64(PrepareText(payload).Len())

	cases := []struct {
		name    string
		clients int
		slow    int
		opts    []HubOption
	}{
		{"c64", 64, 0, nil},
		{"c1024", 1024, 0, nil},
		{"c4096", 4096, 0, nil},
		{"slowmix/c64", 64, 1, []HubOption{WithQueueDepth(4)}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			opts := append([]HubOption{WithQueueDepth(64)}, tc.opts...)
			hub, received, cleanup := benchHub(b, tc.clients, tc.slow, opts...)
			defer cleanup()
			fast := int64(tc.clients - tc.slow)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				target := received.Load() + fast*frameBytes
				hub.Broadcast(payload)
				// Wait for full fan-out so ns/op is completion time, not
				// enqueue time; stalled clients are excluded (they are being
				// evicted or timing out — exactly the isolation under test).
				deadline := time.Now().Add(5 * time.Second)
				for received.Load() < target {
					if time.Now().After(deadline) {
						b.Fatalf("fan-out stalled: %d/%d bytes", received.Load(), target)
					}
					runtime.Gosched()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(fast)*float64(b.N)/b.Elapsed().Seconds(), "deliveries/s")
		})
	}
}
