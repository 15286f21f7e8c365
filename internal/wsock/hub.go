package wsock

import (
	"errors"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caisplatform/caisp/internal/obs"
)

// Hub sizing: connections spread over DefaultShards shards, each client
// queue holds DefaultQueueDepth frames unless WithQueueDepth says
// otherwise, and a write slower than DefaultWriteTimeout evicts its client.
const (
	DefaultShards       = 8
	DefaultQueueDepth   = 64
	DefaultWriteTimeout = 10 * time.Second
)

// Hub fans broadcast frames out to a set of WebSocket connections. The
// dashboard uses one Hub to push rIoCs and alarms to every connected
// browser session.
//
// The hub is sharded: connections are spread round-robin across N shards,
// each with its own lock, fan-out goroutine and broadcast queue, and every
// connection gets a bounded send queue drained by a dedicated writer
// goroutine. Broadcast therefore costs O(shards) on the caller's
// goroutine — it assembles the frame once (encode-once: header + payload
// shared by every client) and enqueues it once per shard — while writes
// happen off-path, bounded by the write timeout. A client that cannot keep
// up (full queue, write timeout, write error) is evicted and closed
// without ever delaying the others.
type Hub struct {
	shards []*shard
	next   atomic.Uint64 // round-robin shard assignment

	sent     atomic.Int64 // successful frame deliveries
	evicted  atomic.Int64 // connections dropped by the hub
	maxQueue atomic.Int64 // deepest client queue seen on the last fan-out

	queueDepth   int
	writeTimeout time.Duration

	reg         *obs.Registry
	queueGauge  *obs.GaugeVec     // caisp_wsock_queue_depth{shard}
	evictedVec  *obs.CounterVec   // caisp_wsock_evicted_total{shard,reason}
	pushSeconds *obs.HistogramVec // caisp_wsock_push_seconds{shard}

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// shard owns a subset of the hub's connections.
type shard struct {
	hub   *Hub
	label string

	mu      sync.Mutex
	clients map[*Conn]*client

	bcast chan *PreparedFrame
}

// client is one registered connection plus its writer state.
type client struct {
	conn  *Conn
	shard *shard
	send  chan queued   // bounded
	dead  chan struct{} // closed exactly once by stop
	once  sync.Once
}

// queued is one frame waiting in a client's send queue. at is zero unless
// push-latency metrics are enabled.
type queued struct {
	pf *PreparedFrame
	at time.Time
}

// HubOption configures a Hub.
type HubOption interface{ applyHub(*Hub) }

type queueDepthOption int

func (o queueDepthOption) applyHub(h *Hub) {
	if o > 0 {
		h.queueDepth = int(o)
	}
}

// WithQueueDepth bounds each client's send queue (default
// DefaultQueueDepth). A broadcast finding the queue full evicts the
// client — drop-slowest, never block-everyone.
func WithQueueDepth(n int) HubOption { return queueDepthOption(n) }

type hubMetricsOption struct{ reg *obs.Registry }

func (o hubMetricsOption) applyHub(h *Hub) { h.reg = o.reg }

// WithHubMetrics registers the hub's caisp_wsock_* families (per-shard
// queue depth, evictions by reason, push latency) into reg. Nil disables
// instrumentation.
func WithHubMetrics(reg *obs.Registry) HubOption { return hubMetricsOption{reg: reg} }

// NewHub constructs a hub and starts its shard fan-out goroutines.
// Callers should Close it when done.
func NewHub(opts ...HubOption) *Hub {
	h := &Hub{
		shards:       make([]*shard, DefaultShards),
		queueDepth:   DefaultQueueDepth,
		writeTimeout: DefaultWriteTimeout,
		done:         make(chan struct{}),
	}
	for _, o := range opts {
		o.applyHub(h)
	}
	if h.reg != nil {
		h.queueGauge = h.reg.GaugeVec("caisp_wsock_queue_depth",
			"Deepest client send queue observed during the shard's last fan-out.",
			"shard")
		h.evictedVec = h.reg.CounterVec("caisp_wsock_evicted_total",
			"Connections evicted by the hub (reason: slow, timeout, error).",
			"shard", "reason")
		h.pushSeconds = h.reg.HistogramVec("caisp_wsock_push_seconds",
			"Per-client push latency from broadcast enqueue to completed write.",
			nil, "shard")
	}
	for i := range h.shards {
		s := &shard{
			hub:     h,
			label:   strconv.Itoa(i),
			clients: make(map[*Conn]*client),
			bcast:   make(chan *PreparedFrame, h.queueDepth),
		}
		h.shards[i] = s
		h.wg.Add(1)
		go s.run()
	}
	return h
}

// Add registers a connection for broadcasts, arms its write timeout, and
// starts its writer goroutine.
func (h *Hub) Add(c *Conn) {
	select {
	case <-h.done:
		_ = c.Close()
		return
	default:
	}
	c.SetWriteTimeout(h.writeTimeout)
	s := h.shards[h.next.Add(1)%uint64(len(h.shards))]
	cl := &client{conn: c, shard: s, send: make(chan queued, h.queueDepth), dead: make(chan struct{})}
	s.mu.Lock()
	s.clients[c] = cl
	s.mu.Unlock()
	go cl.writeLoop()
}

// Remove unregisters (but does not close) a connection. Its writer
// goroutine is stopped.
func (h *Hub) Remove(c *Conn) {
	for _, s := range h.shards {
		s.mu.Lock()
		cl, ok := s.clients[c]
		if ok {
			delete(s.clients, c)
		}
		s.mu.Unlock()
		if ok {
			cl.stop(false, "")
			return
		}
	}
}

// Len reports the number of registered connections.
func (h *Hub) Len() int {
	n := 0
	for _, s := range h.shards {
		s.mu.Lock()
		n += len(s.clients)
		s.mu.Unlock()
	}
	return n
}

// Sent reports the number of successfully delivered frames.
func (h *Hub) Sent() int { return int(h.sent.Load()) }

// Evicted reports the number of connections the hub has dropped for being
// slow, timing out, or failing a write.
func (h *Hub) Evicted() int { return int(h.evicted.Load()) }

// QueueSaturation reports the fill fraction [0,1] of the deepest client
// queue seen during the most recent fan-out — the hub's health signal: a
// value near 1 means the next broadcast starts evicting slow clients.
func (h *Hub) QueueSaturation() float64 {
	if h.queueDepth <= 0 {
		return 0
	}
	return float64(h.maxQueue.Load()) / float64(h.queueDepth)
}

// Broadcast assembles payload into a text frame once and fans it out to
// every connection. It returns the number of connections the frame was
// routed toward. Failed and stalled connections are evicted and closed.
func (h *Hub) Broadcast(payload []byte) int {
	return h.BroadcastPrepared(PrepareText(payload))
}

// BroadcastPrepared fans a pre-assembled frame out to every connection —
// the encode-once hot path: O(shards) work on the caller's goroutine.
func (h *Hub) BroadcastPrepared(pf *PreparedFrame) int {
	routed := 0
	for _, s := range h.shards {
		s.mu.Lock()
		n := len(s.clients)
		s.mu.Unlock()
		if n == 0 {
			continue
		}
		routed += n
		select {
		case s.bcast <- pf:
		case <-h.done:
			return routed
		}
	}
	return routed
}

// run is a shard's fan-out loop: it takes each broadcast frame once and
// enqueues it onto every resident client queue, evicting any client whose
// queue is already full (drop-slowest policy).
func (s *shard) run() {
	h := s.hub
	defer h.wg.Done()
	for {
		select {
		case <-h.done:
			return
		case pf := <-s.bcast:
			var at time.Time
			if h.pushSeconds != nil {
				at = time.Now()
			}
			maxDepth := 0
			s.mu.Lock()
			for conn, cl := range s.clients {
				select {
				case cl.send <- queued{pf: pf, at: at}:
					if d := len(cl.send); d > maxDepth {
						maxDepth = d
					}
				default:
					delete(s.clients, conn)
					cl.stop(true, "slow")
				}
			}
			s.mu.Unlock()
			h.maxQueue.Store(int64(maxDepth))
			if h.queueGauge != nil {
				h.queueGauge.With(s.label).Set(float64(maxDepth))
			}
		}
	}
}

// writeLoop drains one client's send queue onto its connection.
func (cl *client) writeLoop() {
	h := cl.shard.hub
	for {
		select {
		case <-cl.dead:
			return
		case <-h.done:
			return
		case q := <-cl.send:
			if err := cl.conn.WritePrepared(q.pf); err != nil {
				cl.evict(err)
				return
			}
			h.sent.Add(1)
			if !q.at.IsZero() {
				h.pushSeconds.With(cl.shard.label).Observe(time.Since(q.at).Seconds())
			}
		}
	}
}

// evict detaches the client from its shard and stops it, classifying err
// as a timeout or a generic write error.
func (cl *client) evict(err error) {
	s := cl.shard
	s.mu.Lock()
	delete(s.clients, cl.conn)
	s.mu.Unlock()
	reason := "error"
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		reason = "timeout"
	}
	cl.stop(true, reason)
}

// stop shuts the client down exactly once: the writer goroutine exits,
// and — when closeConn is set — the connection's in-flight I/O is aborted
// and the connection closed in the background (never on a shard or
// broadcast goroutine). A non-empty reason records an eviction. stop is
// idempotent and safe from any goroutine, so a connection racing between
// Broadcast's fan-out, its writer's failure path, Remove and CloseAll is
// torn down exactly once.
func (cl *client) stop(closeConn bool, reason string) {
	cl.once.Do(func() {
		close(cl.dead)
		h := cl.shard.hub
		if reason != "" {
			h.evicted.Add(1)
			if h.evictedVec != nil {
				h.evictedVec.With(cl.shard.label, reason).Inc()
			}
			// An evicted client may have a write in flight on a dead peer;
			// abort unblocks it so the close below cannot stall.
			cl.conn.abort()
		}
		if closeConn {
			go func() { _ = cl.conn.Close() }()
		}
	})
}

// CloseAll closes and evicts every connection. The hub remains usable.
func (h *Hub) CloseAll() {
	for _, s := range h.shards {
		s.mu.Lock()
		clients := make([]*client, 0, len(s.clients))
		for _, cl := range s.clients {
			clients = append(clients, cl)
		}
		s.clients = make(map[*Conn]*client)
		s.mu.Unlock()
		for _, cl := range clients {
			cl.stop(true, "")
		}
	}
}

// Close drops every connection and stops the shard goroutines. The hub
// must not be used afterwards; Broadcast becomes a no-op.
func (h *Hub) Close() {
	h.closeOnce.Do(func() { close(h.done) })
	h.CloseAll()
	h.wg.Wait()
}
