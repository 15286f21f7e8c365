package wsock

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caisplatform/caisp/internal/obs"
)

// Hub sizing: each client queue holds DefaultQueueDepth frames unless
// WithQueueDepth says otherwise, and a write slower than
// DefaultWriteTimeout evicts its client.
const (
	DefaultQueueDepth   = 64
	DefaultWriteTimeout = 10 * time.Second
)

// Hub fans broadcast frames out to a set of WebSocket connections. The
// dashboard uses one Hub to push rIoCs and alarms to every connected
// browser session.
//
// Every connection gets a bounded send queue drained by a dedicated
// writer goroutine. Broadcast assembles the frame once (encode-once:
// header + payload shared by every client) and, on the caller's
// goroutine under the hub's one lock, enqueues it onto each client's
// queue; writes happen off-path, bounded by the write timeout. A client
// that cannot keep up (full queue, write timeout, write error) is evicted
// and closed without ever delaying the others or the caller.
type Hub struct {
	mu      sync.Mutex
	clients map[*Conn]*client

	sent     atomic.Int64                    // successful frame deliveries
	evicted  [len(evictReasons)]atomic.Int64 // connections dropped by the hub, by reason
	maxQueue atomic.Int64                    // deepest client queue seen on the last broadcast

	queueDepth   int
	writeTimeout time.Duration

	reg         *obs.Registry
	pushSeconds *obs.Histogram // caisp_wsock_push_seconds

	done      chan struct{}
	closeOnce sync.Once
}

// client is one registered connection plus its writer state.
type client struct {
	conn *Conn
	hub  *Hub
	send chan queued   // bounded
	dead chan struct{} // closed exactly once by stop
	once sync.Once
}

// Eviction reasons: indexes into Hub.evicted and evictReasons, whose
// names are caisp_wsock_evicted_total's reason label. noEviction stops a
// client without counting it.
const (
	evictSlow = iota
	evictTimeout
	evictError
	noEviction = -1
)

var evictReasons = [...]string{evictSlow: "slow", evictTimeout: "timeout", evictError: "error"}

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

// WithHubMetrics registers the hub's caisp_wsock_* families (queue depth,
// evictions by reason, push latency) into reg. Nil disables
// instrumentation.
func WithHubMetrics(reg *obs.Registry) HubOption { return hubMetricsOption{reg: reg} }

// NewHub constructs a hub. It starts no goroutine of its own: each
// connection's writer starts with Add. Callers should Close it when done.
func NewHub(opts ...HubOption) *Hub {
	h := &Hub{
		clients:      make(map[*Conn]*client),
		queueDepth:   DefaultQueueDepth,
		writeTimeout: DefaultWriteTimeout,
		done:         make(chan struct{}),
	}
	for _, o := range opts {
		o.applyHub(h)
	}
	if h.reg != nil {
		h.reg.GaugeFunc("caisp_wsock_queue_depth",
			"Deepest client send queue observed during the last broadcast.",
			func() float64 { return float64(h.maxQueue.Load()) })
		evicted := h.reg.CounterVec("caisp_wsock_evicted_total",
			"Connections evicted by the hub (reason: slow, timeout, error).",
			"reason")
		for i, reason := range evictReasons {
			evicted.Func(func() float64 { return float64(h.evicted[i].Load()) }, reason)
		}
		h.pushSeconds = h.reg.Histogram("caisp_wsock_push_seconds",
			"Per-client push latency from broadcast enqueue to completed write.")
	}
	return h
}

// Add registers a connection for broadcasts, arms its write timeout, and
// starts its writer goroutine. On a closed hub it closes the connection.
func (h *Hub) Add(c *Conn) {
	c.SetWriteTimeout(h.writeTimeout)
	cl := &client{conn: c, hub: h, send: make(chan queued, h.queueDepth), dead: make(chan struct{})}
	h.mu.Lock()
	select {
	case <-h.done:
		h.mu.Unlock()
		_ = c.Close()
		return
	default:
	}
	h.clients[c] = cl
	h.mu.Unlock()
	go cl.writeLoop()
}

// Remove unregisters (but does not close) a connection. Its writer
// goroutine is stopped.
func (h *Hub) Remove(c *Conn) {
	h.mu.Lock()
	cl, ok := h.clients[c]
	delete(h.clients, c)
	h.mu.Unlock()
	if ok {
		cl.stop(false, noEviction)
	}
}

// Len reports the number of registered connections.
func (h *Hub) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.clients)
}

// Sent reports the number of successfully delivered frames.
func (h *Hub) Sent() int { return int(h.sent.Load()) }

// Evicted reports the number of connections the hub has dropped for being
// slow, timing out, or failing a write.
func (h *Hub) Evicted() int {
	var n int64
	for i := range h.evicted {
		n += h.evicted[i].Load()
	}
	return int(n)
}

// QueueSaturation reports the fill fraction [0,1] of the deepest client
// queue seen during the most recent broadcast — the hub's health signal:
// a value near 1 means the next broadcast starts evicting slow clients.
func (h *Hub) QueueSaturation() float64 {
	if h.queueDepth <= 0 {
		return 0
	}
	return float64(h.maxQueue.Load()) / float64(h.queueDepth)
}

// Broadcast assembles payload into a text frame once and fans it out to
// every connection. It returns the number of connections the frame was
// queued for. Failed and stalled connections are evicted and closed.
func (h *Hub) Broadcast(payload []byte) int {
	return h.BroadcastPrepared(PrepareText(payload))
}

// BroadcastPrepared enqueues a pre-assembled frame onto every client's
// queue — the encode-once hot path — and returns the number of queues it
// joined. A client whose queue is full is evicted (drop-slowest); the
// call never blocks on a client.
func (h *Hub) BroadcastPrepared(pf *PreparedFrame) int {
	var at time.Time
	if h.pushSeconds != nil {
		at = time.Now()
	}
	routed, maxDepth := 0, 0
	h.mu.Lock()
	for conn, cl := range h.clients {
		select {
		case cl.send <- queued{pf: pf, at: at}:
			routed++
			if d := len(cl.send); d > maxDepth {
				maxDepth = d
			}
		default:
			delete(h.clients, conn)
			cl.stop(true, evictSlow)
		}
	}
	h.mu.Unlock()
	h.maxQueue.Store(int64(maxDepth))
	return routed
}

// writeLoop drains one client's send queue onto its connection.
func (cl *client) writeLoop() {
	h := cl.hub
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
				h.pushSeconds.Observe(time.Since(q.at).Seconds())
			}
		}
	}
}

// evict detaches the client from the hub and stops it, classifying err
// as a timeout or a generic write error.
func (cl *client) evict(err error) {
	h := cl.hub
	h.mu.Lock()
	delete(h.clients, cl.conn)
	h.mu.Unlock()
	reason := evictError
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		reason = evictTimeout
	}
	cl.stop(true, reason)
}

// stop shuts the client down exactly once: the writer goroutine exits,
// and — when closeConn is set — the connection's in-flight I/O is aborted
// and the connection closed in the background (never on a broadcasting
// goroutine). A reason other than noEviction records an eviction. stop
// is idempotent and safe from any goroutine, so a connection racing
// between a broadcast, its writer's failure path, Remove and CloseAll is
// torn down exactly once.
func (cl *client) stop(closeConn bool, reason int) {
	cl.once.Do(func() {
		close(cl.dead)
		h := cl.hub
		if reason != noEviction {
			h.evicted[reason].Add(1)
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
	h.mu.Lock()
	clients := h.clients
	h.clients = make(map[*Conn]*client)
	h.mu.Unlock()
	for _, cl := range clients {
		cl.stop(true, noEviction)
	}
}

// Close drops every connection and stops their writers. The hub must not
// be used afterwards; Add closes the connection it is given and Broadcast
// reaches no one.
func (h *Hub) Close() {
	h.closeOnce.Do(func() { close(h.done) })
	h.CloseAll()
}
