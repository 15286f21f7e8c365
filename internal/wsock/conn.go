package wsock

import (
	"bufio"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// magicGUID is the key-acceptance constant from RFC 6455 §1.3.
const magicGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// Conn is an established WebSocket connection. Reads must come from a
// single goroutine; writes are internally serialized.
type Conn struct {
	conn   net.Conn
	rw     *bufio.ReadWriter
	client bool // true: this side masks its frames

	// writeTimeout bounds each write syscall burst; 0 disables deadlines.
	// Atomic so the hub can arm it after the connection is established.
	writeTimeout atomic.Int64

	writeMu sync.Mutex
	closed  bool
	lastArm time.Time // last deadline arming; writeMu held

	fragOp  Opcode
	fragBuf []byte
}

// NewConn wraps an already-established transport (TCP, net.Pipe, …) in a
// WebSocket connection without performing the HTTP upgrade — both sides
// must agree out-of-band that the byte stream speaks RFC 6455 frames.
// client selects masking: true for the connecting side, false for the
// accepting side. Tests use this to drive the hub over in-memory pipes at
// client counts no kernel socket table could hold.
func NewConn(nc net.Conn, client bool) *Conn {
	return NewConnBuffered(nc, client, 0, 0)
}

// NewConnBuffered is NewConn with explicit bufio buffer sizes (≤0 picks
// the bufio default). Small buffers keep per-connection memory flat when
// a single process holds 100k+ connections.
func NewConnBuffered(nc net.Conn, client bool, readBuf, writeBuf int) *Conn {
	if readBuf <= 0 {
		readBuf = 4096
	}
	if writeBuf <= 0 {
		writeBuf = 4096
	}
	return &Conn{
		conn:   nc,
		rw:     bufio.NewReadWriter(bufio.NewReaderSize(nc, readBuf), bufio.NewWriterSize(nc, writeBuf)),
		client: client,
	}
}

// SetWriteTimeout bounds every subsequent write (data, ping and close
// frames) to d; a write that cannot complete in time fails with a
// net.Error whose Timeout() is true. Zero (the default) disables the
// deadline and restores write-forever semantics. Safe for concurrent use.
func (c *Conn) SetWriteTimeout(d time.Duration) { c.writeTimeout.Store(int64(d)) }

// armWriteDeadline applies the configured write timeout to the underlying
// transport. Arming is amortized: a deadline set within the last quarter
// of the timeout is reused, so steady-state writes skip the per-write
// timer/syscall cost and an individual write waits between 0.75·d and d
// before failing. Callers hold writeMu.
func (c *Conn) armWriteDeadline() {
	d := time.Duration(c.writeTimeout.Load())
	if d <= 0 || c.conn == nil {
		return
	}
	now := time.Now()
	if now.Sub(c.lastArm) < d/4 {
		return
	}
	c.lastArm = now
	_ = c.conn.SetWriteDeadline(now.Add(d))
}

// abort moves the transport deadline into the past, failing any blocked
// or future read/write immediately. The hub uses it to cut loose a
// stalled client without waiting out its write timeout.
func (c *Conn) abort() {
	if c.conn != nil {
		_ = c.conn.SetDeadline(time.Unix(1, 0))
	}
}

// Accept upgrades an HTTP request to a WebSocket connection (server side).
func Accept(w http.ResponseWriter, r *http.Request) (*Conn, error) {
	if !headerContainsToken(r.Header, "Connection", "upgrade") ||
		!strings.EqualFold(r.Header.Get("Upgrade"), "websocket") {
		return nil, fmt.Errorf("wsock: not a websocket upgrade request")
	}
	if r.Header.Get("Sec-WebSocket-Version") != "13" {
		return nil, fmt.Errorf("wsock: unsupported websocket version %q", r.Header.Get("Sec-WebSocket-Version"))
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		return nil, fmt.Errorf("wsock: missing Sec-WebSocket-Key")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		return nil, fmt.Errorf("wsock: response writer does not support hijacking")
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("wsock: hijack: %w", err)
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + acceptKey(key) + "\r\n\r\n"
	if _, err := rw.WriteString(resp); err != nil {
		conn.Close()
		return nil, err
	}
	if err := rw.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	return &Conn{conn: conn, rw: rw, client: false}, nil
}

// Dial establishes a client WebSocket connection to a ws:// URL.
func Dial(rawURL string) (*Conn, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("wsock: parse url: %w", err)
	}
	if u.Scheme != "ws" {
		return nil, fmt.Errorf("wsock: unsupported scheme %q", u.Scheme)
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	conn, err := net.Dial("tcp", host)
	if err != nil {
		return nil, fmt.Errorf("wsock: dial: %w", err)
	}
	var keyRaw [16]byte
	if _, err := rand.Read(keyRaw[:]); err != nil {
		conn.Close()
		return nil, err
	}
	key := base64.StdEncoding.EncodeToString(keyRaw[:])
	path := u.RequestURI()
	req := fmt.Sprintf("GET %s HTTP/1.1\r\nHost: %s\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Key: %s\r\nSec-WebSocket-Version: 13\r\n\r\n",
		path, u.Host, key)
	if _, err := conn.Write([]byte(req)); err != nil {
		conn.Close()
		return nil, err
	}
	rw := bufio.NewReadWriter(bufio.NewReader(conn), bufio.NewWriter(conn))
	status, err := rw.ReadString('\n')
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("wsock: read handshake: %w", err)
	}
	if !strings.Contains(status, "101") {
		conn.Close()
		return nil, fmt.Errorf("wsock: handshake rejected: %s", strings.TrimSpace(status))
	}
	var acceptHdr string
	for {
		line, err := rw.ReadString('\n')
		if err != nil {
			conn.Close()
			return nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			break
		}
		if name, val, ok := strings.Cut(line, ":"); ok && strings.EqualFold(strings.TrimSpace(name), "Sec-WebSocket-Accept") {
			acceptHdr = strings.TrimSpace(val)
		}
	}
	if acceptHdr != acceptKey(key) {
		conn.Close()
		return nil, fmt.Errorf("wsock: bad Sec-WebSocket-Accept")
	}
	return &Conn{conn: conn, rw: rw, client: true}, nil
}

// ReadMessage returns the next complete data message, transparently
// answering pings and handling fragmentation. After a close frame it
// returns ErrClosed.
func (c *Conn) ReadMessage() (Opcode, []byte, error) {
	for {
		f, err := readFrame(c.rw.Reader)
		if err != nil {
			return 0, nil, err
		}
		switch f.opcode {
		case OpPing:
			if err := c.write(frame{fin: true, opcode: OpPong, payload: f.payload}); err != nil {
				return 0, nil, err
			}
		case OpPong:
			// Unsolicited pongs are ignored.
		case OpClose:
			_ = c.writeCloseLocked(f.payload)
			return 0, nil, ErrClosed
		case OpText, OpBinary:
			if f.fin {
				return f.opcode, f.payload, nil
			}
			c.fragOp = f.opcode
			c.fragBuf = append(c.fragBuf[:0], f.payload...)
		case OpContinuation:
			if c.fragOp == 0 {
				return 0, nil, fmt.Errorf("wsock: continuation without start")
			}
			c.fragBuf = append(c.fragBuf, f.payload...)
			if len(c.fragBuf) > maxPayload {
				return 0, nil, fmt.Errorf("wsock: fragmented message too large")
			}
			if f.fin {
				op := c.fragOp
				c.fragOp = 0
				msg := make([]byte, len(c.fragBuf))
				copy(msg, c.fragBuf)
				return op, msg, nil
			}
		default:
			return 0, nil, fmt.Errorf("wsock: unexpected opcode %#x", f.opcode)
		}
	}
}

// WriteText sends a text message.
func (c *Conn) WriteText(payload []byte) error {
	return c.write(frame{fin: true, opcode: OpText, payload: payload})
}

// WriteBinary sends a binary message.
func (c *Conn) WriteBinary(payload []byte) error {
	return c.write(frame{fin: true, opcode: OpBinary, payload: payload})
}

// Ping sends a ping frame.
func (c *Conn) Ping(payload []byte) error {
	return c.write(frame{fin: true, opcode: OpPing, payload: payload})
}

// Close sends a close frame and closes the underlying connection.
func (c *Conn) Close() error {
	err := c.writeCloseLocked(nil)
	c.conn.Close()
	return err
}

// WritePrepared writes a pre-assembled broadcast frame. On server
// connections the shared bytes go to the wire verbatim — no per-client
// encode, mask or copy; client connections fall back to the masking path
// since RFC 6455 forbids unmasked client frames.
func (c *Conn) WritePrepared(pf *PreparedFrame) error {
	if c.client {
		return c.write(frame{fin: true, opcode: pf.opcode, payload: pf.Payload()})
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.armWriteDeadline()
	if _, err := c.rw.Write(pf.data); err != nil {
		return err
	}
	return c.rw.Flush()
}

func (c *Conn) write(f frame) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.armWriteDeadline()
	if err := writeFrame(c.rw.Writer, f, c.client); err != nil {
		return err
	}
	return c.rw.Flush()
}

func (c *Conn) writeCloseLocked(payload []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.armWriteDeadline()
	if err := writeFrame(c.rw.Writer, frame{fin: true, opcode: OpClose, payload: payload}, c.client); err != nil {
		return err
	}
	return c.rw.Flush()
}

// acceptKey computes the Sec-WebSocket-Accept value for a client key.
func acceptKey(key string) string {
	sum := sha1.Sum([]byte(key + magicGUID))
	return base64.StdEncoding.EncodeToString(sum[:])
}

func headerContainsToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}
