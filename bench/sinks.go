package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/caisplatform/caisp/internal/bus"
	"github.com/caisplatform/caisp/internal/wsock"
)

// docFetcher is the benchmark's feed.Fetcher: documents are queued by
// the workload and handed to the collector one per fetch; an empty queue
// answers not-modified, like an unchanged upstream.
type docFetcher struct {
	mu    sync.Mutex
	queue [][]byte
}

func (f *docFetcher) push(doc []byte) {
	f.mu.Lock()
	f.queue = append(f.queue, doc)
	f.mu.Unlock()
}

// Fetch implements feed.Fetcher.
func (f *docFetcher) Fetch(context.Context) ([]byte, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.queue) == 0 {
		return nil, true, nil
	}
	doc := f.queue[0]
	f.queue[0] = nil
	f.queue = f.queue[1:]
	return doc, false, nil
}

// backlog is the number of documents queued but not yet fetched.
func (f *docFetcher) backlog() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.queue)
}

// loopback serves a handler on a 127.0.0.1 port of the kernel's choice.
type loopback struct {
	addr string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bench: listen: %w", err)
	}
	l := &loopback{addr: ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return l, nil
}

func (l *loopback) url() string { return "http://" + l.addr }

// close stops the listener and every connection, and waits for the
// serve goroutine.
func (l *loopback) close() {
	_ = l.srv.Close()
	<-l.done
}

// frame is one WebSocket text message with its arrival time.
type frame struct {
	at      time.Time
	payload []byte
}

// wsSink is a WebSocket client that timestamps every frame on arrival
// and keeps it for inspection after the measured phase. Its reader only
// blocks on the socket, so it is not a load goroutine.
type wsSink struct {
	conn *wsock.Conn
	done chan struct{}

	mu     sync.Mutex
	cond   *sync.Cond
	frames []frame
	closed bool
}

func dialSink(url string) (*wsSink, error) {
	conn, err := wsock.Dial(url)
	if err != nil {
		return nil, err
	}
	s := &wsSink{conn: conn, done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.read()
	return s, nil
}

func (s *wsSink) read() {
	defer close(s.done)
	for {
		op, payload, err := s.conn.ReadMessage()
		now := time.Now()
		s.mu.Lock()
		if err != nil {
			s.closed = true
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		if op == wsock.OpText {
			s.frames = append(s.frames, frame{at: now, payload: payload})
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	}
}

func (s *wsSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frames)
}

// waitFor blocks until at least n frames arrived, the connection closed,
// or the timeout passed; it reports whether n was reached.
func (s *wsSink) waitFor(n int, timeout time.Duration) bool {
	timer := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	deadline := time.Now().Add(timeout)
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.frames) < n && !s.closed && time.Now().Before(deadline) {
		s.cond.Wait()
	}
	return len(s.frames) >= n
}

// snapshot returns the frames received so far.
func (s *wsSink) snapshot() []frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frames[:len(s.frames):len(s.frames)]
}

// alive reports whether the server still holds the connection open: a
// hub that evicted the client closes it.
func (s *wsSink) alive() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}

func (s *wsSink) close() {
	_ = s.conn.Close()
	<-s.done
}

// arenaChunk is the allocation unit of busCapture's copy arena.
const arenaChunk = 8 << 20

// busCapture copies every message of a bus subscription into a chunked
// arena. Copying (instead of keeping the payload) matters: payloads are
// the store's cached encodings, and holding them would keep superseded
// revisions alive and inflate the heap the workload reports. The arena's
// size is known exactly and subtracted from that heap.
type busCapture struct {
	sub  *bus.Subscription
	done chan struct{}

	mu     sync.Mutex
	chunks [][]byte
	msgs   []busMsg
}

type busMsg struct {
	at      time.Time
	payload []byte // slice into an arena chunk
}

func captureBus(b *bus.Broker, prefix string) *busCapture {
	c := &busCapture{sub: b.Subscribe(prefix), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for m := range c.sub.C() {
			c.add(m.Payload)
		}
	}()
	return c
}

func (c *busCapture) add(payload []byte) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.chunks)
	if n == 0 || cap(c.chunks[n-1])-len(c.chunks[n-1]) < len(payload) {
		size := arenaChunk
		if len(payload) > size {
			size = len(payload)
		}
		c.chunks = append(c.chunks, make([]byte, 0, size))
		n++
	}
	chunk := c.chunks[n-1]
	start := len(chunk)
	chunk = append(chunk, payload...)
	c.chunks[n-1] = chunk
	c.msgs = append(c.msgs, busMsg{at: now, payload: chunk[start:len(chunk):len(chunk)]})
}

// arenaBytes is the memory the capture itself holds.
func (c *busCapture) arenaBytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, ch := range c.chunks {
		total += cap(ch)
	}
	return total + cap(c.msgs)*40
}

func (c *busCapture) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs)
}

func (c *busCapture) snapshot() []busMsg {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.msgs[:len(c.msgs):len(c.msgs)]
}

func (c *busCapture) dropped() int { return c.sub.Dropped() }

// close ends the subscription and waits for the capture goroutine. It
// is safe after the broker itself closed.
func (c *busCapture) close() {
	c.sub.Close()
	<-c.done
}

// wsURL turns a loopback base URL into a ws:// URL for path.
func wsURL(l *loopback, path string) string { return "ws://" + l.addr + path }

var errTimeout = errors.New("bench: timed out")
