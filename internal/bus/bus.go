// Package bus is an in-process publish/subscribe broker: a TIP attached
// with tip.WithBroker announces every stored event on it. The broker fans
// out topic-tagged messages to in-process subscribers; topic matching is
// prefix-based, as in zeroMQ. Slow subscribers drop the oldest queued
// messages rather than blocking publishers. No daemon consumes it: the
// platform's consumers follow the TIP's change log by cursor instead
// (tip.Follower), which loses nothing.
package bus

import (
	"sync"
	"sync/atomic"

	"github.com/caisplatform/caisp/internal/obs"
)

// Message is one published datum.
type Message struct {
	Topic   string
	Payload []byte
}

// Subscription receives messages whose topic starts with its prefix.
type Subscription struct {
	prefix string
	ch     chan Message
	broker *Broker

	mu      sync.Mutex
	dropped int
	closed  bool
}

// C returns the subscription's receive channel. It is closed when the
// subscription or the broker shuts down.
func (s *Subscription) C() <-chan Message { return s.ch }

// Dropped reports how many messages were discarded because the subscriber
// lagged behind.
func (s *Subscription) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close cancels the subscription.
func (s *Subscription) Close() {
	s.broker.unsubscribe(s)
}

// deliver enqueues without blocking: when the buffer is full the oldest
// message is dropped to make room.
func (s *Subscription) deliver(m Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	for {
		select {
		case s.ch <- m:
			return
		default:
		}
		select {
		case <-s.ch:
			s.dropped++
			s.broker.droppedTotal.Add(1)
		default:
		}
	}
}

func (s *Subscription) markClosed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.ch)
	}
}

// Broker is an in-process topic bus.
type Broker struct {
	mu     sync.Mutex
	subs   map[*Subscription]bool
	closed bool

	published int
	bufSize   int

	// droppedTotal aggregates drop-oldest losses across all subscriptions
	// (including closed ones), so backpressure stays visible after the
	// lagging subscriber is gone.
	droppedTotal atomic.Int64
}

// Option configures a Broker.
type Option interface{ apply(*Broker) }

type bufSizeOption int

func (o bufSizeOption) apply(b *Broker) { b.bufSize = int(o) }

// WithBuffer sets the per-subscription queue length (default 256).
func WithBuffer(n int) Option { return bufSizeOption(n) }

type metricsOption struct{ reg *obs.Registry }

func (o metricsOption) apply(b *Broker) { b.registerMetrics(o.reg) }

// WithMetrics registers the broker's caisp_bus_* families into reg. The
// drop counter is fed by the same atomic deliver bumps at drop time, so
// losses are visible on the very next scrape — not only when a stats
// snapshot is polled. A nil registry registers nothing.
func WithMetrics(reg *obs.Registry) Option { return metricsOption{reg: reg} }

// registerMetrics installs scrape-time views over the broker counters.
func (b *Broker) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("caisp_bus_published_total",
		"Messages accepted by Broker.Publish.",
		func() float64 { return float64(b.Published()) })
	reg.CounterFunc("caisp_bus_dropped_total",
		"Messages discarded broker-wide by the drop-oldest policy (live; bumped at drop time).",
		func() float64 { return float64(b.Dropped()) })
	reg.GaugeFunc("caisp_bus_subscribers",
		"Currently attached in-process subscriptions.",
		func() float64 {
			b.mu.Lock()
			defer b.mu.Unlock()
			return float64(len(b.subs))
		})
}

// NewBroker constructs a Broker.
func NewBroker(opts ...Option) *Broker {
	b := &Broker{
		subs:    make(map[*Subscription]bool),
		bufSize: 256,
	}
	for _, o := range opts {
		o.apply(b)
	}
	if b.bufSize < 1 {
		b.bufSize = 1
	}
	return b
}

// Subscribe registers a prefix subscription. The empty prefix receives
// every message.
func (b *Broker) Subscribe(topicPrefix string) *Subscription {
	sub := &Subscription{
		prefix: topicPrefix,
		ch:     make(chan Message, b.bufSize),
		broker: b,
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		sub.markClosed()
		return sub
	}
	b.subs[sub] = true
	return sub
}

// Publish fans the message out to all matching subscribers. It never
// blocks on slow consumers.
func (b *Broker) Publish(topic string, payload []byte) {
	b.PublishFunc(topic, func() ([]byte, bool) { return payload, true })
}

// PublishFunc is Publish for a payload that costs something to build:
// encode runs only when somebody is subscribed to topic, and may give up
// (false drops the message). The call counts as published either way.
func (b *Broker) PublishFunc(topic string, encode func() ([]byte, bool)) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.published++
	subs := make([]*Subscription, 0, len(b.subs))
	for s := range b.subs {
		if hasPrefix(topic, s.prefix) {
			subs = append(subs, s)
		}
	}
	b.mu.Unlock()

	if len(subs) == 0 {
		return
	}
	payload, ok := encode()
	if !ok {
		return
	}
	msg := Message{Topic: topic, Payload: payload}
	for _, s := range subs {
		s.deliver(msg)
	}
}

// Published returns the number of accepted Publish calls.
func (b *Broker) Published() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.published
}

// Dropped returns the total number of messages discarded broker-wide
// because subscribers lagged behind (drop-oldest policy).
func (b *Broker) Dropped() int64 {
	return b.droppedTotal.Load()
}

// Close shuts the broker down: all subscriptions are closed.
func (b *Broker) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	subs := make([]*Subscription, 0, len(b.subs))
	for s := range b.subs {
		subs = append(subs, s)
	}
	b.subs = map[*Subscription]bool{}
	b.mu.Unlock()

	for _, s := range subs {
		s.markClosed()
	}
}

func (b *Broker) unsubscribe(s *Subscription) {
	b.mu.Lock()
	delete(b.subs, s)
	b.mu.Unlock()
	s.markClosed()
}

func hasPrefix(topic, prefix string) bool {
	return len(topic) >= len(prefix) && topic[:len(prefix)] == prefix
}
