package bus

import (
	"strings"

	"fmt"
	"github.com/caisplatform/caisp/internal/obs"
	"sync"
	"testing"
	"time"
)

func recvOne(t *testing.T, ch <-chan Message) Message {
	t.Helper()
	select {
	case m, ok := <-ch:
		if !ok {
			t.Fatal("channel closed")
		}
		return m
	case <-time.After(2 * time.Second):
		t.Fatal("timeout waiting for message")
		return Message{}
	}
}

func expectNone(t *testing.T, ch <-chan Message) {
	t.Helper()
	select {
	case m := <-ch:
		t.Fatalf("unexpected message on %q", m.Topic)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestInProcessPubSub(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	sub := b.Subscribe("misp.")
	b.Publish("misp.event", []byte("hello"))
	m := recvOne(t, sub.C())
	if m.Topic != "misp.event" || string(m.Payload) != "hello" {
		t.Fatalf("got %+v", m)
	}
}

func TestPrefixFiltering(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	all := b.Subscribe("")
	misp := b.Subscribe("misp.")
	other := b.Subscribe("alarms.")

	b.Publish("misp.event", []byte("x"))
	recvOne(t, all.C())
	recvOne(t, misp.C())
	expectNone(t, other.C())
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	sub := b.Subscribe("")
	sub.Close()
	b.Publish("t", []byte("x"))
	if _, ok := <-sub.C(); ok {
		t.Fatal("message delivered after Close")
	}
}

func TestSlowSubscriberDropsOldest(t *testing.T) {
	b := NewBroker(WithBuffer(4))
	defer b.Close()
	sub := b.Subscribe("")
	for i := 0; i < 10; i++ {
		b.Publish("t", []byte{byte(i)})
	}
	if sub.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", sub.Dropped())
	}
	// The surviving messages are the newest four.
	first := recvOne(t, sub.C())
	if first.Payload[0] != 6 {
		t.Fatalf("oldest surviving = %d, want 6", first.Payload[0])
	}
}

func TestBrokerCloseClosesSubscribers(t *testing.T) {
	b := NewBroker()
	sub := b.Subscribe("")
	b.Close()
	if _, ok := <-sub.C(); ok {
		t.Fatal("subscription channel not closed")
	}
	// Publishing and subscribing after close are safe no-ops.
	b.Publish("t", nil)
	dead := b.Subscribe("x")
	if _, ok := <-dead.C(); ok {
		t.Fatal("post-close subscription delivered")
	}
}

func TestPublishedCounter(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	for i := 0; i < 5; i++ {
		b.Publish("t", nil)
	}
	if b.Published() != 5 {
		t.Fatalf("Published = %d", b.Published())
	}
}

func TestPublishFuncEncodesOnlyForSubscribers(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	calls := 0
	encode := func() ([]byte, bool) { calls++; return []byte("x"), calls < 2 }
	b.PublishFunc("misp.event.add", encode)
	sub := b.Subscribe("taxii.")
	b.PublishFunc("misp.event.add", encode)
	if calls != 0 || b.Published() != 2 {
		t.Fatalf("no matching subscriber: encode ran %d times, Published = %d", calls, b.Published())
	}
	sub.Close()
	sub = b.Subscribe("misp.")
	b.PublishFunc("misp.event.add", encode)
	if m := recvOne(t, sub.C()); string(m.Payload) != "x" || calls != 1 {
		t.Fatalf("payload %q after %d encode calls", m.Payload, calls)
	}
	b.PublishFunc("misp.event.add", encode) // encode gives up: dropped
	expectNone(t, sub.C())
	if calls != 2 || b.Published() != 4 {
		t.Fatalf("encode ran %d times, Published = %d", calls, b.Published())
	}
}

func TestTCPDelivery(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	l, err := b.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	client := Dial(l.Addr(), "misp.")
	defer client.Close()

	// Give the client a moment to connect before publishing.
	waitForConns(t, b, 1)
	b.Publish("misp.event.add", []byte(`{"uuid":"u1"}`))
	b.Publish("alarms.new", []byte("filtered-out"))
	b.Publish("misp.event.edit", []byte(`{"uuid":"u2"}`))

	m1 := recvOne(t, client.C())
	if m1.Topic != "misp.event.add" || string(m1.Payload) != `{"uuid":"u1"}` {
		t.Fatalf("got %+v", m1)
	}
	m2 := recvOne(t, client.C())
	if m2.Topic != "misp.event.edit" {
		t.Fatalf("got %+v, want edit (alarms filtered)", m2)
	}
}

func TestTCPMultipleSubscribers(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	l, err := b.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	c1 := Dial(l.Addr(), "")
	defer c1.Close()
	c2 := Dial(l.Addr(), "")
	defer c2.Close()
	waitForConns(t, b, 2)

	b.Publish("t", []byte("fanout"))
	if string(recvOne(t, c1.C()).Payload) != "fanout" {
		t.Fatal("c1 missed")
	}
	if string(recvOne(t, c2.C()).Payload) != "fanout" {
		t.Fatal("c2 missed")
	}
}

func TestTCPClientReconnects(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	l, err := b.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr()

	client := Dial(addr, "")
	defer client.Close()
	waitForConns(t, b, 1)
	b.Publish("t", []byte("before"))
	if string(recvOne(t, client.C()).Payload) != "before" {
		t.Fatal("pre-restart message lost")
	}

	// Kill the listener (drops the connection), then restart on the same
	// address.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	var l2 *Listener
	for {
		l2, err = b.ListenTCP(addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer l2.Close()

	// Wait for the client to have redialed (not just for the stale server
	// connection to still be registered).
	deadline = time.Now().Add(5 * time.Second)
	for client.Reconnects() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitForConns(t, b, 1)
	b.Publish("t", []byte("after"))
	if string(recvOne(t, client.C()).Payload) != "after" {
		t.Fatal("post-restart message lost")
	}
	if client.Reconnects() < 1 {
		t.Fatalf("Reconnects = %d, want ≥ 1", client.Reconnects())
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf writableBuffer
	msgs := []Message{
		{Topic: "t", Payload: []byte("payload")},
		{Topic: "", Payload: nil},
		{Topic: "misp.event", Payload: make([]byte, 4096)},
	}
	for _, m := range msgs {
		if err := writeFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Topic != want.Topic || len(got.Payload) != len(want.Payload) {
			t.Fatalf("frame mismatch: %+v vs %+v", got, want)
		}
	}
}

func TestReadFrameRejectsMalformedHeader(t *testing.T) {
	var buf writableBuffer
	// topicLen (10) exceeds frameLen (4): impossible.
	buf.data = []byte{0, 0, 0, 4, 0, 10, 'x', 'x', 'x', 'x'}
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("malformed header accepted")
	}
}

func TestConcurrentPublishers(t *testing.T) {
	b := NewBroker(WithBuffer(10000))
	defer b.Close()
	sub := b.Subscribe("")
	var wg sync.WaitGroup
	const publishers, per = 8, 100
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.Publish(fmt.Sprintf("topic-%d", p), []byte{byte(i)})
			}
		}(p)
	}
	wg.Wait()
	if b.Published() != publishers*per {
		t.Fatalf("Published = %d", b.Published())
	}
	received := 0
	for {
		select {
		case <-sub.C():
			received++
		default:
			if received != publishers*per {
				t.Fatalf("received %d, want %d", received, publishers*per)
			}
			return
		}
	}
}

// writableBuffer is a minimal io.ReadWriter for frame tests.
type writableBuffer struct {
	data []byte
}

func (b *writableBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

func (b *writableBuffer) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		return 0, fmt.Errorf("EOF")
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}

func waitForConns(t *testing.T, b *Broker, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		have := len(b.conns)
		b.mu.Unlock()
		if have >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d TCP conns after 5s, want %d", have, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDropCounterLiveOnMetrics asserts that a dropped publish is visible
// on the metrics surface immediately — at the moment of the drop, not
// only when a stats snapshot is later polled.
func TestDropCounterLiveOnMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewBroker(WithBuffer(1), WithMetrics(reg))
	defer b.Close()
	sub := b.Subscribe("")
	defer sub.Close()

	scrape := func() string {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if out := scrape(); !strings.Contains(out, "caisp_bus_dropped_total 0") {
		t.Fatalf("pre-drop exposition:\n%s", out)
	}

	b.Publish("t", []byte("first"))
	b.Publish("t", []byte("second")) // evicts "first" from the 1-slot buffer

	// No Stats() poll in between: the scrape alone must see the drop.
	if out := scrape(); !strings.Contains(out, "caisp_bus_dropped_total 1") {
		t.Fatalf("post-drop exposition:\n%s", out)
	}
	if !strings.Contains(scrape(), "caisp_bus_published_total 2") {
		t.Fatal("published counter not live")
	}
}
