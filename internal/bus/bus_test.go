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
