package clock

import (
	"testing"
	"time"
)

func TestRealClockMonotonic(t *testing.T) {
	c := Real()
	a := c.Now()
	b := c.Now()
	if b.Before(a) {
		t.Fatalf("time went backwards: %v then %v", a, b)
	}
}

func TestFakeNowFrozen(t *testing.T) {
	start := time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC)
	f := NewFake(start)
	if !f.Now().Equal(start) {
		t.Fatalf("Now() = %v, want %v", f.Now(), start)
	}
	f.Advance(90 * time.Minute)
	want := start.Add(90 * time.Minute)
	if !f.Now().Equal(want) {
		t.Fatalf("after Advance, Now() = %v, want %v", f.Now(), want)
	}
}

func TestFakeAfterFiresOnAdvance(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	ch := f.After(10 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired before Advance")
	default:
	}
	f.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired too early")
	default:
	}
	f.Advance(1 * time.Second)
	select {
	case at := <-ch:
		if !at.Equal(time.Unix(10, 0)) {
			t.Fatalf("fired at %v, want %v", at, time.Unix(10, 0))
		}
	case <-time.After(time.Second):
		t.Fatal("timer never fired after due Advance")
	}
}

func TestFakeAfterNonPositiveFiresImmediately(t *testing.T) {
	f := NewFake(time.Unix(100, 0))
	select {
	case <-f.After(0):
	default:
		t.Fatal("After(0) did not fire immediately")
	}
	select {
	case <-f.After(-time.Second):
	default:
		t.Fatal("After(-1s) did not fire immediately")
	}
}

func TestFakeMultipleWaiters(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	ch1 := f.After(1 * time.Second)
	ch2 := f.After(5 * time.Second)
	f.Advance(2 * time.Second)
	select {
	case <-ch1:
	default:
		t.Fatal("first waiter not fired")
	}
	select {
	case <-ch2:
		t.Fatal("second waiter fired early")
	default:
	}
	f.Advance(3 * time.Second)
	select {
	case <-ch2:
	default:
		t.Fatal("second waiter not fired")
	}
}

func TestFakeBlockUntilWaitsForTimer(t *testing.T) {
	f := NewFake(time.Unix(0, 0))
	f.BlockUntil(0) // nothing to wait for
	fired := make(chan time.Time)
	release := make(chan struct{})
	go func() {
		<-release
		fired <- <-f.After(time.Minute)
	}()
	blocked := make(chan struct{})
	go func() {
		f.BlockUntil(1)
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("BlockUntil(1) returned with no timer pending")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-blocked
	// The timer is armed, so this Advance cannot be lost.
	f.Advance(time.Minute)
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("timer armed before Advance never fired")
	}
	f.BlockUntil(0) // the fired timer no longer counts
}
