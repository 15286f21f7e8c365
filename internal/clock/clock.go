// Package clock abstracts time for the platform. Production code uses the
// system clock; tests and the deterministic feed generator use a fake clock
// so that timeliness-sensitive heuristics (modified, valid_from, valid_until)
// are reproducible.
package clock

import (
	"sync"
	"time"
)

// Clock supplies the current time and timer primitives used by the platform.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// After returns a channel that delivers the current time after d.
	After(d time.Duration) <-chan time.Time
}

// Real returns a Clock backed by the system clock.
func Real() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Fake is a manually advanced clock for tests. The zero value is not usable;
// construct with NewFake.
type Fake struct {
	mu      sync.Mutex
	now     time.Time
	waiters []waiter
	armed   *sync.Cond // signalled when After adds a waiter
}

type waiter struct {
	at time.Time
	ch chan time.Time
}

// NewFake returns a fake clock frozen at start.
func NewFake(start time.Time) *Fake {
	f := &Fake{now: start}
	f.armed = sync.NewCond(&f.mu)
	return f
}

// Now returns the fake current instant.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// After returns a channel that fires once Advance moves the clock past d.
func (f *Fake) After(d time.Duration) <-chan time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := make(chan time.Time, 1)
	at := f.now.Add(d)
	if d <= 0 {
		ch <- f.now
		return ch
	}
	f.waiters = append(f.waiters, waiter{at: at, ch: ch})
	f.armed.Broadcast()
	return ch
}

// BlockUntil blocks until at least n timers are pending on the clock. A
// test calls it before Advance so that the goroutine under test has
// re-armed its timer: an Advance that runs first moves the clock past a
// deadline nobody is waiting on yet, and the wakeup is lost.
func (f *Fake) BlockUntil(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.waiters) < n {
		f.armed.Wait()
	}
}

// Advance moves the clock forward by d, firing any timers that come due.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	now := f.now
	var remaining []waiter
	var due []waiter
	for _, w := range f.waiters {
		if !w.at.After(now) {
			due = append(due, w)
		} else {
			remaining = append(remaining, w)
		}
	}
	f.waiters = remaining
	f.mu.Unlock()
	for _, w := range due {
		w.ch <- now
	}
}

var _ Clock = (*Fake)(nil)
var _ Clock = realClock{}
