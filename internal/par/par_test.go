package par

import (
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestDo: every index runs once; the first min(workers, n) calls are in
// flight together, held at a gate until all of them arrived, and no more
// than that ever are: once Do waits for its workers, it has started
// exactly that many. One worker runs the calls in order on the caller's
// goroutine.
func TestDo(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		name        string
		n, workers  int
		inFlight    int // calls held in flight together
		callerOrder bool
	}{
		{name: "n=0", n: 0, workers: 4},
		{name: "workers<1", n: procs + 3, workers: 0, inFlight: procs},
		{name: "workers>n", n: 3, workers: 8, inFlight: 3},
		{name: "bounded", n: 16, workers: 4, inFlight: 4},
		{name: "one worker", n: 5, workers: 1, inFlight: 1, callerOrder: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls := make([]atomic.Int32, tc.n)
			var inflight, peak atomic.Int32
			arrived := make(chan struct{}, tc.n)
			release := make(chan struct{})
			var order []int
			caller := goroutineID()
			fn := func(i int) {
				cur := inflight.Add(1)
				defer inflight.Add(-1)
				for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
				}
				calls[i].Add(1)
				if tc.callerOrder {
					order = append(order, i)
					if goroutineID() != caller {
						t.Errorf("call %d ran off the caller's goroutine", i)
					}
					return
				}
				arrived <- struct{}{}
				<-release
			}
			if tc.callerOrder {
				Do(tc.n, tc.workers, fn)
				if want := []int{0, 1, 2, 3, 4}; !slices.Equal(order, want) {
					t.Fatalf("order %v, want %v", order, want)
				}
			} else {
				done := make(chan struct{})
				ids := make(chan string, 1)
				go func() {
					defer close(done)
					ids <- goroutineID()
					Do(tc.n, tc.workers, fn)
				}()
				id := <-ids
				for range tc.inFlight {
					select {
					case <-arrived:
					case <-time.After(10 * time.Second):
						t.Fatalf("%d calls in flight, want %d", inflight.Load(), tc.inFlight)
					}
				}
				if tc.inFlight > 1 { // fewer run on the caller's goroutine
					started, waiting := poolState(id)
					for deadline := time.Now().Add(10 * time.Second); !waiting; started, waiting = poolState(id) {
						if time.Now().After(deadline) {
							t.Fatal("Do never waited for its workers")
						}
						runtime.Gosched()
					}
					if started != tc.inFlight {
						t.Errorf("Do started %d workers, want %d", started, tc.inFlight)
					}
				}
				close(release)
				<-done
			}
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Errorf("index %d ran %d times, want once", i, c)
				}
			}
			if p := int(peak.Load()); p != tc.inFlight {
				t.Errorf("peak in flight %d, want %d", p, tc.inFlight)
			}
		})
	}
}

// goroutineID reads the calling goroutine's number off its stack
// header, "goroutine N [running]:".
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// poolState reads every goroutine's stack: how many workers the Do
// called on goroutine id started, and whether it waits for them (it has
// started them all).
func poolState(id string) (started int, waiting bool) {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for ; n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "created by github.com/caisplatform/caisp/internal/par.Do in goroutine "+id+"\n") {
			started++
		}
		if strings.HasPrefix(g, "goroutine "+id+" [") && strings.Contains(g, "sync.(*WaitGroup).Wait(") {
			waiting = true
		}
	}
	return started, waiting
}
