// Package par is the platform's one bounded worker pool: every fan-out
// runs on Do.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do calls fn(0..n-1) on up to workers goroutines, each index once, and
// returns when every call has. workers below 1 means GOMAXPROCS. With
// one worker the calls run in order on the caller's goroutine.
func Do(n, workers int, fn func(i int)) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
				// The pool fills every P: what fn woke (dashboard fan-out,
				// match watchers) would wait out its time slice, up to
				// 10 ms and never the same twice. Yield, so it delivers now.
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
}
