// Package par provides the tiny work-distribution helper shared by the
// parallel graph and index builders: a deterministic fan-out of n
// independent work items over a bounded number of goroutines. The helper
// carries no ordering guarantees — callers that need deterministic output
// must write results into per-item slots and merge them in item order.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count option: n itself when positive,
// runtime.GOMAXPROCS(0) otherwise.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run invokes fn(i) for every i in [0, n), using at most workers
// goroutines. workers <= 1 (or n <= 1) degrades to a plain serial loop on
// the calling goroutine, so the serial and parallel paths share one code
// path. Run returns when every invocation has completed. fn must be safe
// to call concurrently from multiple goroutines.
func Run(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
