// Package par is the repo's single sanctioned concurrency primitive: a
// bounded worker pool for fanning independent work items out across the
// machine's cores.
//
// Every goroutine in the module is spawned here — the gobound analyzer
// (internal/lint) rejects `go` statements anywhere else. Parallelism is
// one level deep: a Why-question runs on one goroutine, and only whole
// questions (chase.Session.AskAll's jobs) run side by side. Concentrating
// the spawns buys three properties the callers rely on:
//
//   - Bounded parallelism: ForEach never runs more than the requested
//     number of workers, nor more than it has items, so a batch of
//     10,000 jobs cannot start 10,000 goroutines.
//   - Structured lifetime: ForEach returns only after every item
//     finished; no goroutine outlives its call, so callers never leak
//     workers or race with their own commit phase.
//   - Determinism by ordered commit: callers write results into
//     index-addressed slots and commit them sequentially afterwards,
//     which keeps parallel output byte-identical to sequential runs.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a configured worker count: values below 1 mean "one
// worker per logical CPU" (GOMAXPROCS), anything else is returned as
// given.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n) using at most workers
// concurrent goroutines and returns once all calls completed. Items are
// claimed dynamically (an atomic cursor), so uneven item costs balance
// across workers; fn must therefore not depend on execution order.
//
// workers ≤ 1 or n ≤ 1 degrades to a plain sequential loop on the
// calling goroutine — the zero-overhead path the determinism tests pin
// against. A panic in fn is caught in the worker and re-raised on the
// calling goroutine (first one wins) so the failure surfaces in the
// caller's stack, not as a crashed worker.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	var (
		cursor  atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  interface{}
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicV == nil {
						panicV = r
					}
					panicMu.Unlock()
				}
			}()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	rethrow(panicV)
}

// rethrow re-raises a panic value captured in a worker goroutine.
// invariant: library code in this module is panic-free (enforced by the
// panicfree analyzer); this fires only when a caller-supplied fn is
// buggy, and then the original panic must not be swallowed.
func rethrow(v interface{}) {
	if v != nil {
		panic(v)
	}
}
