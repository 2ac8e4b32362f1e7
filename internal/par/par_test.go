package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d, want 5", got)
	}
}

// TestForEachCoversEveryIndexOnce checks each index runs exactly once,
// across sequential and parallel configurations.
func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		for _, n := range []int{0, 1, 3, 100, 1000} {
			hits := make([]atomic.Int32, n)
			ForEach(workers, n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestForEachBoundsConcurrency proves no more than the requested number
// of workers run simultaneously.
func TestForEachBoundsConcurrency(t *testing.T) {
	const workers, n = 4, 200
	var cur, max atomic.Int32
	ForEach(workers, n, func(int) {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		cur.Add(-1)
	})
	if m := max.Load(); m > workers {
		t.Fatalf("observed %d concurrent workers, want ≤ %d", m, workers)
	}
}

// TestForEachSequentialOrder pins the workers=1 contract: items run in
// index order on the calling goroutine, which is what makes a
// single-worker run byte-identical to the historical sequential code.
func TestForEachSequentialOrder(t *testing.T) {
	var order []int
	ForEach(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if i != v {
			t.Fatalf("workers=1 ran out of order: %v", order)
		}
	}
}

// TestForEachPanicPropagates checks a worker panic resurfaces on the
// caller and does not deadlock the pool.
func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want \"boom\"", r)
		}
	}()
	ForEach(4, 32, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
	t.Fatal("ForEach returned instead of panicking")
}
