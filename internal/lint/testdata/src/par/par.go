// Package par is a lint fixture for gobound's exemption: the worker
// pool itself is the one place allowed to spawn goroutines — both the
// fork-join pool and the group of long-lived goroutines.
package par

import "sync"

// ForEach spawns workers inside the approved pool package: not flagged.
func ForEach(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := 0
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Group tracks long-lived goroutines until Wait, mirroring the real
// package's Group.
type Group struct{ wg sync.WaitGroup }

// Go spawns fn inside the approved pool package, from a method: not
// flagged.
func (g *Group) Go(fn func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		fn()
	}()
}

// Wait joins every goroutine Go started.
func (g *Group) Wait() { g.wg.Wait() }
