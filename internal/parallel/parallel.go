// Package parallel splits an index range across goroutines for the build
// paths (overlay construction, host assembly) that initialize disjoint
// slots of preallocated arrays.
package parallel

import (
	"runtime"
	"sync"
)

// Ranges splits [0, n) into at most GOMAXPROCS contiguous ranges and runs fn
// on each, concurrently when there is more than one; fn must therefore be
// safe to run on disjoint ranges at once. fn stops at its first failing index
// and returns that index's error. Ranges returns the error of the
// lowest-indexed failing range, which is the error of the lowest failing
// index: the error a sequential loop over [0, n) would have stopped at.
func Ranges(n int, fn func(lo, hi int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		return fn(0, n)
	}
	chunk := (n + workers - 1) / workers
	errs := make([]error, (n+chunk-1)/chunk)
	var wg sync.WaitGroup
	for r := range errs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lo := r * chunk
			errs[r] = fn(lo, min(lo+chunk, n))
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
