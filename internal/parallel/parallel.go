// Package parallel provides the shared worker-pool primitives behind every
// concurrent construction and evaluation loop in this repository.
//
// The contract that keeps the parallel schemes deterministic is simple: a
// loop body invoked for index i may read shared immutable inputs and write
// only state owned by index i (a slot of a preallocated slice, a fresh map
// stored at position i, ...). Cross-index aggregation - bunch lists, float
// sums, maxima - is performed by the caller in a sequential merge over
// indices in increasing order after the pool drains. Under this discipline
// the result of a parallel loop is a pure function of its inputs, identical
// for every worker count and goroutine schedule.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// limit, when positive, overrides the default worker count.
var limit atomic.Int64

// SetLimit sets the default worker count used by For and ForErr; n <= 0
// restores the GOMAXPROCS default. It is the knob behind the -workers flag
// of cmd/routebench and compactroute.SetParallelism.
func SetLimit(n int) {
	if n < 0 {
		n = 0
	}
	limit.Store(int64(n))
}

// Workers returns the worker count For and ForErr currently use.
func Workers() int {
	if n := limit.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// For runs fn(i) for every i in [0, n) across Workers() goroutines. fn must
// follow the package's ownership discipline (write only index-i state).
func For(n int, fn func(i int)) { ForN(Workers(), n, fn) }

// ForN is For with an explicit worker count; workers <= 1 runs inline.
func ForN(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
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
	for w := 0; w < workers; w++ {
		wg.Add(1)
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

// ForErr runs fn(i) for every i in [0, n) across Workers() goroutines and
// returns the error of the lowest failing index - the same error a
// sequential loop that stops at the first failure would return, so error
// reporting is independent of scheduling. After a failure at index i,
// indices above i may be skipped; on error the caller must discard all
// partial results.
func ForErr(n int, fn func(i int) error) error { return ForNErr(Workers(), n, fn) }

// ForNErr is ForErr with an explicit worker count; workers <= 1 runs inline
// and stops at the first error.
func ForNErr(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		mu     sync.Mutex
		errIdx = n
		errVal error
	)
	ForN(workers, n, func(i int) {
		mu.Lock()
		skip := i > errIdx
		mu.Unlock()
		if skip {
			return
		}
		if err := fn(i); err != nil {
			mu.Lock()
			if i < errIdx {
				errIdx, errVal = i, err
			}
			mu.Unlock()
		}
	})
	return errVal
}

// blockLen is the number of consecutive indices ForErrBlocks runs as one
// task.
const blockLen = 64

// ForErrBlocks is ForErr with each task running blockLen consecutive indices
// in increasing order, for loops with little work per index whose index-i
// writes sit next to index i+1's (rows of one slab): single-index tasks
// would have the workers write the same cache lines. The error is still the
// lowest failing index's.
func ForErrBlocks(n int, fn func(i int) error) error {
	return ForErr((n+blockLen-1)/blockLen, func(b int) error {
		for i := b * blockLen; i < min(n, (b+1)*blockLen); i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	})
}
