package linalg

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Procs is the worker count every fan-out of the chemistry stack cuts
// its work for: GOMAXPROCS.
func Procs() int { return runtime.GOMAXPROCS(0) }

// Parallel runs fn(lo, hi) on the chunk-long pieces [0, chunk),
// [chunk, 2·chunk), … of [0, n), the last one cut at n, on at most
// workers goroutines, the caller being one of them, each taking the next
// piece from one atomic counter; with one worker the pieces run inline,
// in order. The caller fixes the partition (n and chunk ≥ 1, from the
// shapes and Procs only) and folds partial results in piece order, so
// which goroutine ran a piece changes no bit. This file alone in linalg,
// integrals, scf and mp2 starts goroutines or reads GOMAXPROCS.
func Parallel(n, chunk, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = min(workers, (n+chunk-1)/chunk)
	if workers <= 1 {
		for lo := 0; lo < n; lo += chunk {
			fn(lo, min(lo+chunk, n))
		}
		return
	}
	var next atomic.Int64
	run := func() {
		for lo := int(next.Add(int64(chunk))) - chunk; lo < n; lo = int(next.Add(int64(chunk))) - chunk {
			fn(lo, min(lo+chunk, n))
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}
