package linalg

import (
	"slices"
	"sync/atomic"
	"testing"
)

// Parallel runs every index of [0, n) exactly once, in chunk-long pieces
// cut at n, at any worker count, and with one worker (or none) inline,
// in order.
func TestParallelRunsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64} {
		for _, chunk := range []int{1, 3, 64} {
			for _, workers := range []int{-1, 0, 1, 2, 3, 100} {
				counts := make([]atomic.Int32, n)
				Parallel(n, chunk, workers, func(lo, hi int) {
					if lo%chunk != 0 || hi != min(lo+chunk, n) {
						t.Errorf("n %d, chunk %d: piece [%d, %d)", n, chunk, lo, hi)
					}
					for i := lo; i < hi; i++ {
						counts[i].Add(1)
					}
				})
				for i := range counts {
					if c := counts[i].Load(); c != 1 {
						t.Fatalf("n %d, chunk %d, workers %d: index %d ran %d times", n, chunk, workers, i, c)
					}
				}
			}
			var order []int
			Parallel(n, chunk, 1, func(lo, _ int) { order = append(order, lo) })
			var want []int
			for lo := 0; lo < n; lo += chunk {
				want = append(want, lo)
			}
			if !slices.Equal(order, want) {
				t.Errorf("n %d, chunk %d, one worker: pieces at %v, want %v", n, chunk, order, want)
			}
		}
	}
}
