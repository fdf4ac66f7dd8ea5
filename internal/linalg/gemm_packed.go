package linalg

import (
	"runtime"
	"sync"
)

// gemmPacked executes C += alpha·op(A)·op(B) via the packed,
// register-blocked engine. Both operand transposes are folded into the
// packing step, so all four variants (NN/NT/TN/TT) reach the same
// orientation-free micro-kernel — the packed path has no variant spread
// by construction.
//
// Decomposition (Goto/BLIS): C is tiled into a 2D grid of mc×nc
// macro-tiles (sizes from the active kernelImpl). Each tile is an
// independent task — the parallel unit is the tile grid, not raw row
// ranges — and every task owns disjoint elements of C, so no
// synchronisation is needed beyond the final join. Within a task the
// inner dimension is swept in kc panels: pack A tile, pack B tile, then
// run the mr×nr micro-kernel over the packed panels.
//
// The micro-kernel itself is resolved once per call through
// activeKernel(): the CPU-specific assembly kernel when the feature
// detection installed one (and SetAsmEnabled/FRAGMD_NOASM has not
// disabled it), the portable Go kernel otherwise.
//
// beta is assumed already applied to C by the caller (Gemm does this
// before dispatch), and alpha must be non-zero.
func gemmPacked(tA, tB Transpose, alpha float64, a, b, c *Mat) {
	impl := activeKernel()
	m, n := c.Rows, c.Cols
	k := a.Cols
	if tA {
		k = a.Rows
	}

	nIC := (m + impl.mc - 1) / impl.mc
	nJC := (n + impl.nc - 1) / impl.nc

	task := func(tile int) {
		ic, jc := tile/nJC, tile%nJC
		i0 := ic * impl.mc
		mc := m - i0
		if mc > impl.mc {
			mc = impl.mc
		}
		j0 := jc * impl.nc
		nc := n - j0
		if nc > impl.nc {
			nc = impl.nc
		}

		buf := packPool.Get().(*packBuf)
		buf.a = growTo(buf.a, impl.mc*impl.kc)
		buf.b = growTo(buf.b, impl.kc*impl.nc)
		for l0 := 0; l0 < k; l0 += impl.kc {
			kc := k - l0
			if kc > impl.kc {
				kc = impl.kc
			}
			packAPanels(buf.a, a, tA, i0, mc, l0, kc, impl.mr)
			packBPanels(buf.b, b, tB, l0, kc, j0, nc, impl.nr)
			sweepTile(impl.kern, buf.a, buf.b, kc, alpha, c, i0, j0, mc, nc, impl.mr, impl.nr)
		}
		packPool.Put(buf)
	}
	runTiles(nIC*nJC, int64(m)*int64(n)*int64(k), task)
}

// sweepTile runs the micro-kernel over one packed macro-tile: A
// micro-panel outer, B micro-panel inner, so the kc×mr A panel stays
// L1-resident across the whole jp sweep while the narrower kc×nr B
// panels stream from L2 — half the cold traffic per micro-kernel call
// of the opposite nesting.
func sweepTile(kern microKernel, pa, pb []float64, kc int, alpha float64, c *Mat, i0, j0, mc, nc, mr, nr int) {
	mPanels := (mc + mr - 1) / mr
	nPanels := (nc + nr - 1) / nr
	for ip := 0; ip < mPanels; ip++ {
		pap := pa[ip*kc*mr:]
		ii := i0 + ip*mr
		me := mc - ip*mr
		if me > mr {
			me = mr
		}
		for jp := 0; jp < nPanels; jp++ {
			ne := nc - jp*nr
			if ne > nr {
				ne = nr
			}
			kern(kc, pap, pb[jp*kc*nr:], alpha, c, ii, j0+jp*nr, me, ne)
		}
	}
}

// runTiles executes the tile tasks, fanning out across GOMAXPROCS
// workers when the problem is large enough to amortise goroutine
// startup (same threshold as the streaming engine).
func runTiles(tiles int, work int64, task func(int)) {
	nw := 1
	if work > parallelThreshold {
		nw = runtime.GOMAXPROCS(0)
		if nw > tiles {
			nw = tiles
		}
	}
	if nw <= 1 {
		for t := 0; t < tiles; t++ {
			task(t)
		}
		return
	}
	var wg sync.WaitGroup
	var next sync.Mutex
	cursor := 0
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				t := cursor
				cursor++
				next.Unlock()
				if t >= tiles {
					return
				}
				task(t)
			}
		}()
	}
	wg.Wait()
}
