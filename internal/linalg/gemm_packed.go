package linalg

// inPlaceSpan bounds the skinny regime, in micro-panels of the other
// operand: a strided kernel reads A in place when B spans at most this
// many nr-wide panels (n ≤ 64 on the 6×8 kernel), and B in place when A
// spans at most this many mr-high panels (m ≤ 48), because each of the
// operand's panels is then swept that few times and packing it is not
// amortised. Measured on one AVX2 core (DESIGN.md §11): n or m between
// 4 and 8 panels still ran 1.1–2× faster in place; at 16 panels and on
// the 414×441×414 products pointing ran 1.2–1.5× slower.
const inPlaceSpan = 8

// inPlaceReach bounds, in doubles, the address range one k-panel spans
// in an operand whose k-steps are whole rows apart (TN A, and B): kc
// rows of ld doubles must cover less than this (16 MiB). On one AVX2
// core spans up to 10 MiB ran 1.3–4× faster in place; at 16–40 MiB
// (a TN A of 8192 or 56250 columns, a B of 20000) the pack streamed
// better.
const inPlaceReach = 1 << 21

// forcePacking makes gemmPacked pack every panel even for a strided
// kernel: the test seam that holds the in-place path bit for bit to the
// packed one.
var forcePacking bool

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
// inner dimension is swept in kc panels: lay out the A tile, lay out
// the B tile, then run the mr×nr micro-kernel over their micro-panels.
//
// Laying out is pack-or-point, decided per micro-panel. A strided
// kernel reads a full panel of a skinny product where it lies (A in
// either orientation, B when not transposed; see inPlaceSpan and
// inPlaceReach); ragged edge panels, transposed B and everything else
// are packed. Kernels without stride support get packed panels only.
//
// The micro-kernel itself is resolved once per call through
// activeKernel(): the CPU-specific assembly kernel when the feature
// detection installed one (and SetAsmEnabled/FRAGMD_NOASM has not
// disabled it), the portable Go kernel otherwise.
//
// A β ≠ 0 is applied to C by the caller (GemmKernel) before dispatch;
// store marks β = 0, which a strided kernel turns into a store on each
// tile's first k-panel and which otherwise clears C here. alpha must be
// non-zero. At most workers goroutines sweep the tiles.
func gemmPacked(tA, tB Transpose, alpha float64, a, b, c *Mat, store bool, workers int) {
	impl := activeKernel()
	if store && impl.strided == nil {
		c.Zero()
		store = false
	}
	m, n := c.Rows, c.Cols
	k := a.Cols
	if tA {
		k = a.Rows
	}
	point := impl.strided != nil && !forcePacking
	kcMax := min(k, impl.kc)
	pointA := point && n <= inPlaceSpan*impl.nr && (tA == NoTrans || kcMax*a.Cols < inPlaceReach)
	pointB := point && tB == NoTrans && m <= inPlaceSpan*impl.mr && kcMax*b.Cols < inPlaceReach

	// Pack space for one macro-tile: whole panels of the largest tile, or
	// a single ragged panel of an operand read in place.
	aRows, bCols := impl.mr, impl.nr
	if !pointA {
		aRows = (min(m, impl.mc) + impl.mr - 1) / impl.mr * impl.mr
	}
	if !pointB {
		bCols = (min(n, impl.nc) + impl.nr - 1) / impl.nr * impl.nr
	}

	nIC := (m + impl.mc - 1) / impl.mc
	nJC := (n + impl.nc - 1) / impl.nc

	task := func(tile, _ int) {
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
		buf.a = growTo(buf.a, aRows*kcMax)
		buf.b = growTo(buf.b, kcMax*bCols)
		for l0 := 0; l0 < k; l0 += impl.kc {
			kc := k - l0
			if kc > impl.kc {
				kc = impl.kc
			}
			pa := aPanels(buf.a, a, tA, i0, mc, l0, kc, impl.mr, pointA)
			pb := bPanels(buf.b, b, tB, l0, kc, j0, nc, impl.nr, pointB)
			sweepTile(impl, &pa, &pb, kc, alpha, store && l0 == 0, c, i0, j0, mc, nc)
		}
		packPool.Put(buf)
	}
	// Tiles own disjoint C elements; above parallelThreshold up to
	// workers goroutines pull them in turn, as they free up.
	nw := 1
	if int64(m)*int64(n)*int64(k) > parallelThreshold {
		nw = workers
	}
	Parallel(nIC*nJC, 1, nw, task)
}

// panels locates the micro-panels of one operand's k-panel within a
// macro-tile. Panel p < inPlace is read where the operand lies, at
// d[p*step:] with element strides rs across the panel and cs along k;
// the rest were packed, panel inPlace+q at packed[q*size:] in the
// kernel's natural layout (rs = 1, cs = width).
type panels struct {
	d            []float64
	step, rs, cs int
	inPlace      int
	packed       []float64
	size, width  int
}

// at returns panel p and its strides: the pack-or-point decision.
func (v *panels) at(p int) ([]float64, int, int) {
	if p < v.inPlace {
		return v.d[p*v.step:], v.rs, v.cs
	}
	return v.packed[(p-v.inPlace)*v.size:], 1, v.width
}

// aPanels lays out op(A)[i0:i0+mc, l0:l0+kc] as mr-row micro-panels.
// With point set the full panels are read in place — NN as rows of A
// (rs = lda, cs = 1), TN as columns (rs = 1, cs = lda) — and only a
// ragged last panel is packed into buf; otherwise every panel is.
func aPanels(buf []float64, a *Mat, tA Transpose, i0, mc, l0, kc, mr int, point bool) panels {
	v := panels{packed: buf, size: kc * mr, width: mr}
	if point {
		v.inPlace = mc / mr
		if tA {
			v.d, v.step, v.rs, v.cs = a.Data[l0*a.Cols+i0:], mr, 1, a.Cols
		} else {
			v.d, v.step, v.rs, v.cs = a.Data[i0*a.Cols+l0:], mr*a.Cols, a.Cols, 1
		}
	}
	if done := v.inPlace * mr; done < mc {
		packAPanels(buf, a, tA, i0+done, mc-done, l0, kc, mr)
	}
	return v
}

// bPanels lays out op(B)[l0:l0+kc, j0:j0+nc] as nr-column micro-panels.
// With point set (B not transposed) the full panels are read in place,
// k-step l at row l0+l of B (cs = ldb), and only a ragged last panel is
// packed into buf; otherwise every panel is.
func bPanels(buf []float64, b *Mat, tB Transpose, l0, kc, j0, nc, nr int, point bool) panels {
	v := panels{packed: buf, size: kc * nr, width: nr}
	if point {
		v.inPlace = nc / nr
		v.d, v.step, v.cs = b.Data[l0*b.Cols+j0:], nr, b.Cols
	}
	if done := v.inPlace * nr; done < nc {
		packBPanels(buf, b, tB, l0, kc, j0+done, nc-done, nr)
	}
	return v
}

// sweepTile runs the micro-kernel over one macro-tile: A micro-panel
// outer, B micro-panel inner, so the kc×mr A panel stays L1-resident
// across the whole jp sweep while the narrower kc×nr B panels stream
// from L2 — half the cold traffic per micro-kernel call of the opposite
// nesting.
func sweepTile(impl *kernelImpl, av, bv *panels, kc int, alpha float64, store bool, c *Mat, i0, j0, mc, nc int) {
	mr, nr := impl.mr, impl.nr
	mPanels := (mc + mr - 1) / mr
	nPanels := (nc + nr - 1) / nr
	for ip := 0; ip < mPanels; ip++ {
		pa, rsA, csA := av.at(ip)
		ii := i0 + ip*mr
		me := mc - ip*mr
		if me > mr {
			me = mr
		}
		for jp := 0; jp < nPanels; jp++ {
			pb, _, csB := bv.at(jp)
			ne := nc - jp*nr
			if ne > nr {
				ne = nr
			}
			if impl.strided != nil {
				impl.strided(kc, pa, rsA, csA, pb, csB, alpha, store, c, ii, j0+jp*nr, me, ne)
			} else {
				impl.kern(kc, pa, pb, alpha, c, ii, j0+jp*nr, me, ne)
			}
		}
	}
}
