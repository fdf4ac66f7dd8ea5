package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// forceAsm flips the assembly microkernel on or off for the duration of
// a test and registers the restore. Returns false (and skips nothing)
// when asked to enable asm on a machine without a native kernel.
func forceAsm(t *testing.T, on bool) bool {
	t.Helper()
	if on && !AsmAvailable() {
		return false
	}
	prev := SetAsmEnabled(on)
	t.Cleanup(func() { SetAsmEnabled(prev) })
	return true
}

// Satellite pin: KernelAuto must re-arbitrate its stream→packed
// crossover when the assembly microkernel is active — the asm kernel
// amortises its packing cost at a quarter of the portable kernel's
// problem volume.
func TestPackedCrossoverRearbitrates(t *testing.T) {
	if AsmAvailable() {
		prev := SetAsmEnabled(true)
		if got := packedCrossover(); got != packedThresholdAsm {
			t.Errorf("asm enabled: crossover %d, want packedThresholdAsm %d", got, packedThresholdAsm)
		}
		SetAsmEnabled(prev)
	}
	prev := SetAsmEnabled(false)
	if got := packedCrossover(); got != packedThreshold {
		t.Errorf("asm disabled: crossover %d, want packedThreshold %d", got, packedThreshold)
	}
	SetAsmEnabled(prev)
	if packedThresholdAsm >= packedThreshold {
		t.Errorf("asm crossover %d must sit below the portable one %d", packedThresholdAsm, packedThreshold)
	}
}

// edgeShapes builds the shape classes that exercise every microkernel
// path: single row/column, exact multiples of the register tile, one
// off either side of the tile, kc-panel boundaries, and a multi-tile
// interior. mr/nr/kc come from the active kernel so the same test is
// meaningful for any microkernel geometry.
func edgeShapes(mr, nr, kc int) [][3]int {
	ms := []int{1, mr - 1, mr, mr + 1, 2*mr + 3}
	ns := []int{1, nr - 1, nr, nr + 1, 2*nr + 3}
	ks := []int{1, 2, 7, kc - 1, kc, kc + 7}
	var shapes [][3]int
	for _, m := range ms {
		for _, n := range ns {
			for _, k := range ks {
				if m < 1 || n < 1 || k < 1 {
					continue
				}
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	// One shape spanning several macro-tiles in every dimension.
	shapes = append(shapes, [3]int{3*mr + 1, kc + 3, 3*nr + 2})
	return shapes
}

// riShape is one product of an RI-MP2 step on a water dimer or trimer
// (sto-3g): C is m×n with inner dimension k.
type riShape struct {
	m, n, k int
	tA, tB  Transpose
}

// riShapes are the skinny RI products the in-place panels are for: the
// flattened B·C_occ products of the exchange build (NN), YᵀY (TN), and a
// product with a transposed, packed B (NT).
var riShapes = []riShape{
	{8694, 15, 21, NoTrans, NoTrans},
	{8694, 21, 21, NoTrans, NoTrans},
	{21, 21, 6210, Trans, NoTrans},
	{3864, 10, 14, NoTrans, NoTrans},
	{6, 15, 6210, Trans, NoTrans},
	{414, 6, 6, NoTrans, Trans},
}

// operands returns random A and B of the orientations that make op(A)
// m×k and op(B) k×n.
func operands(rng *rand.Rand, m, n, k int, tA, tB Transpose) (a, b *Mat) {
	a = randMat(rng, m, k)
	if tA {
		a = randMat(rng, k, m)
	}
	b = randMat(rng, k, n)
	if tB {
		b = randMat(rng, n, k)
	}
	return a, b
}

// The assembly f64 microkernel must agree with the portable pure-Go
// microkernel to accumulated-rounding tolerance on every edge-shape
// class, orientation, and alpha/beta combination, and on the RI shapes.
// (Not bitwise: the asm kernel contracts multiply-add pairs through
// FMA, the portable kernel rounds each product.)
func TestAsmKernelMatchesPortableF64(t *testing.T) {
	if !forceAsm(t, true) {
		t.Skip("no assembly microkernel on this machine")
	}
	impl := activeKernel()
	rng := rand.New(rand.NewSource(11))
	check := func(m, k, n int, tA, tB Transpose, alpha, beta float64) {
		t.Helper()
		a, b := operands(rng, m, n, k, tA, tB)
		c0 := randMat(rng, m, n)

		got := c0.Clone()
		GemmKernel(KernelPacked, tA, tB, alpha, a, b, beta, got)

		SetAsmEnabled(false)
		want := c0.Clone()
		GemmKernel(KernelPacked, tA, tB, alpha, a, b, beta, want)
		SetAsmEnabled(true)

		tol := 1e-13 * float64(k+1)
		for i := range got.Data {
			if d := math.Abs(got.Data[i] - want.Data[i]); d > tol {
				t.Fatalf("m=%d k=%d n=%d tA=%v tB=%v α=%g β=%g: asm vs portable |Δ|=%g at %d",
					m, k, n, tA, tB, alpha, beta, d, i)
			}
		}
	}
	for _, s := range edgeShapes(impl.mr, impl.nr, impl.kc) {
		for _, tA := range []Transpose{NoTrans, Trans} {
			for _, tB := range []Transpose{NoTrans, Trans} {
				for _, ab := range [][2]float64{{1, 0}, {2.5, 0.5}, {-0.75, 1}} {
					check(s[0], s[1], s[2], tA, tB, ab[0], ab[1])
				}
			}
		}
	}
	for _, s := range riShapes {
		check(s.m, s.k, s.n, s.tA, s.tB, 1, 0)
	}
}

// Fuzz the pack→microkernel round trip: arbitrary shapes, orientations,
// β (including 0, the store path) and seeds through the packed engine
// must match the naive reference to rounding tolerance. m reaches 400
// with n ≤ 48, so the skinny regime, where full panels are read in
// place, is covered beside the edge-tile write-back,
// zero-padded panels, both packers and k beyond one kc panel.
func FuzzPackKernel(f *testing.F) {
	f.Add(uint16(1), uint8(1), uint16(1), uint8(0), uint8(1), int64(1))
	f.Add(uint16(6), uint8(8), uint16(3), uint8(0), uint8(0), int64(2))
	f.Add(uint16(7), uint8(9), uint16(33), uint8(3), uint8(2), int64(3))
	f.Add(uint16(13), uint8(40), uint16(17), uint8(1), uint8(3), int64(4))
	f.Add(uint16(399), uint8(15), uint16(21), uint8(0), uint8(0), int64(5))
	f.Add(uint16(21), uint8(21), uint16(290), uint8(2), uint8(0), int64(6))
	f.Fuzz(func(t *testing.T, mm uint16, nn uint8, kk uint16, orient, betaSel uint8, seed int64) {
		m := 1 + int(mm)%400
		n := 1 + int(nn)%48
		k := 1 + int(kk)%300
		tA, tB := Transpose(orient&1 != 0), Transpose(orient&2 != 0)
		beta := []float64{0, 0.6, 1, -2}[betaSel%4]
		rng := rand.New(rand.NewSource(seed))
		a, b := operands(rng, m, n, k, tA, tB)
		c0 := randMat(rng, m, n)

		want := c0.Clone()
		refGemm(tA, tB, 1.3, a, b, beta, want)
		got := c0.Clone()
		GemmKernel(KernelPacked, tA, tB, 1.3, a, b, beta, got)
		tol := 1e-12 * float64(k+1)
		for i := range got.Data {
			if d := math.Abs(got.Data[i] - want.Data[i]); !(d <= tol) {
				t.Fatalf("packed vs reference: m=%d k=%d n=%d tA=%v tB=%v β=%g |Δ|=%g", m, k, n, tA, tB, beta, d)
			}
		}
	})
}
