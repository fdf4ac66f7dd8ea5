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

// The assembly f64 microkernel must agree with the portable pure-Go
// microkernel to accumulated-rounding tolerance on every edge-shape
// class, orientation, and alpha/beta combination. (Not bitwise: the
// asm kernel contracts multiply-add pairs through FMA, the portable
// kernel rounds each product.)
func TestAsmKernelMatchesPortableF64(t *testing.T) {
	if !forceAsm(t, true) {
		t.Skip("no assembly microkernel on this machine")
	}
	impl := activeKernel()
	rng := rand.New(rand.NewSource(11))
	for _, s := range edgeShapes(impl.mr, impl.nr, impl.kc) {
		m, k, n := s[0], s[1], s[2]
		for _, tA := range []Transpose{NoTrans, Trans} {
			for _, tB := range []Transpose{NoTrans, Trans} {
				for _, ab := range [][2]float64{{1, 0}, {2.5, 0.5}, {-0.75, 1}} {
					a := randMat(rng, m, k)
					if tA {
						a = randMat(rng, k, m)
					}
					b := randMat(rng, k, n)
					if tB {
						b = randMat(rng, n, k)
					}
					c0 := randMat(rng, m, n)

					got := c0.Clone()
					GemmKernel(KernelPacked, tA, tB, ab[0], a, b, ab[1], got)

					SetAsmEnabled(false)
					want := c0.Clone()
					GemmKernel(KernelPacked, tA, tB, ab[0], a, b, ab[1], want)
					SetAsmEnabled(true)

					tol := 1e-13 * float64(k+1)
					for i := range got.Data {
						if d := math.Abs(got.Data[i] - want.Data[i]); d > tol {
							t.Fatalf("m=%d k=%d n=%d tA=%v tB=%v α=%g β=%g: asm vs portable |Δ|=%g at %d",
								m, k, n, tA, tB, ab[0], ab[1], d, i)
						}
					}
				}
			}
		}
	}
}

// Fuzz the pack→microkernel round trip: arbitrary small shapes and
// seeds through the packed engine must match the naive reference to
// rounding tolerance. Covers the edge-tile scratch write-back,
// zero-padded panels, and both packers.
func FuzzPackKernel(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), int64(1))
	f.Add(uint8(6), uint8(8), uint8(3), int64(2))
	f.Add(uint8(7), uint8(9), uint8(33), int64(3))
	f.Add(uint8(13), uint8(40), uint8(17), int64(4))
	f.Fuzz(func(t *testing.T, mm, nn, kk uint8, seed int64) {
		m := 1 + int(mm)%48
		n := 1 + int(nn)%48
		k := 1 + int(kk)%48
		rng := rand.New(rand.NewSource(seed))
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		c0 := randMat(rng, m, n)

		want := c0.Clone()
		refGemm(NoTrans, NoTrans, 1.3, a, b, 0.6, want)
		got := c0.Clone()
		GemmKernel(KernelPacked, NoTrans, NoTrans, 1.3, a, b, 0.6, got)
		tol := 1e-12 * float64(k+1)
		for i := range got.Data {
			if d := math.Abs(got.Data[i] - want.Data[i]); d > tol {
				t.Fatalf("packed vs reference: m=%d k=%d n=%d |Δ|=%g", m, k, n, d)
			}
		}
	})
}
