package linalg

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// maxAbsDiff returns the largest absolute element difference.
func maxAbsDiff(a, b *Mat) float64 {
	var mx float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > mx {
			mx = d
		}
	}
	return mx
}

// Every engine must handle the degenerate shapes m/n/k ∈ {0, 1} for all
// variants, alpha ∈ {0, 1.3} and beta ∈ {0, 1, 0.5}, matching the
// reference kernel exactly.
func TestGemmEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kernels := []Kernel{KernelAuto, KernelStream, KernelPacked}
	for _, m := range []int{0, 1, 2} {
		for _, n := range []int{0, 1, 3} {
			for _, k := range []int{0, 1, 5} {
				for _, tA := range []Transpose{NoTrans, Trans} {
					for _, tB := range []Transpose{NoTrans, Trans} {
						a := randMat(rng, m, k)
						if tA {
							a = randMat(rng, k, m)
						}
						b := randMat(rng, k, n)
						if tB {
							b = randMat(rng, n, k)
						}
						for _, alpha := range []float64{0, 1.3} {
							for _, beta := range []float64{0, 1, 0.5} {
								c0 := randMat(rng, m, n)
								want := c0.Clone()
								refGemm(tA, tB, alpha, a, b, beta, want)
								for _, kern := range kernels {
									got := c0.Clone()
									GemmKernel(kern, tA, tB, alpha, a, b, beta, got)
									if d := maxAbsDiff(got, want); d > 1e-14 {
										t.Fatalf("kern=%v m=%d n=%d k=%d tA=%v tB=%v alpha=%g beta=%g: |Δ|=%g",
											kern, m, n, k, tA, tB, alpha, beta, d)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// beta=0 must overwrite (not scale) pre-existing NaN on the packed path
// too, mirroring TestGemmBetaZeroOverwritesNaN.
func TestGemmPackedBetaZeroOverwritesNaN(t *testing.T) {
	a := Identity(2)
	c := NewMat(2, 2)
	c.Set(0, 0, math.NaN())
	GemmKernel(KernelPacked, NoTrans, NoTrans, 1, a, a, 0, c)
	if math.IsNaN(c.At(0, 0)) {
		t.Fatal("beta=0 must overwrite, not scale, existing NaN")
	}
}

// Property: the packed engine agrees with the naive reference kernel to
// ≤ 1e-12 max-abs across random shapes, orientations and scalars. Shapes
// cross the micro-tile (mr/nr) and kc-panel (k > kc) boundaries of every
// installed kernel.
func TestGemmPackedMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(67)
		n := 1 + rng.Intn(67)
		k := 1 + rng.Intn(300) // > kcBlock exercised on ~15 % of draws
		tA := rng.Intn(2) == 1
		tB := rng.Intn(2) == 1
		alpha := []float64{1, -0.5, 2.25}[rng.Intn(3)]
		beta := []float64{0, 1, 0.5}[rng.Intn(3)]
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
		want := c0.Clone()
		GemmKernel(KernelPacked, Transpose(tA), Transpose(tB), alpha, a, b, beta, got)
		refGemm(Transpose(tA), Transpose(tB), alpha, a, b, beta, want)
		if d := maxAbsDiff(got, want); d > 1e-12 {
			t.Logf("seed=%d m=%d n=%d k=%d tA=%v tB=%v alpha=%g beta=%g: |Δ|=%g",
				seed, m, n, k, tA, tB, alpha, beta, d)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The packed engine's parallel tile-grid path must agree with the
// serial reference regardless of worker count. Run with -race this also
// proves the tile tasks write disjoint C elements.
func TestGemmPackedParallelMatchesSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // force the multi-worker path even on 1-CPU boxes
	defer runtime.GOMAXPROCS(prev)

	rng := rand.New(rand.NewSource(12))
	// Big enough to cross parallelThreshold with several macro-tiles,
	// with ragged edges in every dimension (relative to the active
	// kernel's blocking, whichever kernel that is).
	impl := activeKernel()
	m, k, n := 2*impl.mc+5, impl.kc+17, 2*impl.nc+3
	a := randMat(rng, m, k)
	b := randMat(rng, k, n)
	got := NewMat(m, n)
	GemmKernel(KernelPacked, NoTrans, NoTrans, 1, a, b, 0, got)

	want := NewMat(m, n)
	refGemm(NoTrans, NoTrans, 1, a, b, 0, want)
	if d := maxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("parallel packed vs reference: |Δ|=%g", d)
	}
}

// The streaming parallel path must agree too (regression guard for the
// row-range fan-out, kept for the small-shape engine).
func TestGemmStreamParallelMatchesSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	rng := rand.New(rand.NewSource(13))
	a := randMat(rng, 101, 103)
	b := randMat(rng, 103, 97)
	got := NewMat(101, 97)
	GemmKernel(KernelStream, NoTrans, NoTrans, 1, a, b, 0, got)
	want := NewMat(101, 97)
	refGemm(NoTrans, NoTrans, 1, a, b, 0, want)
	if d := maxAbsDiff(got, want); d > 1e-10 {
		t.Fatalf("parallel stream vs reference: |Δ|=%g", d)
	}
}

func TestKernelNames(t *testing.T) {
	if KernelAuto.String() != "auto" || KernelStream.String() != "stream" || KernelPacked.String() != "packed" {
		t.Fatal("kernel names wrong")
	}
}

// KernelAuto must route to the packed engine above the threshold and
// the streaming engine below it; both must produce the same numbers, so
// the only observable here is correctness at the crossover sizes.
func TestGemmAutoCrossover(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, dim := range []int{4, 31, 32, 33, 64} {
		a := randMat(rng, dim, dim)
		b := randMat(rng, dim, dim)
		got := NewMat(dim, dim)
		Gemm(NoTrans, NoTrans, 1, a, b, 0, got)
		want := NewMat(dim, dim)
		refGemm(NoTrans, NoTrans, 1, a, b, 0, want)
		if d := maxAbsDiff(got, want); d > 1e-12 {
			t.Fatalf("dim=%d: |Δ|=%g", dim, d)
		}
	}
}

// KernelAuto runs single-column products through the matrix–vector
// loops: every orientation, row lengths around the four-way unrolling,
// and alpha/beta handling against the reference.
func TestGemmAutoMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, tA := range []Transpose{NoTrans, Trans} {
		for _, tB := range []Transpose{NoTrans, Trans} {
			for _, k := range []int{1, 3, 4, 7, 64, 441} {
				m := 37
				a := randMat(rng, m, k)
				if tA {
					a = randMat(rng, k, m)
				}
				b := randMat(rng, k, 1)
				if tB {
					b = randMat(rng, 1, k)
				}
				got := randMat(rng, m, 1)
				want := got.Clone()
				Gemm(tA, tB, -1.5, a, b, 0.5, got)
				refGemm(tA, tB, -1.5, a, b, 0.5, want)
				if d := maxAbsDiff(got, want); d > 1e-12 {
					t.Fatalf("tA=%v tB=%v k=%d: |Δ|=%g", tA, tB, k, d)
				}
			}
		}
	}
}
