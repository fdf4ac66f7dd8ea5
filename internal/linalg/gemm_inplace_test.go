package linalg

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// inPlaceCases calls f on every edge shape × orientation × (α, β) of
// the active kernel and on the RI shapes, the cases that reach the
// strided kernel's in-place panels and its β = 0 store.
func inPlaceCases(f func(m, k, n int, tA, tB Transpose, alpha, beta float64)) {
	impl := activeKernel()
	for _, s := range edgeShapes(impl.mr, impl.nr, impl.kc) {
		for _, tA := range []Transpose{NoTrans, Trans} {
			for _, tB := range []Transpose{NoTrans, Trans} {
				for _, ab := range [][2]float64{{1, 0}, {2.5, 0.5}, {-0.75, 1}} {
					f(s[0], s[1], s[2], tA, tB, ab[0], ab[1])
				}
			}
		}
	}
	for _, s := range riShapes {
		for _, ab := range [][2]float64{{1, 0}, {-0.75, 1}} {
			f(s.m, s.k, s.n, s.tA, s.tB, ab[0], ab[1])
		}
	}
}

// Reading full panels in place and storing under β = 0 must change no
// bit of the result: the kernel sees the same values in the same order
// as from packed panels onto a cleared C. Checked against forced
// packing at one and four workers.
func TestInPlacePanelsMatchPacked(t *testing.T) {
	if !forceAsm(t, true) {
		t.Skip("no assembly microkernel on this machine")
	}
	if activeKernel().strided == nil {
		t.Skip("active kernel reads packed panels only")
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		rng := rand.New(rand.NewSource(int64(procs)))
		inPlaceCases(func(m, k, n int, tA, tB Transpose, alpha, beta float64) {
			a, b := operands(rng, m, n, k, tA, tB)
			c0 := randMat(rng, m, n)
			got := c0.Clone()
			GemmKernel(KernelPacked, tA, tB, alpha, a, b, beta, got)
			forcePacking = true
			want := c0.Clone()
			GemmKernel(KernelPacked, tA, tB, alpha, a, b, beta, want)
			forcePacking = false
			for i := range got.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("GOMAXPROCS=%d m=%d k=%d n=%d tA=%v tB=%v α=%g β=%g: in place %v, packed %v at %d",
						procs, m, k, n, tA, tB, alpha, beta, got.Data[i], want.Data[i], i)
				}
			}
		})
		runtime.GOMAXPROCS(prev)
	}
}

// guarded returns an r×c matrix whose Data is a window of a NaN-filled
// backing array, with as many NaNs again before and after it, and the
// backing array itself. Under β = 0 the window is left NaN too.
func guarded(rng *rand.Rand, r, c int, fill bool) (*Mat, []float64) {
	g := r*c + 64
	back := make([]float64, g+r*c+g)
	for i := range back {
		back[i] = math.NaN()
	}
	m := &Mat{Rows: r, Cols: c, Data: back[g : g+r*c : g+r*c]}
	if fill {
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m, back
}

// No kernel may read outside its operands or write outside C. A, B and
// C sit inside NaN guard bands, so a stray read poisons C (which must
// then match the reference) and a stray write replaces a guard NaN.
// C starts NaN under β = 0, which the store must overwrite.
func TestInPlacePanelsStayInsideOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inPlaceCases(func(m, k, n int, tA, tB Transpose, alpha, beta float64) {
		ar, ac, br, bc := m, k, k, n
		if tA {
			ar, ac = k, m
		}
		if tB {
			br, bc = n, k
		}
		a, _ := guarded(rng, ar, ac, true)
		b, _ := guarded(rng, br, bc, true)
		c, back := guarded(rng, m, n, beta != 0)
		want := NewMat(m, n)
		if beta != 0 {
			want.CopyFrom(c)
		}
		refGemm(tA, tB, alpha, a, b, beta, want)
		GemmKernel(KernelPacked, tA, tB, alpha, a, b, beta, c)
		tol := 1e-12 * float64(k+1)
		for i, v := range c.Data {
			if d := math.Abs(v - want.Data[i]); !(d <= tol) {
				t.Fatalf("m=%d k=%d n=%d tA=%v tB=%v α=%g β=%g: got %v, want %v at %d",
					m, k, n, tA, tB, alpha, beta, v, want.Data[i], i)
			}
		}
		g := len(back) - len(c.Data)
		for i, v := range back {
			if (i < g/2 || i >= g/2+len(c.Data)) && !math.IsNaN(v) {
				t.Fatalf("m=%d k=%d n=%d tA=%v tB=%v: write outside C at backing index %d", m, k, n, tA, tB, i)
			}
		}
	})
}
