package linalg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTensor3SliceAliasing(t *testing.T) {
	tt := NewTensor3(3, 4, 5)
	tt.Set(1, 2, 3, 7.5)
	s := tt.Slice(1)
	if s.At(2, 3) != 7.5 {
		t.Fatal("slice view does not see tensor data")
	}
	s.Set(0, 0, -2)
	if tt.At(1, 0, 0) != -2 {
		t.Fatal("slice mutation must reach the tensor")
	}
	f := tt.Flatten()
	if f.Rows != 3 || f.Cols != 20 {
		t.Fatalf("flatten dims %dx%d", f.Rows, f.Cols)
	}
	if f.At(1, 0) != -2 {
		t.Fatal("flatten view mismatch")
	}
}

func TestTensor3CloneIndependent(t *testing.T) {
	a := NewTensor3(2, 2, 2)
	a.Set(0, 1, 1, 3)
	b := a.Clone()
	b.Set(0, 1, 1, 9)
	if a.At(0, 1, 1) != 3 {
		t.Fatal("clone aliases original")
	}
	b.Zero()
	if b.At(0, 1, 1) != 0 {
		t.Fatal("zero failed")
	}
}

// Property: applying a matrix across the flattened first index equals
// per-slice accumulation.
func TestQuickTensor3FlattenContraction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n1, n2, n3 := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		tt := NewTensor3(n1, n2, n3)
		for i := range tt.Data {
			tt.Data[i] = rng.NormFloat64()
		}
		m := randMat(rng, n1, n1)
		out := NewTensor3(n1, n2, n3)
		Gemm(NoTrans, NoTrans, 1, m, tt.Flatten(), 0, out.Flatten())
		// Reference: out_p = Σ_q m[p,q]·slice(q).
		for p := 0; p < n1; p++ {
			for i := 0; i < n2; i++ {
				for j := 0; j < n3; j++ {
					var s float64
					for q := 0; q < n1; q++ {
						s += m.At(p, q) * tt.At(q, i, j)
					}
					if d := s - out.At(p, i, j); d > 1e-10 || d < -1e-10 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTensor3TransposeBlocksInto(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := NewTensor3(3, 4, 5)
	for i := range src.Data {
		src.Data[i] = rng.NormFloat64()
	}
	dst := NewTensor3(3, 5, 4)
	for i := range dst.Data {
		dst.Data[i] = 99 // stale contents must be overwritten
	}
	src.TransposeBlocksInto(dst)
	for p := 0; p < 3; p++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < 5; j++ {
				if dst.At(p, j, i) != src.At(p, i, j) {
					t.Fatalf("dst(%d,%d,%d) = %g, want src(%d,%d,%d) = %g", p, j, i, dst.At(p, j, i), p, i, j, src.At(p, i, j))
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched destination dimensions did not panic")
		}
	}()
	src.TransposeBlocksInto(NewTensor3(3, 4, 5))
}
