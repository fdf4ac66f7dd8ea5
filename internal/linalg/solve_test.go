package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 7, 25} {
		m := randMat(rng, n, n)
		a := MatMul(NoTrans, Trans, m, m)
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		llt := MatMul(NoTrans, Trans, l, l)
		matsClose(t, llt, a, 1e-9)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatFrom(2, 2, []float64{1, 0, 0, -1})
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}

func TestLUSolveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := randMat(rng, n, n)
		for i := 0; i < n; i++ {
			a.Add(i, i, 5) // keep well-conditioned
		}
		x0 := randMat(rng, n, 2)
		b := MatMul(NoTrans, NoTrans, a, x0)
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range x.Data {
			if math.Abs(x.Data[i]-x0.Data[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Solving against the identity returns the inverse.
func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 9
	a := randMat(rng, n, n)
	for i := 0; i < n; i++ {
		a.Add(i, i, 4)
	}
	inv, err := Solve(a, Identity(n))
	if err != nil {
		t.Fatal(err)
	}
	prod := MatMul(NoTrans, NoTrans, a, inv)
	matsClose(t, prod, Identity(n), 1e-9)
}

func TestSolveSingular(t *testing.T) {
	a := NewMat(3, 3) // all zero
	if _, err := Solve(a, Identity(3)); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestMatBasics(t *testing.T) {
	a := NewMatFrom(2, 2, []float64{1, 2, 3, 4})
	if a.Trace() != 5 {
		t.Error("trace")
	}
	at := a.T()
	if at.At(0, 1) != 3 {
		t.Error("transpose")
	}
	b := a.Clone()
	b.Scale(2)
	if a.At(0, 0) != 1 || b.At(0, 0) != 2 {
		t.Error("clone/scale aliasing")
	}
	b.AxpyMat(-2, a)
	if b.MaxAbs() != 0 {
		t.Error("axpy")
	}
	if math.Abs(Dot(a, a)-30) > 1e-14 {
		t.Error("dot")
	}
	if math.Abs(a.FrobeniusNorm()-math.Sqrt(30)) > 1e-14 {
		t.Error("frobenius")
	}
}
