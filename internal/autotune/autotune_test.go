package autotune

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/fragmd/fragmd/internal/linalg"
)

func randMat(rng *rand.Rand, r, c int) *linalg.Mat {
	m := linalg.NewMat(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// The tuner must produce numerically identical results (up to rounding)
// to a direct Gemm call, for every logical orientation, at every stage of
// the trial sequence.
func TestTunerCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tu := New()
	for _, tA := range []linalg.Transpose{linalg.NoTrans, linalg.Trans} {
		for _, tB := range []linalg.Transpose{linalg.NoTrans, linalg.Trans} {
			m, k, n := 9, 14, 6
			var a, b *linalg.Mat
			if tA {
				a = randMat(rng, k, m)
			} else {
				a = randMat(rng, m, k)
			}
			if tB {
				b = randMat(rng, n, k)
			} else {
				b = randMat(rng, k, n)
			}
			// 8 calls: covers all trial phases plus locked phase.
			for call := 0; call < 8; call++ {
				got := randMat(rng, m, n)
				want := got.Clone()
				tu.Gemm(tA, tB, 1.5, a, b, 0.5, got)
				linalg.Gemm(tA, tB, 1.5, a, b, 0.5, want)
				for i := range got.Data {
					if math.Abs(got.Data[i]-want.Data[i]) > 1e-10 {
						t.Fatalf("tA=%v tB=%v call %d: mismatch", tA, tB, call)
					}
				}
			}
		}
	}
}

func TestTunerLocksAfterTrials(t *testing.T) {
	tu := New()
	rng := rand.New(rand.NewSource(2))
	a := randMat(rng, 20, 30)
	b := randMat(rng, 30, 10)
	c := linalg.NewMat(20, 10)
	for i := 0; i < numCandidates*trialsPerCandidate; i++ {
		tu.Gemm(linalg.NoTrans, linalg.NoTrans, 1, a, b, 0, c)
	}
	snap := tu.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("expected 1 shape, got %d", len(snap))
	}
	if !snap[0].Locked {
		t.Fatal("tuner should be locked after trialling all candidates")
	}
	// Every candidate (four streaming variants + packed) must have been
	// timed with a GFLOP/s figure.
	for v := 0; v < numCandidates; v++ {
		if snap[0].Seconds[v] == 0 {
			t.Fatalf("candidate %s never trialled", CandidateName(v))
		}
		if snap[0].GFLOPS[v] <= 0 {
			t.Fatalf("candidate %s has no GFLOP/s record", CandidateName(v))
		}
	}
	if name := snap[0].BestName(); name == "" {
		t.Fatal("empty best-candidate name")
	}
}

// The packed-engine candidate must be numerically interchangeable with
// the streaming candidates at every orientation — the tuner may pick it
// for any shape.
func TestTunerPackedCandidateCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tA := range []linalg.Transpose{linalg.NoTrans, linalg.Trans} {
		for _, tB := range []linalg.Transpose{linalg.NoTrans, linalg.Trans} {
			m, k, n := 13, 21, 9
			var a, b *linalg.Mat
			if tA {
				a = randMat(rng, k, m)
			} else {
				a = randMat(rng, m, k)
			}
			if tB {
				b = randMat(rng, n, k)
			} else {
				b = randMat(rng, k, n)
			}
			got := randMat(rng, m, n)
			want := got.Clone()
			runCandidate(candPacked, tA, tB, 1.25, a, b, 0.5, got)
			linalg.GemmKernel(linalg.KernelStream, tA, tB, 1.25, a, b, 0.5, want)
			for i := range got.Data {
				if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
					t.Fatalf("tA=%v tB=%v: packed candidate mismatch at %d", tA, tB, i)
				}
			}
		}
	}
}

func TestTunerDisabledPassThrough(t *testing.T) {
	tu := New()
	tu.Enabled = false
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 5, 5)
	b := randMat(rng, 5, 5)
	c := linalg.NewMat(5, 5)
	tu.Gemm(linalg.NoTrans, linalg.NoTrans, 1, a, b, 0, c)
	if len(tu.Snapshot()) != 0 {
		t.Fatal("disabled tuner must not record shapes")
	}
}

func TestTunerNilSafe(t *testing.T) {
	var tu *Tuner
	a := linalg.Identity(3)
	c := linalg.NewMat(3, 3)
	tu.Gemm(linalg.NoTrans, linalg.NoTrans, 1, a, a, 0, c) // must not panic
	if c.At(1, 1) != 1 {
		t.Fatal("nil tuner should still compute")
	}
}

func TestTunerConcurrentUse(t *testing.T) {
	tu := New()
	rng := rand.New(rand.NewSource(4))
	a := randMat(rng, 16, 16)
	b := randMat(rng, 16, 16)
	want := linalg.MatMul(linalg.NoTrans, linalg.NoTrans, a, b)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				c := linalg.NewMat(16, 16)
				tu.Gemm(linalg.NoTrans, linalg.NoTrans, 1, a, b, 0, c)
				for j := range c.Data {
					if math.Abs(c.Data[j]-want.Data[j]) > 1e-10 {
						t.Error("concurrent result mismatch")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// The process-wide tuner starts disabled and records no arbitration
// state until someone opts in.
func TestDefaultStartsDisabled(t *testing.T) {
	if Default.Enabled {
		t.Fatal("autotune.Default must start disabled")
	}
	a := linalg.Identity(4)
	c := linalg.NewMat(4, 4)
	Default.Gemm(linalg.NoTrans, linalg.NoTrans, 1, a, a, 0, c)
	if c.At(2, 2) != 1 || len(Default.Snapshot()) != 0 {
		t.Fatal("disabled Default must compute and record nothing")
	}
}
