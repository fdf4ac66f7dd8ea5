package integrals

import (
	"math"

	"github.com/fragmd/fragmd/internal/basis"
)

// The Hermite tables below are flat and reusable: fill overwrites the
// receiver in place and reallocates only when a larger angular momentum
// than any seen before arrives, so a kernel that keeps one table per
// goroutine allocates O(1) times however many primitives it visits.

// grow returns buf resliced to n elements, reallocating when it is too
// small. The contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// eTable holds the 1D Hermite expansion coefficients E_t^{ij} of a
// primitive Gaussian product for 0 ≤ i ≤ imax, 0 ≤ j ≤ jmax, 0 ≤ t ≤ i+j.
type eTable struct {
	data         []float64
	jdim, stride int // jmax+1, imax+jmax+1
}

// at returns E^{ij}_t for t = 0 … i+j.
func (e *eTable) at(i, j int) []float64 {
	off := (i*e.jdim + j) * e.stride
	return e.data[off : off+i+j+1]
}

// fill computes the Hermite expansion coefficients for exponents a, b
// and the 1D center separation ab = A−B via the standard MD transfer
// recurrences.
func (e *eTable) fill(imax, jmax int, a, b, ab float64) {
	p := a + b
	mu := a * b / p
	xpa := -b / p * ab // P − A
	xpb := a / p * ab  // P − B
	inv2p := 1 / (2 * p)

	e.jdim, e.stride = jmax+1, imax+jmax+1
	e.data = grow(e.data, (imax+1)*e.jdim*e.stride)
	e.at(0, 0)[0] = math.Exp(-mu * ab * ab)
	// Raise i with j = 0.
	for i := 0; i < imax; i++ {
		raise(e.at(i, 0), e.at(i+1, 0), inv2p, xpa)
	}
	// Raise j for every i.
	for i := 0; i <= imax; i++ {
		for j := 0; j < jmax; j++ {
			raise(e.at(i, j), e.at(i, j+1), inv2p, xpb)
		}
	}
}

// negateOdd folds the MD ket phase (−1)^t into every filled entry.
func (e *eTable) negateOdd() {
	for off := 0; off < len(e.data); off += e.stride {
		row := e.data[off : off+e.stride]
		for t := 1; t < len(row); t += 2 {
			row[t] = -row[t]
		}
	}
}

// raise applies one step of the transfer recurrence
// E_t^{n+1} = E_{t−1}^n/2p + X·E_t^n + (t+1)·E_{t+1}^n, len(dst) = len(src)+1.
func raise(src, dst []float64, inv2p, x float64) {
	n := len(src) - 1 // highest t in src
	for t := range dst {
		var v float64
		if t > 0 {
			v += inv2p * src[t-1]
		}
		if t <= n {
			v += x * src[t]
		}
		if t+1 <= n {
			v += float64(t+1) * src[t+1]
		}
		dst[t] = v
	}
}

// centerTables holds, for every primitive of every shell of a basis, the
// one-centre Hermite coefficients E_t^{i0} (0 ≤ t ≤ i ≤ L+extra) of a
// single Gaussian, in one backing array built once per integral call —
// the bra side of the two-centre kernels. (The ket side is folded into
// the run coefficients of auxRuns.)
type centerTables struct {
	data  []float64
	extra int
	off   []int // per shell: offset of its first primitive's table
}

func newCenterTables(set *basis.Set, extra int) *centerTables {
	ct := &centerTables{extra: extra, off: make([]int, len(set.Shells))}
	var total int
	for i := range set.Shells {
		sh := &set.Shells[i]
		ct.off[i] = total
		dim := sh.L + extra + 1
		total += len(sh.Exps) * dim * dim
	}
	ct.data = make([]float64, total)
	for i := range set.Shells {
		sh := &set.Shells[i]
		dim := sh.L + extra + 1
		for p, a := range sh.Exps {
			fillOneCentre(ct.data[ct.off[i]+p*dim*dim:][:dim*dim], dim, a)
		}
	}
	return ct
}

// fillOneCentre fills the dim×dim table tab with E_t^{i0} of one
// Gaussian of exponent a at tab[i·dim+t], 0 ≤ t ≤ i < dim.
func fillOneCentre(tab []float64, dim int, a float64) {
	tab[0] = 1
	for l := 0; l+1 < dim; l++ {
		raise(tab[l*dim:l*dim+l+1], tab[(l+1)*dim:(l+1)*dim+l+2], 1/(2*a), 0)
	}
}

// prim returns the table of primitive p of shell ish, whose angular
// momentum is l.
func (ct *centerTables) prim(ish, l, p int) centerTable {
	dim := l + ct.extra + 1
	return centerTable{ct.data[ct.off[ish]+p*dim*dim:][:dim*dim], dim}
}

// centerTable is one primitive's slice of a centerTables.
type centerTable struct {
	data []float64
	dim  int
}

// at returns E^{i0}_t for t = 0 … i.
func (c centerTable) at(i int) []float64 { return c.data[i*c.dim : i*c.dim+i+1] }

// rCube holds Hermite Coulomb integrals R⁰_{tuv} for t+u+v ≤ tmax in a
// flat cube of edge n = tmax+1: R⁰_{tuv} = val[(t·n+u)·n+v].
type rCube struct {
	n          int
	val, other []float64 // the finished level and the ping-pong partner
	boys       []float64
}

// fill evaluates R⁰_{tuv}(α, Δ) for t+u+v ≤ tmax where Δ = P−Q.
// Levels m = tmax … 0 are built downward; level m only needs entries
// with t+u+v ≤ tmax−m.
func (r *rCube) fill(tmax int, alpha float64, dx, dy, dz float64) {
	n := tmax + 1
	r.n = n
	r.boys = grow(r.boys, n)
	r.val = grow(r.val, n*n*n)
	r.other = grow(r.other, n*n*n)
	f := r.boys
	boys(tmax, alpha*(dx*dx+dy*dy+dz*dz), f)
	// f[m] ← (−2α)^m·F_m, the R^m_{000} seeds.
	pw := 1.0
	for m := range f {
		f[m] *= pw
		pw *= -2 * alpha
	}

	cur, prev := r.val, r.other
	for m := tmax; m >= 0; m-- {
		lim := tmax - m
		cur[0] = f[m]
		for v := 1; v <= lim; v++ {
			val := dz * prev[v-1]
			if v >= 2 {
				val += float64(v-1) * prev[v-2]
			}
			cur[v] = val
		}
		for u := 1; u <= lim; u++ {
			for v := 0; v <= lim-u; v++ {
				val := dy * prev[(u-1)*n+v]
				if u >= 2 {
					val += float64(u-1) * prev[(u-2)*n+v]
				}
				cur[u*n+v] = val
			}
		}
		for t := 1; t <= lim; t++ {
			for u := 0; u <= lim-t; u++ {
				for v := 0; v <= lim-t-u; v++ {
					val := dx * prev[((t-1)*n+u)*n+v]
					if t >= 2 {
						val += float64(t-1) * prev[((t-2)*n+u)*n+v]
					}
					cur[(t*n+u)*n+v] = val
				}
			}
		}
		cur, prev = prev, cur
	}
	r.val, r.other = prev, cur
}
