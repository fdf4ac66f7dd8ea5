package integrals

import "github.com/fragmd/fragmd/internal/basis"

// The two- and three-centre kernels visit the auxiliary basis one run at
// a time. A run is a maximal stretch of consecutive auxiliary shells on
// one centre with one angular momentum — basis.BuildAux lays every
// (atom, L) out as one run of 10/8/6/4 single-primitive shells that
// differ only in exponent — and its members are the primitives of its
// shells in shell order. For one bra primitive pair (or one bra
// auxiliary primitive) the members share Δ = P − C, so their K R cubes
// are built in one downward recursion with the member index innermost
// (rRun), folded with the run's stacked one-centre ket tables in one
// pass (foldRun), and the bra Hermite → Cartesian step runs over the
// stacked columns: hermiteAxpy over nk·K columns in value mode. In
// derivative mode weightRun contracts the nk·K columns with the weights
// into one Hermite cube per bra component pair, summed over the runs of
// an auxiliary atom, and axisSumsRun and dotRun take the bra step once
// per cube.
//
// In value mode every stacked loop runs over the independent member
// index and keeps each output element's operands and summation order,
// so the values are bit-identical to evaluating one member at a time.
// The two derivative kernels (ThreeCenterDeriv, TwoCenterDeriv) sum over
// members, runs and components first, and are held to 1e-12 of the
// largest gradient component of that visit instead.
//
// They are the package's only R-cube recursion and bra Hermite step: the
// four-centre kernels (fourCenterBlock) and the nuclear and point-charge
// kernels (coulombPair) run them at one member, K = 1.

// ketFold is the fold pattern of one auxiliary angular momentum: per
// Cartesian component K the Hermite indices (t, u, v) ≤ (K_x, K_y, K_z)
// of the parity of K — the non-zero entries of a one-centre product
// E^{K_x 0}_t·E^{K_y 0}_u·E^{K_z 0}_v — component-major, t outermost.
type ketFold struct {
	idx [][3]int
	end []int // per component: one past its last entry of idx
}

var ketFolds = func() (f [len(cartCache)]ketFold) {
	for l := range f {
		for _, K := range cart(l) {
			for t := K[0] & 1; t <= K[0]; t += 2 {
				for u := K[1] & 1; u <= K[1]; u += 2 {
					for v := K[2] & 1; v <= K[2]; v += 2 {
						f[l].idx = append(f[l].idx, [3]int{t, u, v})
					}
				}
			}
			f[l].end = append(f[l].end, len(f[l].idx))
		}
	}
	return f
}()

// auxRuns is the run layout of an auxiliary basis with every member's
// ket fold coefficients, built once per integral call: primitive p of
// shell s folds its R cube with kc[kc0[s]+p·nt:][:nt], nt =
// len(ketFolds[L].idx), entry j being (E_t·E_u)·E_v at ketFolds[L].idx[j]
// with the MD ket phase (−1)^{t+u+v} folded into each factor.
type auxRuns struct {
	set   *basis.Set
	runs  [][2]int // shells [lo, hi) of each run
	runOf []int    // per shell: its run
	kc0   []int    // per shell
	kc    []float64
	nmem  int // members over all runs
	ncc   int // Cartesian contraction coefficients over all members
}

func newAuxRuns(aux *basis.Set) *auxRuns {
	ns := len(aux.Shells)
	ar := &auxRuns{set: aux, runOf: make([]int, ns), kc0: make([]int, ns)}
	var nruns, nkc int
	for i := range aux.Shells {
		sh := &aux.Shells[i]
		if prev := &aux.Shells[max(i-1, 0)]; i == 0 || sh.Atom != prev.Atom || sh.L != prev.L || sh.Center != prev.Center {
			nruns++
		}
		ar.runOf[i] = nruns - 1
		ar.kc0[i] = nkc
		nkc += len(sh.Exps) * len(ketFolds[sh.L].idx)
		ar.nmem += len(sh.Exps)
		ar.ncc += len(sh.Exps) * sh.NCart()
	}
	ar.runs, ar.kc = make([][2]int, nruns), make([]float64, nkc)
	var tab [len(cartCache) * len(cartCache)]float64
	for i := range aux.Shells {
		sh := &aux.Shells[i]
		run := &ar.runs[ar.runOf[i]]
		if run[1] == 0 {
			run[0] = i
		}
		run[1] = i + 1
		f, dim := &ketFolds[sh.L], sh.L+1
		nt := len(f.idx)
		for p, c := range sh.Exps {
			e := tab[:dim*dim]
			fillOneCentre(e, dim, c)
			dst := ar.kc[ar.kc0[i]+p*nt:][:nt]
			j := 0
			for ck, K := range cart(sh.L) {
				for ; j < f.end[ck]; j++ {
					tuv := f.idx[j]
					dst[j] = ketEntry(e, dim, K[0], tuv[0]) * ketEntry(e, dim, K[1], tuv[1]) * ketEntry(e, dim, K[2], tuv[2])
				}
			}
		}
	}
	return ar
}

// ketEntry is the ket table entry E_t^{i0}·(−1)^t of the one-centre
// table e of edge dim.
func ketEntry(e []float64, dim, i, t int) float64 {
	if t&1 == 1 {
		return -e[i*dim+t]
	}
	return e[i*dim+t]
}

// runMembers returns the number of members of run i.
func (ar *auxRuns) runMembers(i int) int {
	var k int
	for s := ar.runs[i][0]; s < ar.runs[i][1]; s++ {
		k += len(ar.set.Shells[s].Exps)
	}
	return k
}

// runBatch is the live members of one run, gathered into the member
// lists of a runScratch: members [lo, hi), whose stacked ket fold
// coefficients are kc[off+j·K+k] and Cartesian contraction coefficients
// cc[cc+ck·K+k].
type runBatch struct {
	l, atom int
	center  [3]float64
	lo, hi  int
	off, cc int
}

// runScratch is the part of an eriScratch the run-batched kernels use,
// sized once per chunk by reserveRuns.
type runScratch struct {
	r           rRun
	batches     []runBatch
	shell, prim []int     // per gathered member: its aux shell and primitive
	kc, cc      []float64 // stacked ket fold and contraction coefficients of the batches
	alpha, pre  []float64 // per member of the current batch
	off         []int     // R offsets of the current fold pattern
	wk          []float64 // derivative mode: stacked member weights
	gw, cube    []float64 // weighted cubes: one (four-centre), summed (two-, three-centre)
	h, s, dv    []float64 // axisSumsRun sums, derivatives
}

// reserveRuns sizes the run buffers of sc — the derivative ones only
// with deriv — for bra Hermite degrees up to lbra against any run of ar,
// so that a chunk allocates each of them once whatever shells and
// primitives it visits.
func (sc *eriScratch) reserveRuns(ar *auxRuns, lbra int, deriv bool) {
	rs := &sc.run
	nb := lbra + 1
	var maxK, maxN, nr, ncol, nt int
	for i, run := range ar.runs {
		K, l := ar.runMembers(i), ar.set.Shells[run[0]].L
		n := lbra + l + 1
		maxK, maxN = max(maxK, K), max(maxN, n)
		nr = max(nr, n*n*n*K)
		ncol = max(ncol, len(cart(l))*K)
		nt = max(nt, len(ketFolds[l].idx))
	}
	rs.shell, rs.prim = make([]int, 0, ar.nmem), make([]int, 0, ar.nmem)
	rs.kc, rs.cc = make([]float64, 0, len(ar.kc)), make([]float64, 0, ar.ncc)
	rs.batches = make([]runBatch, 0, len(ar.runs))
	rs.alpha, rs.pre = make([]float64, maxK), make([]float64, maxK)
	rs.r.seed, rs.r.val, rs.r.other = make([]float64, maxN*maxK), make([]float64, nr), make([]float64, nr)
	rs.off = make([]int, nt)
	sc.g, sc.acc = make([]float64, nb*nb*nb*ncol), make([]float64, ncol)
	if deriv {
		rs.wk = make([]float64, ncol)
		rs.h, rs.s = make([]float64, 3*(nb+1)), make([]float64, (nb+1)*(nb+1))
		rs.dv = make([]float64, 7)
	}
}

// reset empties the member lists.
func (rs *runScratch) reset() {
	rs.batches, rs.shell, rs.prim, rs.kc, rs.cc = rs.batches[:0], rs.shell[:0], rs.prim[:0], rs.kc[:0], rs.cc[:0]
}

// gather appends a batch of the members of shells [lo, hi) of one run
// whose live entry is set (every one for live nil), if there are any.
func (rs *runScratch) gather(ar *auxRuns, lo, hi int, live []bool) {
	m0 := len(rs.shell)
	for s := lo; s < hi; s++ {
		if live != nil && !live[s] {
			continue
		}
		for p := range ar.set.Shells[s].Exps {
			rs.shell = append(rs.shell, s)
			rs.prim = append(rs.prim, p)
		}
	}
	K := len(rs.shell) - m0
	if K == 0 {
		return
	}
	sh := &ar.set.Shells[rs.shell[m0]]
	bt := runBatch{l: sh.L, atom: sh.Atom, center: sh.Center, lo: m0, hi: m0 + K, off: len(rs.kc), cc: len(rs.cc)}
	nt, nk := len(ketFolds[sh.L].idx), sh.NCart()
	rs.kc, rs.cc = rs.kc[:bt.off+nt*K], rs.cc[:bt.cc+nk*K]
	kc, cc := rs.kc[bt.off:], rs.cc[bt.cc:]
	for k, s := range rs.shell[m0:] {
		p := rs.prim[m0+k]
		for j, c := range ar.kc[ar.kc0[s]+p*nt:][:nt] {
			kc[j*K+k] = c
		}
		for ck, c := range ar.set.Shells[s].Coefs {
			cc[ck*K+k] = c[p]
		}
	}
	rs.batches = append(rs.batches, bt)
}

// rRun holds the R cubes R⁰_{tuv} of the K members of a run for
// t+u+v ≤ tmax, interleaved: member k's at val[((t·n+u)·n+v)·K + k],
// n = tmax+1.
type rRun struct {
	n          int
	val, other []float64
	seed       []float64 // the Boys seeds, [m·K + k]
	f          [boysMaxM + 1]float64
}

// fill evaluates the Hermite Coulomb integrals R⁰_{tuv}(α_k, Δ),
// t+u+v ≤ tmax, of every exponent α_k of alphas at one Δ = P − C: one
// downward recursion over levels m = tmax … 0 of the stacked cubes (level
// m needs only t+u+v ≤ tmax−m), each member with its own Boys seeds
// R^m_{000} = (−2α_k)^m·F_m(α_k|Δ|²) — times scales[k] with scales
// non-nil, which scales member k's whole cube. For fixed (t, u) the
// entries over v are contiguous, so each step of the recursion off the v
// axis is one loop over (lim−t−u+1)·K elements.
func (r *rRun) fill(tmax int, alphas, scales []float64, dx, dy, dz float64) {
	n, K := tmax+1, len(alphas)
	r.n = n
	f := r.f[:n]
	r.seed = grow(r.seed, n*K)
	r.val = grow(r.val, n*n*n*K)
	r.other = grow(r.other, n*n*n*K)
	r2 := dx*dx + dy*dy + dz*dz
	for k, alpha := range alphas {
		boys(tmax, alpha*r2, f)
		pw := 1.0
		if scales != nil {
			pw = scales[k]
		}
		for m, fm := range f {
			r.seed[m*K+k] = fm * pw
			pw *= -2 * alpha
		}
	}

	cur, prev := r.val, r.other
	for m := tmax; m >= 0; m-- {
		lim := tmax - m
		for k, f := range r.seed[m*K:][:K] {
			cur[k] = f
		}
		// t = u = 0: each v is a stretch of only K entries, stepped
		// element by element rather than as a row of its own.
		for v := 1; v <= lim; v++ {
			c := float64(v - 1)
			for i := v * K; i < (v+1)*K; i++ {
				val := dz * prev[i-K]
				if v >= 2 {
					val += c * prev[i-2*K]
				}
				cur[i] = val
			}
		}
		for u := 1; u <= lim; u++ {
			var p2 []float64
			if u >= 2 {
				p2 = prev[(u-2)*n*K:]
			}
			rStep(cur[u*n*K:][:(lim-u+1)*K], prev[(u-1)*n*K:], p2, dy, float64(u-1))
		}
		for t := 1; t <= lim; t++ {
			for u := 0; u <= lim-t; u++ {
				var p2 []float64
				if t >= 2 {
					p2 = prev[((t-2)*n+u)*n*K:]
				}
				rStep(cur[(t*n+u)*n*K:][:(lim-t-u+1)*K], prev[((t-1)*n+u)*n*K:], p2, dx, float64(t-1))
			}
		}
		cur, prev = prev, cur
	}
	r.val, r.other = prev, cur
}

// rStep is one recursion step over a contiguous stretch of stacked
// entries: dst = x·p1 + c·p2, or x·p1 where there is no p2 (c = 0).
func rStep(dst, p1, p2 []float64, x, c float64) {
	p1 = p1[:len(dst)]
	if p2 == nil {
		for k := range dst {
			dst[k] = x * p1[k]
		}
		return
	}
	p2 = p2[:len(dst)]
	for k := range dst {
		dst[k] = x*p1[k] + c*p2[k]
	}
}

// foldRun is contractKet for every member of bt at once: it folds the
// stacked R cubes with the stacked ket tables into
//
//	g[((t·nb+u)·nb+v)·nk·K + ck·K + k] = Σ_j kc[j·K+k]·R_k[t+t_j, u+u_j, v+v_j]
//
// over the entries j of component ck's fold pattern, for t+u+v ≤ lbra,
// in sc.g. An s run folds nothing: its g is the R cubes, edge nb.
func (sc *eriScratch) foldRun(lbra int, bt *runBatch) []float64 {
	rs := &sc.run
	if bt.l == 0 {
		return rs.r.val
	}
	K := bt.hi - bt.lo
	f := &ketFolds[bt.l]
	nb, nk, n := lbra+1, len(f.end), rs.r.n
	rs.off = grow(rs.off, len(f.idx))
	for j, tuv := range f.idx {
		rs.off[j] = ((tuv[0]*n+tuv[1])*n + tuv[2]) * K
	}
	sc.g = grow(sc.g, nb*nb*nb*nk*K)
	kc, r := rs.kc[bt.off:][:len(f.idx)*K], rs.r.val
	for t := 0; t <= lbra; t++ {
		for u := 0; u <= lbra-t; u++ {
			for v := 0; v <= lbra-t-u; v++ {
				base := ((t*n+u)*n + v) * K
				gh := sc.g[((t*nb+u)*nb+v)*nk*K:][:nk*K]
				j := 0
				for ck, end := range f.end {
					acc := gh[ck*K:][:K]
					clear(acc)
					for ; j < end; j++ {
						c, x := kc[j*K:][:K], r[base+rs.off[j]:][:K]
						for k := range acc {
							acc[k] += c[k] * x[k]
						}
					}
				}
			}
		}
	}
	return sc.g
}

// simplexH lists, per bra Hermite degree lbra, the cube indices
// (t·nb+u)·nb+v, nb = lbra+1, of t+u+v ≤ lbra in (t, u, v) order.
var simplexH = func() (s [2*len(cartCache) + 1][]int) {
	for l := range s {
		nb := l + 1
		for t := 0; t <= l; t++ {
			for u := 0; u <= l-t; u++ {
				for v := 0; v <= l-t-u; v++ {
					s[l] = append(s[l], (t*nb+u)*nb+v)
				}
			}
		}
	}
	return s
}()

// weightRun adds the folded cubes g, contracted over their n stacked
// columns with each of the nw weight rows w[i·ws:][:n], to the cubes
// dst[i·nb³:]: dst_i[h] += Σ_j w_i[j]·g[h·n + j] for t+u+v ≤ lbra, each
// sum from zero in j order. Four entries h share each pass over a row
// as four independent sums: one sum at a time waits on its own adds,
// and this is the derivative kernels' largest loop.
func weightRun(lbra int, g []float64, n int, w []float64, ws, nw int, dst []float64) {
	n3, hs := (lbra+1)*(lbra+1)*(lbra+1), simplexH[lbra]
	for i := 0; i < nw; i++ {
		wi, di := w[i*ws:][:n], dst[i*n3:][:n3]
		q := 0
		for ; q+4 <= len(hs); q += 4 {
			h0, h1, h2, h3 := hs[q], hs[q+1], hs[q+2], hs[q+3]
			x0, x1, x2, x3 := g[h0*n:][:n], g[h1*n:][:n], g[h2*n:][:n], g[h3*n:][:n]
			var s0, s1, s2, s3 float64
			for j, wj := range wi {
				s0 += wj * x0[j]
				s1 += wj * x1[j]
				s2 += wj * x2[j]
				s3 += wj * x3[j]
			}
			di[h0] += s0
			di[h1] += s1
			di[h2] += s2
			di[h3] += s3
		}
		for _, h := range hs[q:] {
			var sum float64
			for j, x := range g[h*n:][:n] {
				sum += wi[j] * x
			}
			di[h] += sum
		}
	}
}

// dotRun is a 1D dot for every member at once: dst[k] = Σ_i x[i]·y[i·K+k]
// from zero in i order, K = len(dst).
func dotRun(dst, x, y []float64) {
	K := len(dst)
	clear(dst)
	for i, xi := range x {
		for k, v := range y[i*K:][:K] {
			dst[k] += xi * v
		}
	}
}

// axisSumsRun contracts each of the K stacked weighted cubes gw over two
// axes at a time with the bra tables e of those axes:
//
//	h[0][t·K+k] = Σ_uv e[1][u]·e[2][v]·gw[(t,u,v)·K+k],  t ≤ len(e[0]),
//
// and likewise h[1], h[2]. Each sum is one entry longer than its own
// table, so every raise/lower term of a bra derivative — the value with
// one axis's table replaced — is a 1D dot with it (derivRun). The
// indices read stay inside t+u+v ≤ Σ len(e) − 2, the simplex weightRun
// and foldRun fill.
func (rs *runScratch) axisSumsRun(e *[3][]float64, gw []float64, nb, K int) (h [3][]float64) {
	ex, ey, ez := e[0], e[1], e[2]
	nx, ny, nz := len(ex), len(ey), len(ez)
	rs.h = grow(rs.h, (nx+ny+nz+3)*K)
	h[0], h[1], h[2] = rs.h[:(nx+1)*K], rs.h[(nx+1)*K:(nx+ny+2)*K], rs.h[(nx+ny+2)*K:]
	// s[t,u] = Σ_v ez[v]·gw[t,u,v] on the (nx+1)×(ny+1) box but its corner.
	rs.s = grow(rs.s, (nx+1)*(ny+1)*K)
	s := rs.s
	for t := 0; t <= nx; t++ {
		for u := 0; u <= ny && t+u < nx+ny; u++ {
			dotRun(s[(t*(ny+1)+u)*K:][:K], ez, gw[(t*nb+u)*nb*K:])
		}
	}
	for t := 0; t <= nx; t++ {
		dotRun(h[0][t*K:][:K], ey, s[t*(ny+1)*K:])
	}
	for u := 0; u <= ny; u++ {
		dst := h[1][u*K:][:K]
		clear(dst)
		for t, et := range ex {
			for k, v := range s[(t*(ny+1)+u)*K:][:K] {
				dst[k] += et * v
			}
		}
	}
	clear(h[2])
	for t, et := range ex {
		for u, eu := range ey {
			etu := et * eu
			for i, x := range gw[(t*nb+u)*nb*K:][:(nz+1)*K] {
				h[2][i] += etu * x
			}
		}
	}
	return h
}

// derivRun is the bra component's derivative with respect to centre c,
// whose exponent is a, by ∂/∂C x^i = 2a·x^{i+1} − i·x^{i−1}, for every
// member at once: dv[d·K+k] = 2a·(up·h[d])_k − n·(dn·h[d])_k along axis
// d, h being axisSumsRun of the weighted cubes; tmp holds K values.
func (bc *braComp) derivRun(c int, a float64, h *[3][]float64, dv, tmp []float64) {
	K, a2 := len(tmp), 2*a
	for d := 0; d < 3; d++ {
		out := dv[d*K:][:K]
		dotRun(out, bc.up[c][d], h[d])
		if bc.dn[c][d] == nil {
			// The lowered term is n·0 = +0 here, whose subtraction
			// changes no bit.
			for k, v := range out {
				out[k] = a2 * v
			}
			continue
		}
		dotRun(tmp, bc.dn[c][d], h[d])
		n := bc.n[c][d]
		for k, v := range tmp {
			out[k] = a2*out[k] - n*v
		}
	}
}
