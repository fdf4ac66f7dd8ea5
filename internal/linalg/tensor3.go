package linalg

// Tensor3 is a dense rank-3 tensor stored contiguously with the first
// index slowest: element (p, i, j) lives at Data[(p*N2+i)*N3+j].
// It is the storage used for the RI three-index intermediates
// B^P_μν, B^P_ia and Γ^P_μν of the paper; the contiguous layout allows
// zero-copy matrix views so every contraction is a plain GEMM.
type Tensor3 struct {
	N1, N2, N3 int
	Data       []float64
}

// NewTensor3 allocates a zeroed n1×n2×n3 tensor.
func NewTensor3(n1, n2, n3 int) *Tensor3 {
	return &Tensor3{N1: n1, N2: n2, N3: n3, Data: make([]float64, n1*n2*n3)}
}

// At returns element (p, i, j).
func (t *Tensor3) At(p, i, j int) float64 { return t.Data[(p*t.N2+i)*t.N3+j] }

// Set assigns element (p, i, j).
func (t *Tensor3) Set(p, i, j int, v float64) { t.Data[(p*t.N2+i)*t.N3+j] = v }

// Add increments element (p, i, j) by v.
func (t *Tensor3) Add(p, i, j int, v float64) { t.Data[(p*t.N2+i)*t.N3+j] += v }

// Slice returns a zero-copy n2×n3 matrix view of block p. Mutating the
// view mutates the tensor.
func (t *Tensor3) Slice(p int) *Mat {
	off := p * t.N2 * t.N3
	return &Mat{Rows: t.N2, Cols: t.N3, Data: t.Data[off : off+t.N2*t.N3]}
}

// Span returns a zero-copy view of the leading-index blocks [lo, hi).
func (t *Tensor3) Span(lo, hi int) *Tensor3 {
	s := t.N2 * t.N3
	return &Tensor3{N1: hi - lo, N2: t.N2, N3: t.N3, Data: t.Data[lo*s : hi*s]}
}

// Flatten returns a zero-copy N1×(N2·N3) matrix view of the whole tensor,
// used to apply J^{-1/2} across the auxiliary index with one GEMM.
func (t *Tensor3) Flatten() *Mat {
	return &Mat{Rows: t.N1, Cols: t.N2 * t.N3, Data: t.Data}
}

// FlattenRows returns a zero-copy (N1·N2)×N3 matrix view of the tensor,
// used to transform the trailing index of every (p, i) row with one
// batched GEMM — the macro-tile shape of the DF/RI-MP2 AO→MO pipeline.
func (t *Tensor3) FlattenRows() *Mat {
	return &Mat{Rows: t.N1 * t.N2, Cols: t.N3, Data: t.Data}
}

// TransposeBlocksInto writes the N1×N3×N2 tensor with every leading-index
// block transposed into the caller-owned out (every element is
// overwritten): out(p, j, i) = t(p, i, j). It is the reorder between two
// batched GEMMs over FlattenRows views, e.g. of the AO→MO transform.
func (t *Tensor3) TransposeBlocksInto(out *Tensor3) {
	if out.N1 != t.N1 || out.N2 != t.N3 || out.N3 != t.N2 {
		panic("linalg: TransposeBlocksInto dimension mismatch")
	}
	n2, n3 := t.N2, t.N3
	for p := 0; p < t.N1; p++ {
		src := t.Data[p*n2*n3:][:n2*n3]
		dst := out.Data[p*n2*n3:][:n2*n3]
		// Four source rows at a time fill four adjacent elements of
		// every destination row.
		i := 0
		for ; i+4 <= n2; i += 4 {
			r0, r1, r2, r3 := src[i*n3:][:n3], src[(i+1)*n3:][:n3], src[(i+2)*n3:][:n3], src[(i+3)*n3:][:n3]
			for j := range r0 {
				d := dst[j*n2+i:][:4]
				d[0], d[1], d[2], d[3] = r0[j], r1[j], r2[j], r3[j]
			}
		}
		for ; i < n2; i++ {
			for j, v := range src[i*n3:][:n3] {
				dst[j*n2+i] = v
			}
		}
	}
}

// Clone returns a deep copy.
func (t *Tensor3) Clone() *Tensor3 {
	c := NewTensor3(t.N1, t.N2, t.N3)
	copy(c.Data, t.Data)
	return c
}

// Zero sets all elements to zero.
func (t *Tensor3) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}
