package lp

import "math"

// This file holds the production basis inverse of the simplex
// (sparse.go): an LU factorization computed by column-singleton
// peeling plus a dense partial-pivoting kernel on the irreducible
// "bump", and a product-form eta file that absorbs basis exchanges
// between refactorizations.
//
// The factorization works in *position space*: rows and basis slots are
// permuted so that P·B·Q = L·U with L unit lower triangular and U upper
// triangular. Master-problem bases are dominated by slack/artificial
// unit columns and activation columns touching ≤ 2·|L| rows, so the
// peel typically consumes nearly everything and the bump stays tiny —
// the dense kernel is a fallback, not the common path.

// luInverse is the production basisInverse: the live LU factors, a
// spare that factorize fills and swaps in only on success (so a failed
// refactorization leaves the old factors and etas in use), and the eta
// file of the exchanges since the last factorization.
type luInverse struct {
	lu, spare luFactor
	etas      etaFile
}

func (v *luInverse) factorize(m int, colPtr, rowIdx []int, val []float64) bool {
	if !v.spare.factorize(m, colPtr, rowIdx, val) {
		return false
	}
	v.lu, v.spare = v.spare, v.lu
	v.etas.reset()
	return true
}

// ftran: LU solve, then etas oldest to newest.
func (v *luInverse) ftran(x []float64) {
	v.lu.ftran(x)
	v.etas.applyFtran(x)
}

// btran: etas newest to oldest, then the transposed LU solve.
func (v *luInverse) btran(x []float64) {
	v.etas.applyBtran(x)
	v.lu.btran(x)
}

func (v *luInverse) update(r int, d []float64) { v.etas.push(r, d) }

// fillRatio is nnz(L+U) / nnz(B) of the last factorization.
func (v *luInverse) fillRatio() float64 {
	if v.lu.nnzBasis == 0 {
		return 0
	}
	return float64(v.lu.nnzFactor) / float64(v.lu.nnzBasis)
}

// luFactor is one LU factorization of a basis matrix. All slices are
// reused across refactorizations; factorize never allocates at steady
// state (same dimensions, similar fill).
type luFactor struct {
	m int

	// Permutations. rowOfPos/posOfRow map between original row indices
	// and elimination positions; colOfPos/posOfCol do the same for
	// basis slots.
	rowOfPos []int
	posOfRow []int
	colOfPos []int
	posOfCol []int

	// U stored row-wise by position: row p holds its strictly-upper
	// entries (position-column index, value) plus a separate diagonal.
	uPtr  []int
	uIdx  []int
	uVal  []float64
	uDiag []float64

	// L stored column-wise by position: column p holds its
	// strictly-lower entries; the unit diagonal is implicit.
	lPtr []int
	lIdx []int
	lVal []float64

	nnzBasis  int // nonzeros of the factored basis matrix
	nnzFactor int // nonzeros of L+U including diagonals

	// Factorization scratch.
	colCount []int     // active-row entry count per slot
	stack    []int     // singleton-column work stack
	rowPtr   []int     // CSR pattern of the basis (pattern only)
	rowCol   []int     //
	rowFill  []int     // CSR fill cursor
	tRow     []int     // U-entry triples collected during the peel
	tCol     []int     //
	tVal     []float64 //
	uFill    []int     // per-row cursor while bucketing triples
	bump     []float64 // dense k×k bump matrix, flat

	// Solve scratch (gather/scatter between index spaces).
	work []float64
}

// singularPivotTol is the singularity threshold of both inverses: a
// pivot below it fails the factorization.
const singularPivotTol = 1e-12

// factorize computes the LU factors of the m×m basis given in CSC form
// (colPtr has m+1 entries; column s of the matrix is the basis column
// in slot s). It reports whether the basis was numerically factorable;
// on failure the previous factors are left intact (the caller
// double-buffers).
func (f *luFactor) factorize(m int, colPtr, rowIdx []int, val []float64) bool {
	f.m = m
	nnz := colPtr[m]
	f.nnzBasis = nnz

	f.rowOfPos = growI(f.rowOfPos, m)
	f.posOfRow = growI(f.posOfRow, m)
	f.colOfPos = growI(f.colOfPos, m)
	f.posOfCol = growI(f.posOfCol, m)
	for i := 0; i < m; i++ {
		f.posOfRow[i] = -1 // -1 marks an active (unassigned) row
		f.posOfCol[i] = -1
	}

	// CSR pattern of the basis: which columns touch each row, for
	// decrementing column counts when a row leaves the active set.
	f.rowPtr = growI(f.rowPtr, m+1)
	f.rowFill = growI(f.rowFill, m)
	for i := 0; i <= m; i++ {
		f.rowPtr[i] = 0
	}
	for k := 0; k < nnz; k++ {
		f.rowPtr[rowIdx[k]+1]++
	}
	for i := 0; i < m; i++ {
		f.rowPtr[i+1] += f.rowPtr[i]
		f.rowFill[i] = f.rowPtr[i]
	}
	f.rowCol = growI(f.rowCol, nnz)
	for s := 0; s < m; s++ {
		for k := colPtr[s]; k < colPtr[s+1]; k++ {
			i := rowIdx[k]
			f.rowCol[f.rowFill[i]] = s
			f.rowFill[i]++
		}
	}

	// Column-singleton peel. A slot whose column has exactly one entry
	// in a still-active row pivots on that entry: the column's other
	// entries sit in rows already assigned earlier positions, so they
	// land strictly above the diagonal (pure U, no arithmetic, no
	// fill), and no active row below remains (L column = identity).
	f.colCount = growI(f.colCount, m)
	f.stack = f.stack[:0]
	for s := 0; s < m; s++ {
		f.colCount[s] = colPtr[s+1] - colPtr[s]
		if f.colCount[s] == 1 {
			f.stack = append(f.stack, s)
		}
	}
	f.tRow = f.tRow[:0]
	f.tCol = f.tCol[:0]
	f.tVal = f.tVal[:0]
	f.uDiag = growF(f.uDiag, m)

	pos := 0
	for len(f.stack) > 0 {
		s := f.stack[len(f.stack)-1]
		f.stack = f.stack[:len(f.stack)-1]
		if f.posOfCol[s] >= 0 || f.colCount[s] != 1 {
			continue // already peeled, or count changed since push
		}
		// Locate the single active-row entry and emit the inactive-row
		// entries as U triples (their row positions are already fixed).
		pivRow, pivSeen := -1, false
		var pivVal float64
		for k := colPtr[s]; k < colPtr[s+1]; k++ {
			i := rowIdx[k]
			if f.posOfRow[i] < 0 {
				pivRow, pivVal, pivSeen = i, val[k], true
			} else {
				f.tRow = append(f.tRow, f.posOfRow[i])
				f.tCol = append(f.tCol, pos)
				f.tVal = append(f.tVal, val[k])
			}
		}
		if !pivSeen || math.Abs(pivVal) < singularPivotTol {
			return false
		}
		f.posOfCol[s] = pos
		f.colOfPos[pos] = s
		f.posOfRow[pivRow] = pos
		f.rowOfPos[pos] = pivRow
		f.uDiag[pos] = pivVal
		pos++
		// Deactivating pivRow may create new singletons.
		for k := f.rowPtr[pivRow]; k < f.rowPtr[pivRow+1]; k++ {
			c := f.rowCol[k]
			if f.posOfCol[c] >= 0 {
				continue
			}
			f.colCount[c]--
			if f.colCount[c] == 1 {
				f.stack = append(f.stack, c)
			}
		}
	}
	nPeel := pos

	// Remaining active rows/slots form the bump at positions
	// nPeel..m-1 (rows in ascending index order; dense partial
	// pivoting permutes them below).
	k := m - nPeel
	for i := 0; i < m; i++ {
		if f.posOfRow[i] < 0 {
			f.posOfRow[i] = pos
			f.rowOfPos[pos] = i
			pos++
		}
	}
	pos = nPeel
	for s := 0; s < m; s++ {
		if f.posOfCol[s] < 0 {
			f.posOfCol[s] = pos
			f.colOfPos[pos] = s
			pos++
		}
	}

	// Gather the bump columns: entries in peeled rows go straight to U
	// (rows < nPeel of L are identity, so no elimination touches
	// them); entries in bump rows form the dense kernel's input.
	f.bump = growF(f.bump, k*k)
	for i := range f.bump {
		f.bump[i] = 0
	}
	for bp := nPeel; bp < m; bp++ {
		s := f.colOfPos[bp]
		for kk := colPtr[s]; kk < colPtr[s+1]; kk++ {
			p := f.posOfRow[rowIdx[kk]]
			if p < nPeel {
				f.tRow = append(f.tRow, p)
				f.tCol = append(f.tCol, bp)
				f.tVal = append(f.tVal, val[kk])
			} else {
				f.bump[(p-nPeel)*k+(bp-nPeel)] = val[kk]
			}
		}
	}

	// Dense LU with partial pivoting on the bump, in place: after
	// elimination, bump[r][c] holds U for c ≥ r and the L multiplier
	// for c < r. Row swaps permute rowOfPos within the bump, which
	// cannot disturb the triples above (they live in rows < nPeel).
	for c := 0; c < k; c++ {
		pr := c
		for r := c + 1; r < k; r++ {
			if math.Abs(f.bump[r*k+c]) > math.Abs(f.bump[pr*k+c]) {
				pr = r
			}
		}
		if math.Abs(f.bump[pr*k+c]) < singularPivotTol {
			return false
		}
		if pr != c {
			for j := 0; j < k; j++ {
				f.bump[c*k+j], f.bump[pr*k+j] = f.bump[pr*k+j], f.bump[c*k+j]
			}
			rc, rp := nPeel+c, nPeel+pr
			f.rowOfPos[rc], f.rowOfPos[rp] = f.rowOfPos[rp], f.rowOfPos[rc]
			f.posOfRow[f.rowOfPos[rc]] = rc
			f.posOfRow[f.rowOfPos[rp]] = rp
		}
		piv := f.bump[c*k+c]
		for r := c + 1; r < k; r++ {
			mult := f.bump[r*k+c] / piv
			f.bump[r*k+c] = mult
			if mult == 0 {
				continue
			}
			for j := c + 1; j < k; j++ {
				f.bump[r*k+j] -= mult * f.bump[c*k+j]
			}
		}
	}

	// Assemble U row-wise: bucket the peel-phase triples by row
	// (counting sort), then append the bump's upper rows.
	f.uPtr = growI(f.uPtr, m+1)
	for i := 0; i <= m; i++ {
		f.uPtr[i] = 0
	}
	for _, r := range f.tRow {
		f.uPtr[r+1]++
	}
	for bp := 0; bp < k; bp++ {
		n := 0
		for j := bp + 1; j < k; j++ {
			if f.bump[bp*k+j] != 0 {
				n++
			}
		}
		f.uPtr[nPeel+bp+1] += n
	}
	for i := 0; i < m; i++ {
		f.uPtr[i+1] += f.uPtr[i]
	}
	totU := f.uPtr[m]
	f.uIdx = growI(f.uIdx, totU)
	f.uVal = growF(f.uVal, totU)
	f.uFill = growI(f.uFill, m)
	for i := 0; i < m; i++ {
		f.uFill[i] = f.uPtr[i]
	}
	for t := range f.tRow {
		r := f.tRow[t]
		f.uIdx[f.uFill[r]] = f.tCol[t]
		f.uVal[f.uFill[r]] = f.tVal[t]
		f.uFill[r]++
	}
	for bp := 0; bp < k; bp++ {
		r := nPeel + bp
		f.uDiag[r] = f.bump[bp*k+bp]
		for j := bp + 1; j < k; j++ {
			if v := f.bump[bp*k+j]; v != 0 {
				f.uIdx[f.uFill[r]] = nPeel + j
				f.uVal[f.uFill[r]] = v
				f.uFill[r]++
			}
		}
	}

	// Assemble L column-wise: identity over the peeled positions, the
	// bump multipliers below.
	f.lPtr = growI(f.lPtr, m+1)
	for i := 0; i <= m; i++ {
		f.lPtr[i] = 0
	}
	for bp := 0; bp < k; bp++ {
		n := 0
		for r := bp + 1; r < k; r++ {
			if f.bump[r*k+bp] != 0 {
				n++
			}
		}
		f.lPtr[nPeel+bp+1] = n
	}
	for i := 0; i < m; i++ {
		f.lPtr[i+1] += f.lPtr[i]
	}
	totL := f.lPtr[m]
	f.lIdx = growI(f.lIdx, totL)
	f.lVal = growF(f.lVal, totL)
	at := 0
	for bp := 0; bp < k; bp++ {
		for r := bp + 1; r < k; r++ {
			if v := f.bump[r*k+bp]; v != 0 {
				f.lIdx[at] = nPeel + r
				f.lVal[at] = v
				at++
			}
		}
	}

	f.nnzFactor = totU + totL + m
	f.work = growF(f.work, m)
	return true
}

// ftran solves B x = v in place: v arrives indexed by row, x leaves
// indexed by basis slot.
func (f *luFactor) ftran(v []float64) {
	m := f.m
	w := f.work[:m]
	for p := 0; p < m; p++ {
		w[p] = v[f.rowOfPos[p]]
	}
	// L forward (column-oriented, unit diagonal).
	for p := 0; p < m; p++ {
		x := w[p]
		if x == 0 {
			continue
		}
		for k := f.lPtr[p]; k < f.lPtr[p+1]; k++ {
			w[f.lIdx[k]] -= f.lVal[k] * x
		}
	}
	// U backward (row-oriented).
	for p := m - 1; p >= 0; p-- {
		s := w[p]
		for k := f.uPtr[p]; k < f.uPtr[p+1]; k++ {
			s -= f.uVal[k] * w[f.uIdx[k]]
		}
		w[p] = s / f.uDiag[p]
	}
	for p := 0; p < m; p++ {
		v[f.colOfPos[p]] = w[p]
	}
}

// btran solves Bᵀ y = v in place: v arrives indexed by basis slot, y
// leaves indexed by row.
func (f *luFactor) btran(v []float64) {
	m := f.m
	w := f.work[:m]
	for p := 0; p < m; p++ {
		w[p] = v[f.colOfPos[p]]
	}
	// Uᵀ forward: row-wise U scatters each resolved component.
	for p := 0; p < m; p++ {
		x := w[p] / f.uDiag[p]
		w[p] = x
		if x == 0 {
			continue
		}
		for k := f.uPtr[p]; k < f.uPtr[p+1]; k++ {
			w[f.uIdx[k]] -= f.uVal[k] * x
		}
	}
	// Lᵀ backward: column-wise L gathers into each component.
	for p := m - 1; p >= 0; p-- {
		s := w[p]
		for k := f.lPtr[p]; k < f.lPtr[p+1]; k++ {
			s -= f.lVal[k] * w[f.lIdx[k]]
		}
		w[p] = s
	}
	for p := 0; p < m; p++ {
		v[f.rowOfPos[p]] = w[p]
	}
}

// etaFile is a product-form update sequence: after the k-th basis
// exchange, B_k = B_LU · E_1 ⋯ E_k where E_j is the identity with one
// column replaced by the pivot direction d = B_{j-1}⁻¹ a_enter.
type etaFile struct {
	ptr     []int     // segment start per eta; len = count+1
	idx     []int     // slot indices of the non-pivot entries
	val     []float64 //
	pivSlot []int     // pivot slot r per eta
	pivVal  []float64 // d_r per eta
	count   int
}

func (e *etaFile) reset() {
	e.count = 0
	e.idx = e.idx[:0]
	e.val = e.val[:0]
	e.pivSlot = e.pivSlot[:0]
	e.pivVal = e.pivVal[:0]
	if cap(e.ptr) == 0 {
		e.ptr = append(e.ptr, 0)
	}
	e.ptr = e.ptr[:1]
}

// push records the eta for a basis exchange at slot r with direction d
// (slot-indexed, dense). The pivot d[r] must be nonzero.
func (e *etaFile) push(r int, d []float64) {
	for i, v := range d {
		if i == r || v == 0 {
			continue
		}
		e.idx = append(e.idx, i)
		e.val = append(e.val, v)
	}
	e.ptr = append(e.ptr, len(e.idx))
	e.pivSlot = append(e.pivSlot, r)
	e.pivVal = append(e.pivVal, d[r])
	e.count++
}

// applyFtran finishes B x = v after the LU solve: etas apply oldest to
// newest. x is slot-indexed.
func (e *etaFile) applyFtran(x []float64) {
	for t := 0; t < e.count; t++ {
		r := e.pivSlot[t]
		xr := x[r] / e.pivVal[t]
		x[r] = xr
		if xr == 0 {
			continue
		}
		for k := e.ptr[t]; k < e.ptr[t+1]; k++ {
			x[e.idx[k]] -= e.val[k] * xr
		}
	}
}

// applyBtran starts Bᵀ y = c before the LU solve: etas apply newest to
// oldest. x is slot-indexed.
func (e *etaFile) applyBtran(x []float64) {
	for t := e.count - 1; t >= 0; t-- {
		r := e.pivSlot[t]
		s := x[r]
		for k := e.ptr[t]; k < e.ptr[t+1]; k++ {
			s -= e.val[k] * x[e.idx[k]]
		}
		x[r] = s / e.pivVal[t]
	}
}
