package lp

import "math"

// This file is the reference basis inverse behind Options.Dense: B⁻¹
// held explicitly, rebuilt by Gauss-Jordan elimination and updated in
// product form by elementary row operations. The simplex driver
// (sparse.go) is shared, so a Dense solve makes the same pivot
// decisions as the default LU path from different arithmetic; the
// differential tests use it to check the LU factors and the eta file.

// denseInverse is the explicit-inverse basisInverse. Every slice is
// reused across solves.
type denseInverse struct {
	m    int
	binv []float64 // m×m row-major: row r maps a row-indexed vector to slot r
	work []float64 // m × 2m augmented [B | I] of factorize, flat
	tmp  []float64 // ftran/btran input copy
}

// factorize inverts the basis by Gauss-Jordan elimination with partial
// pivoting on [B | I]. A singular pivot fails before binv is touched,
// so the previous inverse stays in use.
func (d *denseInverse) factorize(m int, colPtr, rowIdx []int, val []float64) bool {
	stride := 2 * m
	d.work = growF(d.work, m*stride)
	work := d.work
	for i := range work {
		work[i] = 0
	}
	for s := 0; s < m; s++ {
		for k := colPtr[s]; k < colPtr[s+1]; k++ {
			work[rowIdx[k]*stride+s] = val[k]
		}
	}
	for i := 0; i < m; i++ {
		work[i*stride+m+i] = 1
	}
	for col := 0; col < m; col++ {
		pr := col
		for r := col + 1; r < m; r++ {
			if math.Abs(work[r*stride+col]) > math.Abs(work[pr*stride+col]) {
				pr = r
			}
		}
		if math.Abs(work[pr*stride+col]) < singularPivotTol {
			return false
		}
		if pr != col {
			a := work[col*stride : (col+1)*stride]
			b := work[pr*stride : (pr+1)*stride]
			for j := col; j < stride; j++ {
				a[j], b[j] = b[j], a[j]
			}
		}
		piv := work[col*stride+col]
		crow := work[col*stride : (col+1)*stride]
		for j := col; j < stride; j++ {
			crow[j] /= piv
		}
		for r := 0; r < m; r++ {
			if r == col {
				continue
			}
			row := work[r*stride : (r+1)*stride]
			f := row[col]
			if f == 0 {
				continue
			}
			for j := col; j < stride; j++ {
				row[j] -= f * crow[j]
			}
		}
	}

	d.m = m
	d.binv = growF(d.binv, m*m)
	d.tmp = growF(d.tmp, m)
	for i := 0; i < m; i++ {
		copy(d.binv[i*m:(i+1)*m], work[i*stride+m:(i+1)*stride])
	}
	return true
}

// ftran computes x = B⁻¹ v in place (v row-indexed in, slot-indexed
// out).
func (d *denseInverse) ftran(v []float64) {
	m := d.m
	in := d.tmp[:m]
	copy(in, v)
	for r := 0; r < m; r++ {
		row := d.binv[r*m : (r+1)*m]
		var x float64
		for i, a := range row {
			x += a * in[i]
		}
		v[r] = x
	}
}

// btran computes y = B⁻ᵀ v in place (v slot-indexed in, row-indexed
// out).
func (d *denseInverse) btran(v []float64) {
	m := d.m
	in := d.tmp[:m]
	copy(in, v)
	for i := 0; i < m; i++ {
		var y float64
		for r := 0; r < m; r++ {
			y += in[r] * d.binv[r*m+i]
		}
		v[i] = y
	}
}

// update applies the basis exchange at slot r with direction u =
// B⁻¹ a_enter: the row operations that map u to e_r.
func (d *denseInverse) update(r int, u []float64) {
	m := d.m
	prow := d.binv[r*m : (r+1)*m]
	inv := 1 / u[r]
	for j := range prow {
		prow[j] *= inv
	}
	for i := 0; i < m; i++ {
		if i == r || u[i] == 0 {
			continue
		}
		f := u[i]
		row := d.binv[i*m : (i+1)*m]
		for j := range row {
			row[j] -= f * prow[j]
		}
	}
}

// fillRatio is zero: an explicit inverse is not a factorization.
func (d *denseInverse) fillRatio() float64 { return 0 }
