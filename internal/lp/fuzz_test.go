package lp

import (
	"math"
	"testing"
)

// fuzzReader doles out bytes from the fuzz input as bounded integers
// and floats in [-2, 2], recycling from the start when exhausted.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[r.pos%len(r.data)]
	r.pos++
	return b
}

func (r *fuzzReader) intn(n int) int { return int(r.byte()) % n }

func (r *fuzzReader) float() float64 { return float64(int(r.byte())-128) / 64.0 }

// FuzzSparseLU drives the LU kernel the way the simplex does — a
// factorization followed by a sequence of product-form eta updates,
// each replacing one basis column — while maintaining a dense shadow
// of the current basis matrix. After every update it solves B x = v
// (FTRAN through LU + etas) and Bᵀ y = v (BTRAN) for a probe vector
// and checks the residual against the shadow, then compares against a
// fresh refactorization of the final basis. Any drift between the
// incrementally-updated representation and the true matrix is a
// simplex-corrupting bug.
func FuzzSparseLU(f *testing.F) {
	f.Add([]byte{5, 3, 200, 17, 88, 9, 14, 250, 33, 1, 77, 190, 41, 6, 128, 255, 2, 63})
	f.Add([]byte{12, 1, 0, 0, 0, 9, 9, 9, 9, 30, 60, 90, 120, 150, 180, 210, 240})
	f.Add([]byte{3, 250, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		r := &fuzzReader{data: data}
		m := 1 + r.intn(12)

		// Random (mostly sparse) basis matrix in dense shadow form.
		shadow := make([][]float64, m) // shadow[i][j]: row i, column j
		for i := range shadow {
			shadow[i] = make([]float64, m)
		}
		for j := 0; j < m; j++ {
			nz := 0
			for i := 0; i < m; i++ {
				if r.intn(3) == 0 {
					shadow[i][j] = r.float()
					if shadow[i][j] != 0 {
						nz++
					}
				}
			}
			if nz == 0 {
				shadow[j][j] = 1 + math.Abs(r.float())
			}
		}

		toCSC := func(mx [][]float64) (colPtr, rowIdx []int, val []float64) {
			colPtr = make([]int, m+1)
			for j := 0; j < m; j++ {
				colPtr[j] = len(rowIdx)
				for i := 0; i < m; i++ {
					if mx[i][j] != 0 {
						rowIdx = append(rowIdx, i)
						val = append(val, mx[i][j])
					}
				}
			}
			colPtr[m] = len(rowIdx)
			return
		}

		var lu luFactor
		colPtr, rowIdx, val := toCSC(shadow)
		if !lu.factorize(m, colPtr, rowIdx, val) {
			return // singular start: nothing to update
		}
		// Skip ill-conditioned starts too. The harness hunts logic
		// bugs, which leave O(1) residuals; from a start with large
		// κ₁(B) = ‖B‖₁·‖B⁻¹‖₁ even a well-pivoted eta amplifies
		// rounding past the residual bound. ‖B⁻¹‖₁ comes from m FTRANs
		// of unit vectors through the fresh factorization.
		normB, normInv := 0.0, 0.0
		for j := 0; j < m; j++ {
			e := make([]float64, m)
			e[j] = 1
			lu.ftran(e)
			colB, colInv := 0.0, 0.0
			for i := 0; i < m; i++ {
				colB += math.Abs(shadow[i][j])
				colInv += math.Abs(e[i])
			}
			normB = math.Max(normB, colB)
			normInv = math.Max(normInv, colInv)
		}
		if normB*normInv > 1e8 {
			return
		}
		var etas etaFile
		etas.reset()

		solveF := func(v []float64) []float64 {
			x := append([]float64(nil), v...)
			lu.ftran(x)
			etas.applyFtran(x)
			return x
		}
		solveB := func(v []float64) []float64 {
			y := append([]float64(nil), v...)
			etas.applyBtran(y)
			lu.btran(y)
			return y
		}
		check := func(tag string, ref [][]float64) {
			v := make([]float64, m)
			for i := range v {
				v[i] = r.float()
			}
			x := solveF(v)
			// Residual of B x = v against the shadow.
			norm := 0.0
			for i := 0; i < m; i++ {
				lhs := 0.0
				for j := 0; j < m; j++ {
					lhs += ref[i][j] * x[j]
				}
				norm = math.Max(norm, math.Abs(lhs-v[i]))
			}
			scale := 1.0
			for i := range x {
				scale = math.Max(scale, math.Abs(x[i]))
			}
			if norm > 1e-6*scale {
				t.Fatalf("%s: FTRAN residual %g (scale %g, m=%d, %d etas)", tag, norm, scale, m, etas.count)
			}
			y := solveB(v)
			norm = 0.0
			for j := 0; j < m; j++ {
				lhs := 0.0
				for i := 0; i < m; i++ {
					lhs += ref[i][j] * y[i]
				}
				norm = math.Max(norm, math.Abs(lhs-v[j]))
			}
			scale = 1.0
			for i := range y {
				scale = math.Max(scale, math.Abs(y[i]))
			}
			if norm > 1e-6*scale {
				t.Fatalf("%s: BTRAN residual %g (scale %g, m=%d, %d etas)", tag, norm, scale, m, etas.count)
			}
		}

		check("initial", shadow)

		// Random pivot sequence: replace basis column slot with a new
		// column, push the product-form eta, re-verify.
		updates := r.intn(8)
		for u := 0; u < updates; u++ {
			slot := r.intn(m)
			col := make([]float64, m)
			nz := 0
			for i := range col {
				if r.intn(3) == 0 {
					col[i] = r.float()
					if col[i] != 0 {
						nz++
					}
				}
			}
			if nz == 0 {
				col[slot] = 1
			}
			d := solveF(col)
			// Accept only well-conditioned pivots (relative to the
			// direction's magnitude): the harness hunts logic bugs —
			// wrong slots, wrong application order — which produce O(1)
			// residuals; tiny pivots only measure floating-point drift,
			// which the simplex bounds by periodic refactorization, not
			// by the eta file.
			maxd := 0.0
			for _, di := range d {
				maxd = math.Max(maxd, math.Abs(di))
			}
			if math.Abs(d[slot]) < 0.05*(1+maxd) {
				continue
			}
			etas.push(slot, d)
			for i := 0; i < m; i++ {
				shadow[i][slot] = col[i]
			}
			check("after update", shadow)
		}

		// The eta-updated representation must agree with a fresh
		// refactorization of the final basis.
		var fresh luFactor
		colPtr, rowIdx, val = toCSC(shadow)
		if !fresh.factorize(m, colPtr, rowIdx, val) {
			t.Fatalf("final basis unexpectedly singular after %d accepted updates", etas.count)
		}
		v := make([]float64, m)
		for i := range v {
			v[i] = r.float()
		}
		got := solveF(v)
		want := append([]float64(nil), v...)
		fresh.ftran(want)
		scale := 1.0
		for i := range want {
			scale = math.Max(scale, math.Abs(want[i]))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-5*scale {
				t.Fatalf("eta file drifted from refactorization at %d: %g vs %g (m=%d, %d etas)",
					i, got[i], want[i], m, etas.count)
			}
		}
	})
}
