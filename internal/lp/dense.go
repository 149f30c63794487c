package lp

import "math"

// This file is the legacy dense simplex: a two-phase revised simplex
// with an explicitly maintained basis inverse, refactorized by
// Gauss-Jordan elimination. It predates the sparse LU core in
// sparse.go and is retained behind Options.Dense as the differential-
// testing reference — the sparse path replicates this file's pivot
// rules (Dantzig pricing with a Bland fallback, ratio-test tolerances
// and tie-breaks) exactly, so the two implementations walk the same
// basis sequence.

// solveDense runs the two-phase dense revised simplex in the given
// workspace. The caller has already validated the problem, resolved
// the maxIter default, and handled the zero-row case.
func solveDense(p *Problem, t *tableau, opt Options, maxIter int) (*Solution, error) {
	t.fill(p)

	iters1 := 0
	warmUsed := false
	switch t.tryWarmStart(opt.WarmBasis) {
	case warmPrimalFeasible:
		// Straight to phase 2.
		warmUsed = true
	case warmDualFeasible:
		warmUsed = true
		// The basis factorizes and prices out non-negatively (typical
		// after a right-hand-side change, e.g. a demand update): the
		// dual simplex restores primal feasibility without phase 1.
		st, it := t.runDual(t.phase2Costs(), maxIter)
		iters1 = it
		switch st {
		case StatusIterLimit:
			return &Solution{Status: StatusIterLimit, Iterations: iters1, Refactorizations: t.refactorizations, Warm: true}, nil
		case StatusInfeasible:
			return &Solution{Status: StatusInfeasible, Iterations: iters1, Refactorizations: t.refactorizations, Warm: true}, nil
		}
	default:
		// Phase 1: minimize the sum of artificial variables.
		var st Status
		st, iters1 = t.run(t.phase1Costs(), maxIter, true)
		if st == StatusIterLimit {
			return &Solution{Status: StatusIterLimit, Iterations: iters1, Refactorizations: t.refactorizations}, nil
		}
		if t.objective(t.phase1Costs()) > 1e-6 {
			return &Solution{Status: StatusInfeasible, Iterations: iters1, Refactorizations: t.refactorizations}, nil
		}
		t.driveOutArtificials()
	}

	// Phase 2: minimize the true objective with artificials barred.
	st, iters2 := t.run(t.phase2Costs(), maxIter-iters1, false)
	iters := iters1 + iters2
	switch st {
	case StatusUnbounded:
		return &Solution{Status: StatusUnbounded, Iterations: iters, Refactorizations: t.refactorizations, Warm: warmUsed}, nil
	case StatusIterLimit:
		return &Solution{Status: StatusIterLimit, Iterations: iters, Refactorizations: t.refactorizations, Warm: warmUsed}, nil
	}

	// Refresh the factorization once before extraction so the reported
	// point is exactly B⁻¹b for the final basis.
	t.refactorize()
	sol := &Solution{
		Status:           StatusOptimal,
		X:                t.primal(p.NumVars()),
		Dual:             t.duals(t.phase2Costs()),
		Iterations:       iters,
		Refactorizations: t.refactorizations,
		Basis:            t.encodeBasis(),
		Warm:             warmUsed,
	}
	sol.Objective = p.Objective(sol.X)
	// Reduced costs against the internal (scaled) rows equal the
	// caller-row reduced costs exactly: row scaling multiplies a_ij and
	// divides y_i by the same factor.
	y := t.dualsInto(t.yBuf, t.phase2Costs())
	sol.ReducedCost = make([]float64, t.nStruct)
	for j := 0; j < t.nStruct; j++ {
		if t.inBas[j] {
			continue // exact zero for basic variables
		}
		sol.ReducedCost[j] = t.costs[j] - dot(y, t.cols[j])
	}
	// Undo the equilibration and row sign flips applied during
	// standardization so the duals refer to the caller's original rows:
	// scaling row i by s makes its dual 1/s times the original's.
	for i := range sol.Dual {
		sol.Dual[i] *= t.rowScale[i]
		if t.rowFlipped[i] {
			sol.Dual[i] = -sol.Dual[i]
		}
	}
	return sol, nil
}

// tableau is the working state of the dense revised simplex: the
// standardized column matrix, the current basis, and an explicitly
// maintained basis inverse that is refactorized periodically for
// numerical hygiene.
type tableau struct {
	m, n int // rows, total columns (structural + slack/surplus + artificial)

	nStruct int // structural variable count
	nArt    int // artificial variable count (last nArt columns)

	cols  [][]float64 // column-major constraint matrix, m entries per column
	b     []float64   // right-hand side (non-negative after standardization)
	costs []float64   // phase-2 costs: structural costs then zeros

	rowScale []float64 // equilibration factor applied to each row

	rowFlipped []bool // rows negated during standardization
	slackOf    []int  // per row: slack/surplus column, -1 if none (EQ rows)
	artOf      []int  // per row: artificial column, -1 if none (LE rows)

	basis  []int  // basis column index per row
	inBas  []bool // membership mask, len n
	binv   [][]float64
	xB     []float64 // current basic values
	barred []bool    // columns that may not enter (artificials in phase 2)

	pivotsSinceLU    int
	refactorizations int

	// Reusable scratch, sized on (re)build: per-iteration dual vector,
	// pivot directions (two: driveOutArtificials keeps a best candidate
	// while probing others), the phase-1 cost vector, and the
	// Gauss-Jordan workspace of refactorize. These turn the per-pivot
	// allocation churn into steady-state zero.
	yBuf   []float64
	uBuf   []float64
	uBuf2  []float64
	c1     []float64
	luWork []float64 // m × 2m augmented matrix, flat

	// Warm-start scratch.
	warmCand  []int
	warmSeen  []bool
	basisSave []int
}

// growF resizes a float scratch slice without preserving contents.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growI resizes an int scratch slice without preserving contents.
func growI(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growB resizes a bool scratch slice, zeroing the result.
func growB(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// fill (re)standardizes the problem into the tableau, reusing every
// buffer whose capacity suffices. A Solver calls this once per solve;
// at steady state (same problem shape) it allocates nothing.
func (t *tableau) fill(p *Problem) {
	m := p.NumRows()
	nStruct := p.NumVars()

	// Count auxiliary columns.
	nSlack := 0
	for i := 0; i < m; i++ {
		if effectiveRel(p, i) != EQ {
			nSlack++
		}
	}
	// Artificials: one per row whose slack cannot seed the basis
	// (GE and EQ rows).
	nArt := 0
	for i := 0; i < m; i++ {
		if effectiveRel(p, i) != LE {
			nArt++
		}
	}

	t.m, t.nStruct, t.nArt = m, nStruct, nArt
	t.n = nStruct + nSlack + nArt
	t.pivotsSinceLU = 0
	t.refactorizations = 0

	t.rowFlipped = growB(t.rowFlipped, m)
	t.b = growF(t.b, m)
	t.rowScale = growF(t.rowScale, m)

	if cap(t.cols) < t.n {
		newCols := make([][]float64, t.n)
		copy(newCols, t.cols[:cap(t.cols)])
		t.cols = newCols
	} else {
		t.cols = t.cols[:t.n]
	}
	for j := range t.cols {
		t.cols[j] = growF(t.cols[j], m)
	}

	// Structural columns (with row flips and equilibration applied).
	// Equilibration divides every row by its largest |coefficient| so
	// that pivot magnitudes are O(1) regardless of the caller's units
	// (master-problem rates are ~1e8 bits/s); without it, noise-level
	// pivots wreck the factorization.
	for i := 0; i < m; i++ {
		sign := 1.0
		if p.B[i] < 0 {
			sign = -1
			t.rowFlipped[i] = true
		}
		maxAbs := 0.0
		for j := 0; j < nStruct; j++ {
			if a := math.Abs(p.A[i][j]); a > maxAbs {
				maxAbs = a
			}
		}
		scale := 1.0
		if maxAbs > 0 {
			scale = 1 / maxAbs
		}
		t.rowScale[i] = scale
		t.b[i] = sign * scale * p.B[i]
		for j := 0; j < nStruct; j++ {
			t.cols[j][i] = sign * scale * p.A[i][j]
		}
	}

	// Slack/surplus and artificial columns (zeroed first: structural
	// columns are fully overwritten above, auxiliary ones are sparse).
	for j := nStruct; j < t.n; j++ {
		col := t.cols[j]
		for i := range col {
			col[i] = 0
		}
	}
	slackAt := nStruct
	artAt := nStruct + nSlack
	t.basis = growI(t.basis, m)
	t.slackOf = growI(t.slackOf, m)
	t.artOf = growI(t.artOf, m)
	for i := 0; i < m; i++ {
		t.slackOf[i] = -1
		t.artOf[i] = -1
		switch effectiveRel(p, i) {
		case LE:
			t.cols[slackAt][i] = 1
			t.slackOf[i] = slackAt
			t.basis[i] = slackAt
			slackAt++
		case GE:
			t.cols[slackAt][i] = -1
			t.slackOf[i] = slackAt
			slackAt++
			t.cols[artAt][i] = 1
			t.artOf[i] = artAt
			t.basis[i] = artAt
			artAt++
		case EQ:
			t.cols[artAt][i] = 1
			t.artOf[i] = artAt
			t.basis[i] = artAt
			artAt++
		}
	}

	t.inBas = growB(t.inBas, t.n)
	for _, j := range t.basis {
		t.inBas[j] = true
	}
	t.barred = growB(t.barred, t.n)

	if cap(t.binv) < m {
		t.binv = make([][]float64, m)
	} else {
		t.binv = t.binv[:m]
	}
	for i := range t.binv {
		row := growF(t.binv[i], m)
		for j := range row {
			row[j] = 0
		}
		row[i] = 1
		t.binv[i] = row
	}
	t.xB = growF(t.xB, m)
	copy(t.xB, t.b)
	t.costs = growF(t.costs, t.n)
	for j := range t.costs {
		t.costs[j] = 0
	}
	copy(t.costs, p.C)

	t.yBuf = growF(t.yBuf, m)
	t.uBuf = growF(t.uBuf, m)
	t.uBuf2 = growF(t.uBuf2, m)
	t.luWork = growF(t.luWork, m*2*m)
	t.c1 = growF(t.c1, t.n)
	for j := range t.c1 {
		if j >= t.n-t.nArt {
			t.c1[j] = 1
		} else {
			t.c1[j] = 0
		}
	}
}

// effectiveRel returns the row's sense after the b ≥ 0 normalization.
func effectiveRel(p *Problem, i int) Relation {
	rel := p.Rel[i]
	if p.B[i] < 0 {
		switch rel {
		case LE:
			return GE
		case GE:
			return LE
		}
	}
	return rel
}

// isArtificial reports whether column j is one of the artificials.
func (t *tableau) isArtificial(j int) bool { return j >= t.n-t.nArt }

// phase1Costs returns the phase-1 cost vector: 1 on artificials
// (prebuilt by fill).
func (t *tableau) phase1Costs() []float64 { return t.c1 }

// phase2Costs returns the true cost vector: the structural costs
// extended with zeros over the auxiliary columns.
func (t *tableau) phase2Costs() []float64 { return t.costs }

// objective returns cᵀx_B for the current basis under costs c.
func (t *tableau) objective(c []float64) float64 {
	var v float64
	for i, j := range t.basis {
		v += c[j] * t.xB[i]
	}
	return v
}

// duals returns y = c_Bᵀ B⁻¹ under costs c in a freshly allocated
// vector (used at extraction, where the caller keeps the slice).
func (t *tableau) duals(c []float64) []float64 {
	return t.dualsInto(make([]float64, t.m), c)
}

// dualsInto computes y = c_Bᵀ B⁻¹ into dst (the per-iteration form).
func (t *tableau) dualsInto(dst []float64, c []float64) []float64 {
	for i := 0; i < t.m; i++ {
		var v float64
		for r, j := range t.basis {
			v += c[j] * t.binv[r][i]
		}
		dst[i] = v
	}
	return dst
}

// primal extracts the first nStruct structural variable values.
func (t *tableau) primal(nStruct int) []float64 {
	x := make([]float64, nStruct)
	for i, j := range t.basis {
		if j < nStruct {
			x[j] = t.xB[i]
		}
	}
	// Clean tiny negatives from roundoff.
	for j := range x {
		if x[j] < 0 && x[j] > -1e-7 {
			x[j] = 0
		}
	}
	return x
}

// run performs simplex pivots under costs c until optimality,
// unboundedness, or the iteration budget runs out. phase1 marks the
// feasibility phase (artificials allowed in the basis).
func (t *tableau) run(c []float64, maxIter int, phase1 bool) (Status, int) {
	if !phase1 {
		for j := t.n - t.nArt; j < t.n; j++ {
			t.barred[j] = true
		}
	}
	iters := 0
	stall := 0
	lastObj := math.Inf(1)
	for {
		if iters >= maxIter {
			return StatusIterLimit, iters
		}
		y := t.dualsInto(t.yBuf, c)
		useBland := stall > 2*t.m+20

		enter := -1
		best := -tol
		for j := 0; j < t.n; j++ {
			if t.inBas[j] || t.barred[j] {
				continue
			}
			rc := c[j] - dot(y, t.cols[j])
			if useBland {
				if rc < -tol {
					enter = j
					break
				}
			} else if rc < best {
				best = rc
				enter = j
			}
		}
		if enter < 0 {
			return StatusOptimal, iters
		}

		// Direction u = B⁻¹ a_enter.
		u := t.applyBinvInto(t.uBuf, t.cols[enter])

		// Ratio test. The pivot threshold separates cancellation noise
		// (≈1e-15 relative after row equilibration) from genuine small
		// entries caused by mixed-scale rows (e.g. 1e-8 when rate and
		// unit coefficients share a column); only the former may be
		// skipped — a skipped positive entry would let theta run past
		// its row's feasibility limit. Roundoff-negative basic values
		// are treated as zero.
		maxU := 0.0
		for i := 0; i < t.m; i++ {
			if a := math.Abs(u[i]); a > maxU {
				maxU = a
			}
		}
		pivTol := 1e-11 * maxU
		if pivTol < tol {
			pivTol = tol
		}
		leaveRow := -1
		minRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			if u[i] > pivTol {
				xb := t.xB[i]
				if xb < 0 {
					xb = 0
				}
				r := xb / u[i]
				if r < minRatio-tol ||
					(r < minRatio+tol && (leaveRow < 0 || t.basis[i] < t.basis[leaveRow])) {
					minRatio = r
					leaveRow = i
				}
			}
		}
		if leaveRow < 0 {
			if phase1 {
				// Phase-1 objective is bounded below by 0; an
				// unbounded ray here is numerical noise.
				return StatusOptimal, iters
			}
			return StatusUnbounded, iters
		}

		t.pivot(enter, leaveRow, u)
		iters++

		obj := t.objective(c)
		if obj < lastObj-tol {
			stall = 0
			lastObj = obj
		} else {
			stall++
		}
	}
}

// pivot brings column enter into the basis at row leaveRow, updating
// the basis inverse by elementary row operations (product-form update)
// and refactorizing periodically.
func (t *tableau) pivot(enter, leaveRow int, u []float64) {
	piv := u[leaveRow]
	// Update xB. A roundoff-negative leaving value is a degenerate
	// pivot at the bound.
	theta := t.xB[leaveRow] / piv
	if theta < 0 && theta > -1e-7 {
		theta = 0
	}
	for i := 0; i < t.m; i++ {
		if i == leaveRow {
			continue
		}
		t.xB[i] -= theta * u[i]
		if t.xB[i] < 0 && t.xB[i] > -1e-9 {
			t.xB[i] = 0
		}
	}
	t.xB[leaveRow] = theta

	// Update B⁻¹: row ops that map u to e_leaveRow.
	inv := 1 / piv
	for j := 0; j < t.m; j++ {
		t.binv[leaveRow][j] *= inv
	}
	for i := 0; i < t.m; i++ {
		if i == leaveRow || u[i] == 0 {
			continue
		}
		f := u[i]
		for j := 0; j < t.m; j++ {
			t.binv[i][j] -= f * t.binv[leaveRow][j]
		}
	}

	leaving := t.basis[leaveRow]
	t.inBas[leaving] = false
	t.basis[leaveRow] = enter
	t.inBas[enter] = true

	t.pivotsSinceLU++
	if t.pivotsSinceLU >= 64 {
		t.refactorize()
	}
}

// refactorize recomputes B⁻¹ from the basis columns by Gauss-Jordan
// elimination with partial pivoting (in the tableau's reusable
// workspace), then refreshes xB = B⁻¹ b. It reports whether the basis
// was factorable.
func (t *tableau) refactorize() bool {
	t.pivotsSinceLU = 0
	t.refactorizations++
	m := t.m
	// Augment [B | I] in the flat workspace and reduce in place.
	stride := 2 * m
	work := t.luWork[:m*stride]
	for i := 0; i < m; i++ {
		row := work[i*stride : (i+1)*stride]
		for j := 0; j < m; j++ {
			row[j] = t.cols[t.basis[j]][i]
			row[m+j] = 0
		}
		row[m+i] = 1
	}
	for col := 0; col < m; col++ {
		pr := col
		for r := col + 1; r < m; r++ {
			if math.Abs(work[r*stride+col]) > math.Abs(work[pr*stride+col]) {
				pr = r
			}
		}
		if math.Abs(work[pr*stride+col]) < 1e-12 {
			// A numerically singular basis should be impossible after a
			// successful pivot sequence; keep the product-form inverse.
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
	for i := 0; i < m; i++ {
		copy(t.binv[i], work[i*stride+m:(i+1)*stride])
	}
	for i := 0; i < m; i++ {
		v := dot(t.binv[i], t.b)
		if v < 0 && v > -1e-7 {
			v = 0
		}
		t.xB[i] = v
	}
	return true
}

// encodeBasis renders the current basis in representation-independent
// form for warm starts.
func (t *tableau) encodeBasis() []BasisVar {
	rowOfAux := make(map[int]int, 2*t.m)
	for i := 0; i < t.m; i++ {
		if t.slackOf[i] >= 0 {
			rowOfAux[t.slackOf[i]] = i
		}
		if t.artOf[i] >= 0 {
			rowOfAux[t.artOf[i]] = i
		}
	}
	out := make([]BasisVar, t.m)
	for r, j := range t.basis {
		if j < t.nStruct {
			out[r] = BasisVar{Kind: BasisStructural, Index: j}
		} else {
			out[r] = BasisVar{Kind: BasisAux, Index: rowOfAux[j]}
		}
	}
	return out
}

// warmOutcome classifies what a caller-provided basis is good for.
type warmOutcome uint8

const (
	warmUnusable       warmOutcome = iota // fall back to cold start
	warmPrimalFeasible                    // xB ≥ 0: run primal phase 2 directly
	warmDualFeasible                      // xB has negatives but prices ≥ 0: dual simplex
)

// tryWarmStart installs a caller-provided basis and classifies it: the
// basis must have one entry per row, reference valid columns, and
// factorize. A primal-feasible basis (xB ≥ 0) skips phase 1 entirely; a
// primal-infeasible basis whose reduced costs are all non-negative is
// dual-feasible and repairable by the dual simplex. Anything else
// leaves the tableau in its cold-start state.
func (t *tableau) tryWarmStart(warm []BasisVar) warmOutcome {
	if len(warm) != t.m {
		return warmUnusable
	}
	t.warmCand = growI(t.warmCand, t.m)
	cand := t.warmCand
	t.warmSeen = growB(t.warmSeen, t.n)
	seen := t.warmSeen
	for r, bv := range warm {
		var j int
		switch bv.Kind {
		case BasisStructural:
			if bv.Index < 0 || bv.Index >= t.nStruct {
				return warmUnusable
			}
			j = bv.Index
		case BasisAux:
			if bv.Index < 0 || bv.Index >= t.m {
				return warmUnusable
			}
			j = t.slackOf[bv.Index]
			if j < 0 {
				j = t.artOf[bv.Index]
			}
			if j < 0 {
				return warmUnusable
			}
		default:
			return warmUnusable
		}
		if seen[j] {
			return warmUnusable
		}
		seen[j] = true
		cand[r] = j
	}

	// The tableau is in its cold-start state (identity basis of slacks
	// and artificials, B⁻¹ = I, xB = b); refactorize mutates binv/xB in
	// place, so on failure the cold state is rebuilt rather than
	// restored from saved references.
	t.basisSave = growI(t.basisSave, t.m)
	copy(t.basisSave, t.basis)
	restore := func() {
		copy(t.basis, t.basisSave)
		for j := range t.inBas {
			t.inBas[j] = false
		}
		for _, j := range t.basis {
			t.inBas[j] = true
		}
		for i := range t.binv {
			row := t.binv[i]
			for j := range row {
				row[j] = 0
			}
			row[i] = 1
		}
		copy(t.xB, t.b)
	}

	copy(t.basis, cand)
	for j := range t.inBas {
		t.inBas[j] = false
	}
	for _, j := range cand {
		t.inBas[j] = true
	}
	if !t.refactorize() {
		restore()
		return warmUnusable
	}
	primal := true
	for _, v := range t.xB {
		if v < -1e-7 {
			primal = false
			break
		}
	}
	if primal {
		return warmPrimalFeasible
	}
	// Primal infeasible: usable by the dual simplex iff every nonbasic
	// column prices out non-negatively under the phase-2 costs.
	c := t.phase2Costs()
	y := t.dualsInto(t.yBuf, c)
	for j := 0; j < t.n; j++ {
		if t.inBas[j] || t.isArtificial(j) {
			continue
		}
		if c[j]-dot(y, t.cols[j]) < -1e-7 {
			restore()
			return warmUnusable
		}
	}
	return warmDualFeasible
}

// runDual performs dual simplex pivots from a dual-feasible basis
// until primal feasibility (then the point is optimal), proven primal
// infeasibility, or the iteration budget runs out.
func (t *tableau) runDual(c []float64, maxIter int) (Status, int) {
	// Artificials stay barred exactly as in primal phase 2.
	for j := t.n - t.nArt; j < t.n; j++ {
		t.barred[j] = true
	}
	iters := 0
	for {
		if iters >= maxIter {
			return StatusIterLimit, iters
		}
		// Leaving row: most negative basic value.
		leave := -1
		worst := -tol
		for i := 0; i < t.m; i++ {
			if t.xB[i] < worst {
				worst = t.xB[i]
				leave = i
			}
		}
		if leave < 0 {
			return StatusOptimal, iters // primal feasible and dual feasible
		}

		// Row leave of B⁻¹·A over nonbasic columns; candidates need a
		// negative entry to push the basic value up.
		y := t.dualsInto(t.yBuf, c)
		enter := -1
		bestRatio := math.Inf(1)
		for j := 0; j < t.n; j++ {
			if t.inBas[j] || t.barred[j] {
				continue
			}
			alpha := dot(t.binv[leave], t.cols[j])
			if alpha >= -1e-9 {
				continue
			}
			rc := c[j] - dot(y, t.cols[j])
			if rc < 0 {
				rc = 0 // roundoff: dual feasibility holds by invariant
			}
			ratio := rc / -alpha
			if ratio < bestRatio-tol ||
				(ratio < bestRatio+tol && (enter < 0 || j < enter)) {
				bestRatio = ratio
				enter = j
			}
		}
		if enter < 0 {
			return StatusInfeasible, iters // the row proves Ax{≤,=,≥}b empty
		}

		u := t.applyBinvInto(t.uBuf, t.cols[enter])
		t.pivotDual(enter, leave, u)
		iters++
	}
}

// pivotDual performs the basis exchange for the dual simplex, where
// the leaving basic value is negative (theta < 0 is expected, unlike
// the primal ratio-tested pivot).
func (t *tableau) pivotDual(enter, leaveRow int, u []float64) {
	piv := u[leaveRow]
	theta := t.xB[leaveRow] / piv
	for i := 0; i < t.m; i++ {
		if i == leaveRow {
			continue
		}
		t.xB[i] -= theta * u[i]
	}
	t.xB[leaveRow] = theta

	inv := 1 / piv
	for j := 0; j < t.m; j++ {
		t.binv[leaveRow][j] *= inv
	}
	for i := 0; i < t.m; i++ {
		if i == leaveRow || u[i] == 0 {
			continue
		}
		f := u[i]
		for j := 0; j < t.m; j++ {
			t.binv[i][j] -= f * t.binv[leaveRow][j]
		}
	}
	leaving := t.basis[leaveRow]
	t.inBas[leaving] = false
	t.basis[leaveRow] = enter
	t.inBas[enter] = true

	t.pivotsSinceLU++
	if t.pivotsSinceLU >= 64 {
		t.refactorize()
	}
}

// driveOutArtificials pivots basic artificial variables (at zero level
// after a feasible phase 1) out of the basis where a nonzero structural
// pivot exists; rows with no such pivot are redundant and keep their
// artificial, which stays barred in phase 2.
func (t *tableau) driveOutArtificials() {
	for i := 0; i < t.m; i++ {
		if !t.isArtificial(t.basis[i]) {
			continue
		}
		// Prefer the largest pivot magnitude for numerical stability.
		// Two direction buffers alternate: one holds the best candidate
		// while the other probes the next column.
		bestJ := -1
		bestPiv := 1e-7
		var bestU []float64
		cur, spare := t.uBuf, t.uBuf2
		for j := 0; j < t.n-t.nArt; j++ {
			if t.inBas[j] || t.barred[j] {
				continue
			}
			u := t.applyBinvInto(cur, t.cols[j])
			if a := math.Abs(u[i]); a > bestPiv {
				bestPiv = a
				bestJ = j
				bestU = u
				cur, spare = spare, cur
			}
		}
		_ = spare
		if bestJ >= 0 {
			t.pivot(bestJ, i, bestU)
		}
	}
}

// applyBinvInto computes B⁻¹ v into dst.
func (t *tableau) applyBinvInto(dst []float64, v []float64) []float64 {
	for i := 0; i < t.m; i++ {
		dst[i] = dot(t.binv[i], v)
	}
	return dst
}

// dot returns the inner product of equal-length vectors.
func dot(a, b []float64) float64 {
	var v float64
	for i := range a {
		v += a[i] * b[i]
	}
	return v
}
