package lp

import "math"

// This file is the simplex driver: a two-phase revised simplex over a
// compressed-sparse-column matrix, with a dual simplex for warm repair.
// It holds every pivot rule — Dantzig pricing with the scoreNoise
// set-aside and a Bland fallback under stall, the ratio tests with
// their tolerances and smaller-column-index tie-breaks, the
// degenerate-theta and basic-value clamps, the dual Bland fallback,
// the phase-1 feasibility threshold — once. Only the basis inverse
// varies: luInverse (lu.go) in production, denseInverse (dense.go) as
// the reference behind Options.Dense. Nonbasic columns always sit at
// zero.

// basisInverse represents B⁻¹ for the driver. Vectors passed to ftran
// arrive row-indexed and leave slot-indexed; btran goes the other way.
type basisInverse interface {
	// factorize rebuilds the representation from the m×m basis in CSC
	// form (column s is the basis column in slot s). On failure the old
	// representation stays in use.
	factorize(m int, colPtr, rowIdx []int, val []float64) bool
	ftran(v []float64)
	btran(v []float64)
	// update absorbs the exchange at slot r with direction d = B⁻¹a_enter.
	update(r int, d []float64)
	// fillRatio is the fill-in reported as Solution.FillRatio.
	fillRatio() float64
}

// warmOutcome classifies what a caller-provided basis is good for.
type warmOutcome uint8

const (
	warmUnusable       warmOutcome = iota // fall back to cold start
	warmPrimalFeasible                    // xB ≥ 0: run primal phase 2 directly
	warmDualFeasible                      // xB has negatives but prices ≥ 0: dual simplex
)

// spx is the working state of the simplex. Every slice is reused
// across solves; at steady state (unchanged problem shape) a solve
// allocates only its Solution.
type spx struct {
	m, n    int // rows, total columns (structural + slack/surplus + artificial)
	nStruct int
	nArt    int

	// Structural columns in CSC form, with row equilibration and sign
	// flips already applied. Auxiliary columns are implicit unit
	// columns: column nStruct+k has the single entry auxVal[k] in row
	// auxRow[k].
	colPtr []int
	rowIdx []int
	colVal []float64
	auxRow []int
	auxVal []float64

	bRaw  []float64 // standardized rhs (scaled, flipped)
	costs []float64 // phase-2 costs: structural costs then zeros
	c1    []float64 // phase-1 costs: 1 on artificials

	rowScale   []float64
	rowFlipped []bool
	slackOf    []int // per row: slack/surplus column, -1 for EQ rows
	artOf      []int // per row: artificial column, -1 for LE rows

	basis  []int     // column per slot (slot == row)
	slotOf []int     // per column: basis slot, -1 if nonbasic
	xB     []float64 // basic values, slot-indexed
	barred []bool
	// noisy marks columns set aside for one pricing round because
	// their computed reduced cost sits inside its own roundoff band
	// (see scoreNoise); noisyList records them for cheap clearing.
	noisy     []bool
	noisyList []int

	inv basisInverse

	pivotsSinceLU    int
	refactorizations int
	etaUpdates       int

	// Scratch: pricing duals, pivot directions (two, for the candidate
	// swap in driveOutArtificials), the B⁻¹ row of the dual ratio test,
	// and the basis-matrix CSC handed to the factorizer.
	yBuf      []float64
	uBuf      []float64
	uBuf2     []float64
	rhoBuf    []float64
	basColPtr []int
	basRowIdx []int
	basVal    []float64

	warmCand []int
	warmSeen []bool
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

func (s *spx) isArtificial(j int) bool { return j >= s.n-s.nArt }

func (s *spx) phase1Costs() []float64 { return s.c1 }
func (s *spx) phase2Costs() []float64 { return s.costs }

// fill (re)standardizes the problem: row equilibration, sign flips to
// make the initial point feasible for phase 1, CSC assembly, and the
// slack/artificial starting basis with every structural at zero.
func (s *spx) fill(p *Problem) {
	m := p.NumRows()
	nStruct := p.NumVars()
	s.pivotsSinceLU = 0
	s.refactorizations = 0
	s.etaUpdates = 0

	s.rowFlipped = growB(s.rowFlipped, m)
	s.bRaw = growF(s.bRaw, m)
	s.rowScale = growF(s.rowScale, m)
	s.slackOf = growI(s.slackOf, m)
	s.artOf = growI(s.artOf, m)

	// Row pass: equilibration scale (1/max |structural coefficient|)
	// and the flip decision (b < 0), so the initial basic values come
	// out non-negative. Equilibration keeps pivot magnitudes O(1)
	// whatever the caller's units (master-problem rates are ~1e8
	// bits/s); without it, noise-level pivots wreck the factorization.
	nSlack, nArt := 0, 0
	nnz := 0
	for i := 0; i < m; i++ {
		row := p.A[i]
		maxAbs := 0.0
		for j := 0; j < nStruct; j++ {
			if a := math.Abs(row[j]); a > maxAbs {
				maxAbs = a
			}
			if row[j] != 0 {
				nnz++
			}
		}
		scale := 1.0
		if maxAbs > 0 {
			scale = 1 / maxAbs
		}
		s.rowScale[i] = scale

		s.rowFlipped[i] = p.B[i] < 0
		sign := 1.0
		if s.rowFlipped[i] {
			sign = -1
		}
		s.bRaw[i] = sign * scale * p.B[i]
		switch effectiveRel(p, i) {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	n := nStruct + nSlack + nArt
	s.m, s.n, s.nStruct, s.nArt = m, n, nStruct, nArt

	// CSC assembly of the structural columns.
	s.colPtr = growI(s.colPtr, nStruct+1)
	s.rowIdx = growI(s.rowIdx, nnz)
	s.colVal = growF(s.colVal, nnz)
	at := 0
	for j := 0; j < nStruct; j++ {
		s.colPtr[j] = at
		for i := 0; i < m; i++ {
			v := p.A[i][j]
			if v == 0 {
				continue
			}
			if s.rowFlipped[i] {
				v = -v
			}
			s.rowIdx[at] = i
			s.colVal[at] = v * s.rowScale[i]
			at++
		}
	}
	s.colPtr[nStruct] = at

	// Auxiliary columns and the starting basis: slack/surplus columns
	// first in row order, then artificials.
	s.auxRow = growI(s.auxRow, nSlack+nArt)
	s.auxVal = growF(s.auxVal, nSlack+nArt)
	s.basis = growI(s.basis, m)
	slackAt := nStruct
	artAt := nStruct + nSlack
	for i := 0; i < m; i++ {
		s.slackOf[i] = -1
		s.artOf[i] = -1
		switch effectiveRel(p, i) {
		case LE:
			s.auxRow[slackAt-nStruct] = i
			s.auxVal[slackAt-nStruct] = 1
			s.slackOf[i] = slackAt
			s.basis[i] = slackAt
			slackAt++
		case GE:
			s.auxRow[slackAt-nStruct] = i
			s.auxVal[slackAt-nStruct] = -1
			s.slackOf[i] = slackAt
			slackAt++
			s.auxRow[artAt-nStruct] = i
			s.auxVal[artAt-nStruct] = 1
			s.artOf[i] = artAt
			s.basis[i] = artAt
			artAt++
		case EQ:
			s.auxRow[artAt-nStruct] = i
			s.auxVal[artAt-nStruct] = 1
			s.artOf[i] = artAt
			s.basis[i] = artAt
			artAt++
		}
	}

	// Costs and basis membership.
	s.costs = growF(s.costs, n)
	for j := range s.costs {
		s.costs[j] = 0
	}
	copy(s.costs, p.C)
	s.c1 = growF(s.c1, n)
	for j := range s.c1 {
		if j >= n-nArt {
			s.c1[j] = 1
		} else {
			s.c1[j] = 0
		}
	}
	s.slotOf = growI(s.slotOf, n)
	s.resetSlots()
	s.barred = growB(s.barred, n)
	s.noisy = growB(s.noisy, n)
	s.noisyList = s.noisyList[:0]
	s.xB = growF(s.xB, m)

	s.yBuf = growF(s.yBuf, m)
	s.uBuf = growF(s.uBuf, m)
	s.uBuf2 = growF(s.uBuf2, m)
	s.rhoBuf = growF(s.rhoBuf, m)

	// Initial factorization (unit columns) and basic values. Not
	// counted as a refactorization.
	s.factorizeBasis()
	s.computeXB()
}

// resetSlots rebuilds slotOf from the basis.
func (s *spx) resetSlots() {
	for j := range s.slotOf {
		s.slotOf[j] = -1
	}
	for r, j := range s.basis {
		s.slotOf[j] = r
	}
}

// isBasic reports whether column j is in the basis.
func (s *spx) isBasic(j int) bool { return s.slotOf[j] >= 0 }

// factorizeBasis gathers the basis columns into CSC form and
// refactorizes the inverse; on failure the previous representation
// stays live.
func (s *spx) factorizeBasis() bool {
	m := s.m
	need := 0
	for _, j := range s.basis {
		if j < s.nStruct {
			need += s.colPtr[j+1] - s.colPtr[j]
		} else {
			need++
		}
	}
	s.basColPtr = growI(s.basColPtr, m+1)
	s.basRowIdx = growI(s.basRowIdx, need)
	s.basVal = growF(s.basVal, need)
	at := 0
	for r, j := range s.basis {
		s.basColPtr[r] = at
		if j < s.nStruct {
			for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
				s.basRowIdx[at] = s.rowIdx[k]
				s.basVal[at] = s.colVal[k]
				at++
			}
		} else {
			s.basRowIdx[at] = s.auxRow[j-s.nStruct]
			s.basVal[at] = s.auxVal[j-s.nStruct]
			at++
		}
	}
	s.basColPtr[m] = at

	if !s.inv.factorize(m, s.basColPtr, s.basRowIdx, s.basVal) {
		return false
	}
	s.pivotsSinceLU = 0
	return true
}

// refactorize rebuilds the inverse (counting it) and refreshes the basic
// values from the rhs; on failure the stale factors stay in
// use and xB is left untouched.
func (s *spx) refactorize() bool {
	s.pivotsSinceLU = 0
	s.refactorizations++
	if !s.factorizeBasis() {
		return false
	}
	s.computeXB()
	return true
}

// computeXB solves B·xB = b and snaps roundoff negatives above −1e-7
// to zero.
func (s *spx) computeXB() {
	copy(s.xB, s.bRaw)
	s.inv.ftran(s.xB)
	for r, v := range s.xB {
		if v < 0 && v > -1e-7 {
			s.xB[r] = 0
		}
	}
}

// ftranColInto computes B⁻¹ a_j into dst (slot-indexed).
func (s *spx) ftranColInto(dst []float64, j int) []float64 {
	for i := range dst {
		dst[i] = 0
	}
	if j < s.nStruct {
		for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
			dst[s.rowIdx[k]] = s.colVal[k]
		}
	} else {
		dst[s.auxRow[j-s.nStruct]] = s.auxVal[j-s.nStruct]
	}
	s.inv.ftran(dst)
	return dst
}

// pricingDuals computes y = B⁻ᵀ c_B into yBuf (row-indexed).
func (s *spx) pricingDuals(c []float64) []float64 {
	y := s.yBuf
	for r, j := range s.basis {
		y[r] = c[j]
	}
	s.inv.btran(y)
	return y
}

// btranUnit computes row r of B⁻¹ (as B⁻ᵀ e_r) into rhoBuf
// (row-indexed).
func (s *spx) btranUnit(r int) []float64 {
	rho := s.rhoBuf
	for i := range rho {
		rho[i] = 0
	}
	rho[r] = 1
	s.inv.btran(rho)
	return rho
}

// colDot is yᵀ a_j for a row-indexed vector y.
func (s *spx) colDot(y []float64, j int) float64 {
	if j < s.nStruct {
		var v float64
		for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
			v += y[s.rowIdx[k]] * s.colVal[k]
		}
		return v
	}
	return y[s.auxRow[j-s.nStruct]] * s.auxVal[j-s.nStruct]
}

// objective is cᵀx_B at the current point (nonbasic columns sit at
// zero).
func (s *spx) objective(c []float64) float64 {
	var v float64
	for r, j := range s.basis {
		v += c[j] * s.xB[r]
	}
	return v
}

// scoreNoise bounds the floating-point cancellation error of a
// computed reduced cost c[j] − y·a_j: a small multiple of machine
// epsilon times the absolute-value sum of the terms. A score inside
// this band carries no sign information — pivoting on it lets two
// numerically near-duplicate columns swap in and out of the basis
// forever, each "improving" on the other by roundoff (observed on
// quality-mode masters, whose objective sits around 1e8: both twins
// price at −3e−8 with term magnitudes near 4e8 no matter which one is
// basic, a nondegenerate cycle Bland's rule cannot break).
func (s *spx) scoreNoise(c, y []float64, j int) float64 {
	const relEps = 1e-13 // a few hundred ulps: generous for these row counts
	a := math.Abs(c[j])
	if j < s.nStruct {
		for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
			a += math.Abs(y[s.rowIdx[k]] * s.colVal[k])
		}
	} else {
		a += math.Abs(y[s.auxRow[j-s.nStruct]] * s.auxVal[j-s.nStruct])
	}
	return relEps * a
}

// run performs primal simplex pivots under costs c until optimality,
// unboundedness, or the iteration budget runs out.
func (s *spx) run(c []float64, maxIter int, phase1 bool) (Status, int) {
	if !phase1 {
		for j := s.n - s.nArt; j < s.n; j++ {
			s.barred[j] = true
		}
	}
	iters := 0
	stall := 0
	lastObj := math.Inf(1)
	for {
		if iters >= maxIter {
			return StatusIterLimit, iters
		}
		y := s.pricingDuals(c)
		useBland := stall > 2*s.m+20

		// Pricing: the most negative reduced cost wins. A winner whose
		// score sits inside its own roundoff band (scoreNoise) is set
		// aside for this round and the scan repeats — almost always zero
		// extra scans, and only near optimality on badly scaled
		// objectives.
		enter := -1
		for {
			enter = -1
			best := -tol
			chosen := 0.0
			for j := 0; j < s.n; j++ {
				if s.isBasic(j) || s.barred[j] || s.noisy[j] {
					continue
				}
				score := c[j] - s.colDot(y, j)
				if useBland {
					if score < -tol {
						enter = j
						chosen = score
						break
					}
				} else if score < best {
					best = score
					chosen = score
					enter = j
				}
			}
			if enter < 0 || -chosen > s.scoreNoise(c, y, enter) {
				break
			}
			s.noisy[enter] = true
			s.noisyList = append(s.noisyList, enter)
		}
		if len(s.noisyList) > 0 {
			for _, j := range s.noisyList {
				s.noisy[j] = false
			}
			s.noisyList = s.noisyList[:0]
		}
		if enter < 0 {
			return StatusOptimal, iters
		}

		u := s.ftranColInto(s.uBuf, enter)

		// Ratio test: the entering variable grows from zero until a
		// basic variable it drives down reaches zero, ties going to the
		// smaller column index. The pivot threshold separates
		// cancellation noise (≈1e-15 relative after row equilibration)
		// from genuine small entries caused by mixed-scale rows (e.g.
		// 1e-8 when rate and unit coefficients share a column); only the
		// former may be skipped — a skipped positive entry would let
		// theta run past its row's feasibility limit. Roundoff-negative
		// basic values count as zero.
		maxU := 0.0
		for i := 0; i < s.m; i++ {
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
		for i := 0; i < s.m; i++ {
			if u[i] <= pivTol {
				continue
			}
			room := s.xB[i]
			if room < 0 {
				room = 0
			}
			r := room / u[i]
			if r < minRatio-tol ||
				(r < minRatio+tol && (leaveRow < 0 || s.basis[i] < s.basis[leaveRow])) {
				minRatio = r
				leaveRow = i
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

		s.pivot(enter, leaveRow, u)
		iters++

		obj := s.objective(c)
		if obj < lastObj-tol {
			stall = 0
			lastObj = obj
		} else {
			stall++
		}
	}
}

// pivot performs the basis exchange: the entering column replaces
// slot leaveRow, whose variable leaves at zero. A roundoff-negative
// theta is a degenerate pivot at the bound, and roundoff-negative
// basic values snap to zero.
func (s *spx) pivot(enter, leaveRow int, u []float64) {
	theta := s.xB[leaveRow] / u[leaveRow]
	if theta < 0 && theta > -1e-7 {
		theta = 0
	}
	for i := 0; i < s.m; i++ {
		if i == leaveRow {
			continue
		}
		s.xB[i] -= theta * u[i]
		if s.xB[i] < 0 && s.xB[i] > -1e-9 {
			s.xB[i] = 0
		}
	}
	// 0 + θ turns a −0 θ into +0, the value the entering variable
	// takes from zero.
	s.xB[leaveRow] = 0 + theta
	s.exchange(enter, leaveRow, u)
}

// exchange installs column enter in slot leaveRow, updates the
// inverse with direction u, and refactorizes every 64 pivots.
func (s *spx) exchange(enter, leaveRow int, u []float64) {
	s.slotOf[s.basis[leaveRow]] = -1
	s.basis[leaveRow] = enter
	s.slotOf[enter] = leaveRow

	s.inv.update(leaveRow, u)
	s.etaUpdates++
	s.pivotsSinceLU++
	if s.pivotsSinceLU >= 64 {
		s.refactorize()
	}
}

// runDual performs dual simplex pivots from a dual-feasible basis
// until every basic value is non-negative (optimal), proven primal
// infeasibility, or the iteration budget runs out.
//
// Anti-cycling: the dual objective cᵀx_B never falls, but on the
// heavily dual-degenerate column-generation masters it can stay flat
// while the most-negative leaving rule cycles. After more than 2·n
// consecutive pivots that do not raise it by more than tol, the
// leaving row becomes the infeasible row whose basic column index is
// smallest — with the smallest-index entering tie-break, this is
// Bland's rule for the dual — until the objective moves again. The
// threshold scales with the column count and is entered late on
// purpose: shorter runs of degenerate pivots are common in repairs
// that do terminate, Bland's rule often takes more pivots, and under
// the ratio tests' tolerance bands it is not guaranteed finite either.
func (s *spx) runDual(c []float64, maxIter int) (Status, int) {
	// Artificials stay barred exactly as in primal phase 2.
	for j := s.n - s.nArt; j < s.n; j++ {
		s.barred[j] = true
	}
	iters := 0
	stall := 0
	lastObj := math.Inf(-1)
	for {
		if iters >= maxIter {
			return StatusIterLimit, iters
		}
		// Leaving row: the most negative basic value, or under stall
		// the infeasible row with the smallest basic column index.
		useBland := stall > 2*s.n
		leave := -1
		worst := -tol
		for i := 0; i < s.m; i++ {
			switch {
			case useBland && s.xB[i] < -tol:
				if leave < 0 || s.basis[i] < s.basis[leave] {
					leave = i
				}
			case !useBland && s.xB[i] < worst:
				worst = s.xB[i]
				leave = i
			}
		}
		if leave < 0 {
			return StatusOptimal, iters // primal feasible and dual feasible
		}

		// Entering: the dual ratio test over row leave of B⁻¹A. A
		// candidate needs a negative entry to push the leaving value up;
		// among candidates the smallest reduced-cost ratio keeps dual
		// feasibility, ties going to the smaller column index.
		rho := s.btranUnit(leave)
		y := s.pricingDuals(c)
		enter := -1
		bestRatio := math.Inf(1)
		for j := 0; j < s.n; j++ {
			if s.isBasic(j) || s.barred[j] {
				continue
			}
			alpha := s.colDot(rho, j)
			if alpha >= -1e-9 {
				continue
			}
			rc := c[j] - s.colDot(y, j)
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

		u := s.ftranColInto(s.uBuf, enter)
		s.pivotDual(enter, leave, u)
		iters++

		obj := s.objective(c)
		if obj > lastObj+tol {
			stall = 0
			lastObj = obj
		} else {
			stall++
		}
	}
}

// pivotDual performs the dual basis exchange: the leaving variable
// lands exactly on zero; no feasibility clamps apply (subsequent
// iterations repair any remaining violations).
func (s *spx) pivotDual(enter, leaveRow int, u []float64) {
	theta := s.xB[leaveRow] / u[leaveRow]
	for i := 0; i < s.m; i++ {
		if i == leaveRow {
			continue
		}
		s.xB[i] -= theta * u[i]
	}
	s.xB[leaveRow] = 0 + theta // as in pivot: a −0 θ lands as +0
	s.exchange(enter, leaveRow, u)
}

// driveOutArtificials pivots zero-level basic artificials out of the
// basis where a usable structural pivot exists (largest magnitude
// above 1e-7, for numerical stability); rows without one are redundant
// and keep their artificial, barred in phase 2. Two direction buffers
// alternate: one holds the best candidate while the other probes the
// next column.
func (s *spx) driveOutArtificials() {
	for i := 0; i < s.m; i++ {
		if !s.isArtificial(s.basis[i]) {
			continue
		}
		bestJ := -1
		bestPiv := 1e-7
		var bestU []float64
		cur, spare := s.uBuf, s.uBuf2
		for j := 0; j < s.n-s.nArt; j++ {
			if s.isBasic(j) || s.barred[j] {
				continue
			}
			u := s.ftranColInto(cur, j)
			if a := math.Abs(u[i]); a > bestPiv {
				bestPiv = a
				bestJ = j
				bestU = u
				cur, spare = spare, cur
			}
		}
		_ = spare
		if bestJ >= 0 {
			s.pivot(bestJ, i, bestU)
		}
	}
}

// tryWarmStart installs a caller-provided basis and classifies it: the
// basis must decode, not repeat columns, and factorize; a basis whose
// basic values are non-negative (±1e-7) goes straight to phase 2 even
// if some reduced cost is negative, a dual-feasible one goes to the
// dual simplex, anything else restores the cold start.
func (s *spx) tryWarmStart(warm []BasisVar) warmOutcome {
	if len(warm) != s.m {
		return warmUnusable
	}
	s.warmCand = growI(s.warmCand, s.m)
	cand := s.warmCand
	s.warmSeen = growB(s.warmSeen, s.n)
	seen := s.warmSeen
	for r, bv := range warm {
		var j int
		switch bv.Kind {
		case BasisStructural:
			if bv.Index < 0 || bv.Index >= s.nStruct {
				return warmUnusable
			}
			j = bv.Index
		case BasisAux:
			if bv.Index < 0 || bv.Index >= s.m {
				return warmUnusable
			}
			j = s.slackOf[bv.Index]
			if j < 0 {
				j = s.artOf[bv.Index]
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

	copy(s.basis, cand)
	s.resetSlots()
	s.refactorizations++ // the candidate factorization
	if !s.factorizeBasis() {
		s.restoreColdBasis()
		return warmUnusable
	}

	s.computeXB()
	primal := true
	for _, v := range s.xB {
		if v < -1e-7 {
			primal = false
			break
		}
	}
	if primal {
		// Phase 2 runs from here even when dual-infeasible columns
		// exist — primal pivots price them in.
		return warmPrimalFeasible
	}
	// Primal infeasible: usable by the dual simplex iff every nonbasic
	// column (artificials skipped) prices out non-negatively.
	c := s.phase2Costs()
	y := s.pricingDuals(c)
	for j := 0; j < s.n; j++ {
		if s.isBasic(j) || s.isArtificial(j) {
			continue
		}
		if c[j]-s.colDot(y, j) < -1e-7 {
			s.restoreColdBasis()
			return warmUnusable
		}
	}
	return warmDualFeasible
}

// restoreColdBasis rebuilds the slack/artificial starting state after
// a rejected warm basis. The cold basis is all unit columns, so the
// factorization cannot fail.
func (s *spx) restoreColdBasis() {
	for i := 0; i < s.m; i++ {
		if s.slackOf[i] >= 0 && s.auxVal[s.slackOf[i]-s.nStruct] > 0 {
			s.basis[i] = s.slackOf[i] // LE row: its slack
		} else {
			s.basis[i] = s.artOf[i] // GE/EQ row: its artificial
		}
	}
	s.resetSlots()
	s.factorizeBasis()
	s.computeXB()
}

// encodeBasis renders the basis in representation-independent form.
func (s *spx) encodeBasis() []BasisVar {
	out := make([]BasisVar, s.m)
	for r, j := range s.basis {
		if j < s.nStruct {
			out[r] = BasisVar{Kind: BasisStructural, Index: j}
		} else {
			out[r] = BasisVar{Kind: BasisAux, Index: s.auxRow[j-s.nStruct]}
		}
	}
	return out
}

// solve runs the two-phase simplex in the workspace. The caller has
// already validated the problem, resolved the maxIter default, and
// handled the zero-row case.
func (s *spx) solve(p *Problem, opt Options, maxIter int) (*Solution, error) {
	s.fill(p)

	iters1 := 0
	warmUsed := false
	switch s.tryWarmStart(opt.WarmBasis) {
	case warmPrimalFeasible:
		warmUsed = true
	case warmDualFeasible:
		warmUsed = true
		// Dual repair after a right-hand-side change. Warm is
		// reported even when the repair needs zero pivots or proves the
		// tightened problem infeasible — the basis did its job.
		st, it := s.runDual(s.phase2Costs(), maxIter)
		iters1 = it
		switch st {
		case StatusIterLimit:
			return s.failSolution(StatusIterLimit, iters1, true), nil
		case StatusInfeasible:
			return s.failSolution(StatusInfeasible, iters1, true), nil
		}
	default:
		var st Status
		st, iters1 = s.run(s.phase1Costs(), maxIter, true)
		if st == StatusIterLimit {
			return s.failSolution(StatusIterLimit, iters1, false), nil
		}
		if s.objective(s.phase1Costs()) > 1e-6 {
			return s.failSolution(StatusInfeasible, iters1, false), nil
		}
		s.driveOutArtificials()
	}

	st, iters2 := s.run(s.phase2Costs(), maxIter-iters1, false)
	iters := iters1 + iters2
	switch st {
	case StatusUnbounded:
		return s.failSolution(StatusUnbounded, iters, warmUsed), nil
	case StatusIterLimit:
		return s.failSolution(StatusIterLimit, iters, warmUsed), nil
	}

	// Fresh factorization before extraction so the reported point is
	// exactly B⁻¹·b for the final basis.
	s.refactorize()

	x := make([]float64, s.nStruct)
	for j := 0; j < s.nStruct; j++ {
		r := s.slotOf[j]
		if r < 0 {
			continue
		}
		x[j] = s.xB[r]
		// Clean tiny negatives from roundoff.
		if x[j] < 0 && x[j] > -1e-7 {
			x[j] = 0
		}
	}

	yInt := s.pricingDuals(s.phase2Costs())
	// Undo equilibration and row flips so the duals refer to the
	// caller's original rows.
	dual := make([]float64, s.m)
	for i := 0; i < s.m; i++ {
		dual[i] = yInt[i] * s.rowScale[i]
		if s.rowFlipped[i] {
			dual[i] = -dual[i]
		}
	}

	sol := &Solution{
		Status:           StatusOptimal,
		X:                x,
		Dual:             dual,
		Iterations:       iters,
		Refactorizations: s.refactorizations,
		Basis:            s.encodeBasis(),
		Warm:             warmUsed,
		EtaUpdates:       s.etaUpdates,
		FillRatio:        s.inv.fillRatio(),
	}
	sol.Objective = p.Objective(x)
	return sol, nil
}

// failSolution packages a non-optimal outcome with the solve counters.
func (s *spx) failSolution(st Status, iters int, warm bool) *Solution {
	return &Solution{
		Status:           st,
		Iterations:       iters,
		Refactorizations: s.refactorizations,
		Warm:             warm,
		EtaUpdates:       s.etaUpdates,
		FillRatio:        s.inv.fillRatio(),
	}
}
