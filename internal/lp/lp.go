// Package lp implements a sparse linear programming solver: a two-phase
// revised simplex method over a compressed-sparse-column constraint
// matrix, with the basis kept as an LU factorization updated between
// pivots by product-form etas and refactorized periodically, Bland's-
// rule anti-cycling, native variable bounds with a bound-flip ratio
// test, and dual (simplex multiplier) extraction.
//
// Problems are stated as
//
//	min  cᵀx
//	s.t. aᵢᵀx {≤,=,≥} bᵢ   for every row i
//	     l ≤ x ≤ u          (l = 0, u = +∞ unless set via Lower/Upper)
//
// The dual values returned by Solve follow the standard convention for
// a minimization problem: y_i ≥ 0 for ≥ rows and y_i ≤ 0 for ≤ rows at
// optimality. These are the simplex multipliers λ used by the column
// generation master problem (eq. 18 of the paper).
//
// Master problems in this repository are extremely sparse (a schedule
// column touches at most 2·|L| rows) and column generation re-solves
// them many times, so the solver prices and pivots in sparse time. The historical dense
// tableau implementation is retained behind Options.Dense for
// differential testing. Columns can be appended between solves
// (Problem.AddColumn), which is exactly the column-generation access
// pattern.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Relation is the sense of one constraint row.
type Relation int8

// Constraint senses.
const (
	LE Relation = iota // aᵀx ≤ b
	EQ                 // aᵀx = b
	GE                 // aᵀx ≥ b
)

// String implements fmt.Stringer.
func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case EQ:
		return "=="
	case GE:
		return ">="
	default:
		return fmt.Sprintf("Relation(%d)", int8(r))
	}
}

// Status is the outcome of a solve.
type Status int8

// Solve outcomes.
const (
	StatusOptimal    Status = iota // an optimal basic solution was found
	StatusInfeasible               // no feasible point exists
	StatusUnbounded                // the objective is unbounded below
	StatusIterLimit                // iteration budget exhausted
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int8(s))
	}
}

// Problem is a linear program in row-major dense form. The zero value
// is an empty problem; add variables implicitly by growing C and rows
// via AddRow, or use NewProblem.
type Problem struct {
	C   []float64   // objective coefficients, one per variable
	A   [][]float64 // constraint rows, each of length len(C)
	Rel []Relation  // row senses, parallel to A
	B   []float64   // right-hand sides, parallel to A

	// Lower and Upper are optional per-variable bounds, handled natively
	// by the simplex (nonbasic-at-bound statuses and a bound-flip ratio
	// test) instead of as constraint rows. A nil Lower means all zeros —
	// the historical x ≥ 0 default — and a nil Upper means all +Inf; when
	// non-nil each must hold one entry per variable. Lower bounds must be
	// finite and non-negative; upper bounds may be +Inf. A variable whose
	// bounds cross (Lower[j] > Upper[j]) makes the problem trivially
	// infeasible, which Solve reports as StatusInfeasible rather than a
	// validation error (branch and bound legitimately creates such
	// boxes).
	Lower []float64
	Upper []float64
}

// NewProblem returns an empty problem with n variables whose objective
// coefficients are initialized from c (copied).
func NewProblem(c []float64) *Problem {
	p := &Problem{C: make([]float64, len(c))}
	copy(p.C, c)
	return p
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return len(p.C) }

// NumRows returns the number of constraint rows.
func (p *Problem) NumRows() int { return len(p.A) }

// AddRow appends the constraint coefᵀx rel b. coef is copied and padded
// or truncated to the current variable count.
func (p *Problem) AddRow(coef []float64, rel Relation, b float64) {
	row := make([]float64, len(p.C))
	copy(row, coef)
	p.A = append(p.A, row)
	p.Rel = append(p.Rel, rel)
	p.B = append(p.B, b)
}

// AddColumn appends a new variable with the given objective cost and
// per-row coefficients (col is copied; it must have one entry per
// existing row). The new variable gets the default bounds [0, +Inf).
// It returns the new variable's index. This is the column-generation
// entry point: the master problem grows by one schedule column per
// iteration.
func (p *Problem) AddColumn(cost float64, col []float64) (int, error) {
	if len(col) != len(p.A) {
		return 0, fmt.Errorf("lp: column has %d entries, want %d rows", len(col), len(p.A))
	}
	p.C = append(p.C, cost)
	for i := range p.A {
		p.A[i] = append(p.A[i], col[i])
	}
	if p.Lower != nil {
		p.Lower = append(p.Lower, 0)
	}
	if p.Upper != nil {
		p.Upper = append(p.Upper, math.Inf(1))
	}
	return len(p.C) - 1, nil
}

// SetBounds sets variable j's bounds to [lo, up], materializing the
// Lower/Upper arrays on first use.
func (p *Problem) SetBounds(j int, lo, up float64) {
	n := len(p.C)
	if p.Lower == nil {
		p.Lower = make([]float64, n)
	}
	if p.Upper == nil {
		p.Upper = make([]float64, n)
		for k := range p.Upper {
			p.Upper[k] = math.Inf(1)
		}
	}
	p.Lower[j] = lo
	p.Upper[j] = up
}

// lowerOf returns variable j's lower bound (0 when Lower is nil).
func (p *Problem) lowerOf(j int) float64 {
	if p.Lower == nil {
		return 0
	}
	return p.Lower[j]
}

// upperOf returns variable j's upper bound (+Inf when Upper is nil).
func (p *Problem) upperOf(j int) float64 {
	if p.Upper == nil {
		return math.Inf(1)
	}
	return p.Upper[j]
}

// hasBounds reports whether any variable carries a non-default bound
// (nonzero lower or finite upper).
func (p *Problem) hasBounds() bool {
	for _, l := range p.Lower {
		if l != 0 {
			return true
		}
	}
	for _, u := range p.Upper {
		if !math.IsInf(u, 1) {
			return true
		}
	}
	return false
}

// boundsCrossed returns the first variable whose bounds are empty
// (Lower[j] > Upper[j]), or -1.
func (p *Problem) boundsCrossed() int {
	if p.Lower == nil || p.Upper == nil {
		return -1
	}
	for j := range p.Lower {
		if p.Lower[j] > p.Upper[j] {
			return j
		}
	}
	return -1
}

// Validate reports structural errors: ragged rows, mismatched slice
// lengths, or non-finite data.
func (p *Problem) Validate() error {
	n := len(p.C)
	if len(p.Rel) != len(p.A) || len(p.B) != len(p.A) {
		return fmt.Errorf("lp: %d rows but %d relations and %d rhs entries", len(p.A), len(p.Rel), len(p.B))
	}
	for _, c := range p.C {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return errors.New("lp: non-finite objective coefficient")
		}
	}
	for i, row := range p.A {
		if len(row) != n {
			return fmt.Errorf("lp: row %d has %d coefficients, want %d", i, len(row), n)
		}
		for _, a := range row {
			if math.IsNaN(a) || math.IsInf(a, 0) {
				return fmt.Errorf("lp: non-finite coefficient in row %d", i)
			}
		}
		if math.IsNaN(p.B[i]) || math.IsInf(p.B[i], 0) {
			return fmt.Errorf("lp: non-finite rhs in row %d", i)
		}
	}
	if p.Lower != nil && len(p.Lower) != n {
		return fmt.Errorf("lp: %d lower bounds for %d variables", len(p.Lower), n)
	}
	if p.Upper != nil && len(p.Upper) != n {
		return fmt.Errorf("lp: %d upper bounds for %d variables", len(p.Upper), n)
	}
	for j, l := range p.Lower {
		if math.IsNaN(l) || math.IsInf(l, 0) || l < 0 {
			return fmt.Errorf("lp: lower bound of variable %d must be finite and non-negative, got %v", j, l)
		}
	}
	for j, u := range p.Upper {
		if math.IsNaN(u) || math.IsInf(u, -1) {
			return fmt.Errorf("lp: invalid upper bound %v on variable %d", u, j)
		}
	}
	return nil
}

// Clone returns a deep copy of the problem.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		C:   append([]float64(nil), p.C...),
		Rel: append([]Relation(nil), p.Rel...),
		B:   append([]float64(nil), p.B...),
		A:   make([][]float64, len(p.A)),
	}
	if p.Lower != nil {
		q.Lower = append([]float64(nil), p.Lower...)
	}
	if p.Upper != nil {
		q.Upper = append([]float64(nil), p.Upper...)
	}
	for i, row := range p.A {
		q.A[i] = append([]float64(nil), row...)
	}
	return q
}

// BasisVarKind distinguishes the two kinds of basis members a caller
// can round-trip between solves.
type BasisVarKind uint8

// Basis member kinds.
const (
	// BasisStructural refers to structural variable Index (a column of
	// the caller's problem).
	BasisStructural BasisVarKind = iota
	// BasisAux refers to the auxiliary (slack/surplus, or the retained
	// artificial of a redundant row) variable of row Index.
	BasisAux
)

// BasisVar identifies one member of an optimal basis in
// representation-independent terms, so a basis survives column
// additions between solves (the column-generation warm-start pattern).
type BasisVar struct {
	Kind  BasisVarKind
	Index int
}

// Solution is the result of a solve.
type Solution struct {
	Status     Status
	X          []float64 // primal values, one per structural variable
	Objective  float64   // cᵀx at the returned point (valid when optimal)
	Dual       []float64 // simplex multipliers, one per row (valid when optimal)
	Iterations int       // total simplex pivots across both phases
	// Refactorizations counts the basis-inverse rebuilds performed during
	// the solve (periodic numerical-hygiene refreshes plus the final
	// pre-extraction refresh); exposed for observability.
	Refactorizations int
	// Basis is the optimal basis (one entry per row), reusable as
	// Options.WarmBasis on a later solve of the same problem — possibly
	// with columns appended.
	Basis []BasisVar
	// Warm reports that the caller-provided WarmBasis was usable: the
	// solve skipped phase 1 (primal-feasible basis) or repaired the
	// basis with the dual simplex after a right-hand-side change — in
	// the repair case even when the repair needed zero pivots or proved
	// the tightened problem infeasible.
	Warm bool
	// ReducedCost holds each structural variable's reduced cost
	// c_j − yᵀa_j at the returned basis (zero for basic variables; valid
	// when optimal). The legacy dense path leaves it nil on bounded
	// problems.
	ReducedCost []float64
	// EtaUpdates counts the product-form (Forrest–Tomlin-style) basis
	// updates applied between refactorizations; always zero on the
	// legacy dense path, which carries an explicit inverse instead.
	EtaUpdates int
	// FillRatio is nnz(L+U) / nnz(B) of the final basis factorization —
	// the sparse core's fill-in, ~1.0 when the factors stay as sparse as
	// the basis itself. Zero on the legacy dense path.
	FillRatio float64
}

// Options tunes the solver.
type Options struct {
	// MaxIter caps total pivots across both phases. Zero means the
	// default (20000 + 50·(rows+cols)).
	MaxIter int
	// Tol is the feasibility/optimality tolerance. Zero means 1e-9.
	Tol float64
	// WarmBasis, when non-nil, seeds the solve with a previously
	// returned basis: if it is still primal feasible for the (possibly
	// column-extended) problem, phase 1 is skipped entirely. An
	// unusable basis silently falls back to a cold start.
	WarmBasis []BasisVar
	// Dense forces the legacy dense tableau simplex instead of the
	// sparse revised simplex. Retained for differential testing only:
	// the two paths make identical pivot decisions on unbounded-variable
	// problems. Bounded problems are handled on the dense path by
	// materializing bound rows on a clone, which costs the warm-start
	// surface (no Basis or ReducedCost is returned and WarmBasis is
	// rejected by shape).
	Dense bool
}

// Solve optimizes the problem with default options.
func Solve(p *Problem) (*Solution, error) { return SolveWith(p, Options{}) }

// RemapStructurals rewrites the structural indices of a basis after
// the caller removed columns (the column-GC pattern): structural
// indices at or above offset are schedule columns and are remapped
// through colMap (old column → new column, -1 for removed ones);
// indices below offset are fixed variables and pass through, as do
// auxiliary entries (they are row-addressed and rows never move). It
// reports false — and the basis must be discarded — if any basis
// member was removed or maps out of range.
func RemapStructurals(basis []BasisVar, offset int, colMap []int) ([]BasisVar, bool) {
	out := make([]BasisVar, len(basis))
	for i, bv := range basis {
		if bv.Kind == BasisStructural && bv.Index >= offset {
			old := bv.Index - offset
			if old >= len(colMap) {
				return nil, false
			}
			nj := colMap[old]
			if nj < 0 {
				return nil, false
			}
			bv.Index = offset + nj
		}
		out[i] = bv
	}
	return out, true
}

// Objective evaluates cᵀx for the problem (a convenience for tests and
// bound computations).
func (p *Problem) Objective(x []float64) float64 {
	var v float64
	for j, c := range p.C {
		if j < len(x) {
			v += c * x[j]
		}
	}
	return v
}
