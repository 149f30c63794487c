// Package lp implements a sparse linear programming solver: a two-phase
// revised simplex method over a compressed-sparse-column constraint
// matrix, with the basis kept as an LU factorization updated between
// pivots by product-form etas and refactorized periodically, a dual
// simplex for warm repair, Bland's-rule anti-cycling in both the primal
// and the dual simplex, and dual (simplex multiplier) extraction.
//
// Problems are stated as
//
//	min  cᵀx
//	s.t. aᵢᵀx {≤,=,≥} bᵢ   for every row i
//	     x ≥ 0
//
// Any other bound on a variable is a constraint row: the masters in this
// repository need none beyond x ≥ 0.
//
// The dual values returned by Solve follow the standard convention for
// a minimization problem: y_i ≥ 0 for ≥ rows and y_i ≤ 0 for ≤ rows at
// optimality. These are the simplex multipliers λ used by the column
// generation master problem (eq. 18 of the paper).
//
// Master problems in this repository are extremely sparse (a schedule
// column touches at most 2·|L| rows) and column generation re-solves
// them many times, so the solver prices and pivots in sparse time.
// There is one simplex driver; only the basis inverse behind it
// varies. Options.Dense swaps the LU for an explicit dense B⁻¹, the
// reference the LU arithmetic is tested against pivot for pivot.
// Columns can be appended between solves
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
// existing row). It returns the new variable's index. This is the column-generation
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
	return len(p.C) - 1, nil
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
	return nil
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
	// EtaUpdates counts the product-form basis updates applied between
	// refactorizations: one per pivot, with either basis inverse.
	EtaUpdates int
	// FillRatio is nnz(L+U) / nnz(B) of the final basis factorization —
	// the LU's fill-in, ~1.0 when the factors stay as sparse as the
	// basis itself. Zero under Options.Dense, whose explicit inverse is
	// not a factorization.
	FillRatio float64
}

// Options tunes the solver.
type Options struct {
	// MaxIter caps total pivots across both phases. Zero means the
	// default (20000 + 50·(rows+cols)).
	MaxIter int
	// WarmBasis, when non-nil, seeds the solve with a previously
	// returned basis: if it is still primal feasible for the (possibly
	// column-extended) problem, phase 1 is skipped entirely. An
	// unusable basis silently falls back to a cold start.
	WarmBasis []BasisVar
	// Dense swaps the LU factorization and eta file for an explicit
	// basis inverse rebuilt by Gauss-Jordan elimination. The simplex
	// driver and its pivot rules are the same, so the two differ only
	// in arithmetic order; it is the differential-testing reference for
	// the LU, not a production path.
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
