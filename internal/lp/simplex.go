package lp

// tol is the feasibility and optimality tolerance of the simplex.
const tol = 1e-9

// SolveWith optimizes the problem with explicit options using the
// revised simplex method (LU basis inverse by default, the explicit
// dense inverse behind Options.Dense).
func SolveWith(p *Problem, opt Options) (*Solution, error) {
	s := Solver{p: p}
	return s.Solve(opt)
}

// Solver is a reusable simplex workspace bound to one Problem. Solve
// re-reads the problem's current coefficients each call, so callers
// may mutate C, B or A entries (and even append rows or columns — the
// workspace regrows) between solves; at steady state a solve allocates
// only its Solution. A Solver is not safe for concurrent use.
type Solver struct {
	p     *Problem
	lu    *spx // LU-inverse workspace, allocated on first default solve
	dense *spx // dense-inverse workspace, allocated on first Dense solve
}

// NewSolver binds a reusable solver to the problem.
func NewSolver(p *Problem) *Solver { return &Solver{p: p} }

// Solve optimizes the bound problem's current state.
func (s *Solver) Solve(opt Options) (*Solution, error) {
	p := s.p
	if err := p.Validate(); err != nil {
		return nil, err
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 20000 + 50*(p.NumRows()+p.NumVars())
	}

	if p.NumRows() == 0 {
		// No rows: every variable rests at zero unless a negative cost
		// makes its ray unbounded.
		x := make([]float64, p.NumVars())
		for j := range x {
			if p.C[j] < -tol {
				return &Solution{Status: StatusUnbounded, X: x}, nil
			}
		}
		sol := &Solution{Status: StatusOptimal, X: x}
		sol.Objective = p.Objective(x)
		return sol, nil
	}

	if opt.Dense {
		if s.dense == nil {
			s.dense = &spx{inv: &denseInverse{}}
		}
		return s.dense.solve(p, opt, maxIter)
	}
	if s.lu == nil {
		s.lu = &spx{inv: &luInverse{}}
	}
	return s.lu.solve(p, opt, maxIter)
}
