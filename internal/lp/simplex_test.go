package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// almostEq reports |a-b| <= tol.
func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSolveBasicMax(t *testing.T) {
	// max 3x+5y s.t. x<=4, 2y<=12, 3x+2y<=18  (classic Dantzig example)
	// => min -3x-5y; optimum x=2, y=6, obj=-36.
	p := NewProblem([]float64{-3, -5})
	p.AddRow([]float64{1, 0}, LE, 4)
	p.AddRow([]float64{0, 2}, LE, 12)
	p.AddRow([]float64{3, 2}, LE, 18)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !almostEq(sol.Objective, -36, 1e-6) {
		t.Errorf("objective = %v, want -36", sol.Objective)
	}
	if !almostEq(sol.X[0], 2, 1e-6) || !almostEq(sol.X[1], 6, 1e-6) {
		t.Errorf("x = %v, want [2 6]", sol.X)
	}
}

func TestSolveGERows(t *testing.T) {
	// min x+y s.t. x+2y >= 4, 3x+y >= 6, x,y >= 0.
	// Vertices: intersection x+2y=4,3x+y=6 → x=8/5, y=6/5 → obj=14/5.
	p := NewProblem([]float64{1, 1})
	p.AddRow([]float64{1, 2}, GE, 4)
	p.AddRow([]float64{3, 1}, GE, 6)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !almostEq(sol.Objective, 14.0/5, 1e-6) {
		t.Errorf("objective = %v, want 2.8", sol.Objective)
	}
	// Duals must be >= 0 for GE rows of a min problem, and strong
	// duality must hold: yᵀb = objective.
	dualObj := sol.Dual[0]*4 + sol.Dual[1]*6
	if !almostEq(dualObj, sol.Objective, 1e-6) {
		t.Errorf("dual objective = %v, want %v", dualObj, sol.Objective)
	}
	for i, y := range sol.Dual {
		if y < -1e-9 {
			t.Errorf("dual[%d] = %v, want >= 0", i, y)
		}
	}
}

func TestSolveEquality(t *testing.T) {
	// min 2x+3y s.t. x+y = 10, x-y <= 2.
	// Optimum: push x as high as allowed: x-y<=2 with x+y=10 → x<=6.
	// obj = 2x+3(10-x) = 30-x minimized at x=6 → 24.
	p := NewProblem([]float64{2, 3})
	p.AddRow([]float64{1, 1}, EQ, 10)
	p.AddRow([]float64{1, -1}, LE, 2)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !almostEq(sol.Objective, 24, 1e-6) {
		t.Errorf("objective = %v, want 24", sol.Objective)
	}
	if !almostEq(sol.X[0], 6, 1e-6) || !almostEq(sol.X[1], 4, 1e-6) {
		t.Errorf("x = %v, want [6 4]", sol.X)
	}
}

func TestSolveInfeasible(t *testing.T) {
	p := NewProblem([]float64{1})
	p.AddRow([]float64{1}, GE, 5)
	p.AddRow([]float64{1}, LE, 3)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestSolveUnbounded(t *testing.T) {
	// min -x s.t. x >= 1: x can grow without bound.
	p := NewProblem([]float64{-1})
	p.AddRow([]float64{1}, GE, 1)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestSolveNegativeRHS(t *testing.T) {
	// min x+y s.t. -x-y <= -3  (i.e. x+y >= 3).
	p := NewProblem([]float64{1, 1})
	p.AddRow([]float64{-1, -1}, LE, -3)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !almostEq(sol.Objective, 3, 1e-6) {
		t.Errorf("objective = %v, want 3", sol.Objective)
	}
	// The caller's row was LE; its dual must be <= 0 under the min
	// convention, and strong duality must hold on the original data.
	if sol.Dual[0] > 1e-9 {
		t.Errorf("dual = %v, want <= 0 for LE row", sol.Dual[0])
	}
	if !almostEq(sol.Dual[0]*-3, sol.Objective, 1e-6) {
		t.Errorf("dual objective = %v, want %v", sol.Dual[0]*-3, sol.Objective)
	}
}

func TestSolveNoRows(t *testing.T) {
	p := NewProblem([]float64{2, 3})
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || sol.Objective != 0 {
		t.Fatalf("got %+v, want optimal 0 at origin", sol)
	}

	p2 := NewProblem([]float64{-1})
	sol2, err := Solve(p2)
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", sol2.Status)
	}
}

func TestSolveDegenerate(t *testing.T) {
	// A classically degenerate LP (multiple constraints active at the
	// optimum). Beale's cycling example adapted: the solver must
	// terminate thanks to the Bland fallback.
	p := NewProblem([]float64{-0.75, 150, -0.02, 6})
	p.AddRow([]float64{0.25, -60, -0.04, 9}, LE, 0)
	p.AddRow([]float64{0.5, -90, -0.02, 3}, LE, 0)
	p.AddRow([]float64{0, 0, 1, 0}, LE, 1)
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !almostEq(sol.Objective, -0.05, 1e-6) {
		t.Errorf("objective = %v, want -0.05", sol.Objective)
	}
}

func TestAddColumn(t *testing.T) {
	// Start with one expensive column covering both rows, then add a
	// cheaper specialized column and re-solve: the optimum must improve.
	p := NewProblem([]float64{1})
	p.AddRow([]float64{1}, GE, 2)
	p.AddRow([]float64{1}, GE, 3)
	sol1, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol1.Status != StatusOptimal || !almostEq(sol1.Objective, 3, 1e-6) {
		t.Fatalf("initial solve = %+v, want objective 3", sol1)
	}

	if _, err := p.AddColumn(1, []float64{0, 3}); err != nil {
		t.Fatal(err)
	}
	sol2, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// Now cover row2 with the new column (1 unit serves 3), row1 with
	// the old: τ = 2 + 1 = 3 → actually better: new col serves row2
	// at rate 3 → 1 unit; old col serves row1 → 2 units; total 3. The
	// old single-column solution needed 3. Mixed solution: still 3?
	// With col2 free of row1, optimum = 2 (row1) + 1 (row2) = 3.
	if sol2.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", sol2.Status)
	}
	if sol2.Objective > sol1.Objective+1e-9 {
		t.Errorf("objective after AddColumn = %v, want <= %v", sol2.Objective, sol1.Objective)
	}

	if _, err := p.AddColumn(1, []float64{0}); err == nil {
		t.Error("AddColumn with wrong length should fail")
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		build   func() *Problem
		wantErr bool
	}{
		{"empty", func() *Problem { return &Problem{} }, false},
		{"nan cost", func() *Problem { return NewProblem([]float64{math.NaN()}) }, true},
		{"inf rhs", func() *Problem {
			p := NewProblem([]float64{1})
			p.AddRow([]float64{1}, LE, math.Inf(1))
			return p
		}, true},
		{"ragged row", func() *Problem {
			p := NewProblem([]float64{1, 2})
			p.AddRow([]float64{1, 1}, LE, 1)
			p.A[0] = p.A[0][:1]
			return p
		}, true},
		{"mismatched rel", func() *Problem {
			p := NewProblem([]float64{1})
			p.AddRow([]float64{1}, LE, 1)
			p.Rel = nil
			return p
		}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.build().Validate()
			if (err != nil) != tc.wantErr {
				t.Errorf("Validate() error = %v, wantErr = %v", err, tc.wantErr)
			}
		})
	}
}

// randomFeasibleLP builds a random LP that is guaranteed feasible and
// bounded: min cᵀx (c > 0) subject to GE rows with non-negative
// coefficients and positive rhs.
func randomFeasibleLP(rng *rand.Rand, n, m int) *Problem {
	c := make([]float64, n)
	for j := range c {
		c[j] = 0.1 + rng.Float64()
	}
	p := NewProblem(c)
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		nonzero := false
		for j := range row {
			if rng.Float64() < 0.7 {
				row[j] = rng.Float64()
				if row[j] > 1e-9 {
					nonzero = true
				}
			}
		}
		if !nonzero {
			row[rng.Intn(n)] = 0.5 + rng.Float64()
		}
		p.AddRow(row, GE, 0.5+rng.Float64()*5)
	}
	return p
}

func TestPropertyStrongDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(seedDelta uint32) bool {
		n := 2 + rng.Intn(8)
		m := 1 + rng.Intn(6)
		p := randomFeasibleLP(rng, n, m)
		sol, err := Solve(p)
		if err != nil || sol.Status != StatusOptimal {
			return false
		}
		// Primal feasibility.
		for i, row := range p.A {
			var lhs float64
			for j := range row {
				lhs += row[j] * sol.X[j]
			}
			if lhs < p.B[i]-1e-6 {
				return false
			}
		}
		// Dual feasibility: y >= 0 (all rows GE) and yᵀA <= c.
		for _, y := range sol.Dual {
			if y < -1e-7 {
				return false
			}
		}
		for j := 0; j < n; j++ {
			var ya float64
			for i := range p.A {
				ya += sol.Dual[i] * p.A[i][j]
			}
			if ya > p.C[j]+1e-6 {
				return false
			}
		}
		// Strong duality.
		var dualObj float64
		for i, y := range sol.Dual {
			dualObj += y * p.B[i]
		}
		return almostEq(dualObj, sol.Objective, 1e-5*(1+math.Abs(sol.Objective)))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyNonNegativeSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(uint32) bool {
		p := randomFeasibleLP(rng, 2+rng.Intn(6), 1+rng.Intn(5))
		sol, err := Solve(p)
		if err != nil || sol.Status != StatusOptimal {
			return false
		}
		for _, x := range sol.X {
			if x < -1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRelationString(t *testing.T) {
	if LE.String() != "<=" || EQ.String() != "==" || GE.String() != ">=" {
		t.Error("Relation String mismatch")
	}
	if Relation(9).String() != "Relation(9)" {
		t.Error("unknown relation String mismatch")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusOptimal:    "optimal",
		StatusInfeasible: "infeasible",
		StatusUnbounded:  "unbounded",
		StatusIterLimit:  "iteration-limit",
		Status(42):       "Status(42)",
	} {
		if got := s.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, got, want)
		}
	}
}

func TestRedundantRows(t *testing.T) {
	// Duplicate equality rows force an artificial to remain basic at
	// zero; the solver must still report the right optimum.
	p := NewProblem([]float64{1, 1})
	p.AddRow([]float64{1, 1}, EQ, 4)
	p.AddRow([]float64{2, 2}, EQ, 8) // redundant duplicate
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if !almostEq(sol.Objective, 4, 1e-6) {
		t.Errorf("objective = %v, want 4", sol.Objective)
	}
}

func BenchmarkSolveDense(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := randomFeasibleLP(rng, 60, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}
