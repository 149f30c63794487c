package lp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomMixedLP draws an LP with mixed row senses, mixed coefficient
// signs, and occasional negative RHS — the adversarial counterpart of
// randomFeasibleLP. Instances may be infeasible or unbounded; the
// differential tests only require the two engines to agree.
func randomMixedLP(rng *rand.Rand, n, m int) *Problem {
	c := make([]float64, n)
	for j := range c {
		// Mostly positive costs keep min cᵀx bounded below over x ≥ 0
		// often enough for good optimal coverage; the negative tail
		// still produces unbounded and infeasible instances.
		c[j] = 0.2 + rng.Float64()
		if rng.Intn(5) == 0 {
			c[j] = -c[j]
		}
	}
	p := NewProblem(c)
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		nz := false
		for j := range row {
			if rng.Float64() < 0.6 {
				row[j] = math.Abs(rng.NormFloat64())
				if rng.Intn(6) == 0 {
					row[j] = -row[j]
				}
				nz = true
			}
		}
		if !nz {
			row[rng.Intn(n)] = 1
		}
		switch Relation(rng.Intn(3)) {
		case GE:
			p.AddRow(row, GE, rng.Float64()*2)
		case LE:
			p.AddRow(row, LE, 1+rng.Float64()*4)
		default:
			p.AddRow(row, EQ, rng.Float64()*2)
		}
	}
	return p
}

// checkAgainstDense solves p through both engines and requires them to
// agree: same status and, when optimal, same objective, with the
// sparse solution primal feasible. Returns the two solutions.
func checkAgainstDense(t *testing.T, tag string, p *Problem) (*Solution, *Solution) {
	t.Helper()
	sp, err := SolveWith(p, Options{})
	if err != nil {
		t.Fatalf("%s: sparse: %v", tag, err)
	}
	de, err := SolveWith(p, Options{Dense: true})
	if err != nil {
		t.Fatalf("%s: dense: %v", tag, err)
	}
	if sp.Status != de.Status {
		t.Fatalf("%s: sparse status %v, dense %v", tag, sp.Status, de.Status)
	}
	if sp.Status != StatusOptimal {
		return sp, de
	}
	scale := 1 + math.Abs(de.Objective)
	if math.Abs(sp.Objective-de.Objective) > 1e-6*scale {
		t.Fatalf("%s: sparse objective %.15g, dense %.15g", tag, sp.Objective, de.Objective)
	}
	// Primal feasibility of the sparse solution, including x ≥ 0.
	for i, row := range p.A {
		lhs := 0.0
		for j, a := range row {
			lhs += a * sp.X[j]
		}
		viol := 0.0
		switch p.Rel[i] {
		case LE:
			viol = lhs - p.B[i]
		case GE:
			viol = p.B[i] - lhs
		case EQ:
			viol = math.Abs(lhs - p.B[i])
		}
		rowScale := 1 + math.Abs(p.B[i])
		if viol > 1e-6*rowScale {
			t.Fatalf("%s: sparse row %d violated by %g", tag, i, viol)
		}
	}
	for j, x := range sp.X {
		if x < -1e-7 {
			t.Fatalf("%s: sparse x[%d]=%g negative", tag, j, x)
		}
	}
	return sp, de
}

// samePivots reports whether the two solves walked the same basis
// sequence: equal pivot counts and, when optimal, the same final basis.
func samePivots(sp, de *Solution) bool {
	if sp.Iterations != de.Iterations {
		return false
	}
	return sp.Status != StatusOptimal || reflect.DeepEqual(sp.Basis, de.Basis)
}

// TestDifferentialSparseVsDense is the load-bearing property test of
// the sparse path: across random mixed-sense LPs the sparse revised
// simplex and the legacy dense tableau must agree on status and
// objective, and pivot for pivot — the same iteration count and, when
// optimal, the same final basis.
func TestDifferentialSparseVsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	optimal := 0
	for inst := 0; inst < 150; inst++ {
		n := 1 + rng.Intn(10)
		m := 1 + rng.Intn(8)
		p := randomMixedLP(rng, n, m)
		sp, de := checkAgainstDense(t, "mixed", p)
		if !samePivots(sp, de) {
			t.Fatalf("instance %d: sparse %d pivots to basis %v, dense %d pivots to %v",
				inst, sp.Iterations, sp.Basis, de.Iterations, de.Basis)
		}
		if sp.Status == StatusOptimal {
			optimal++
		}
	}
	if optimal < 30 {
		t.Fatalf("only %d/150 instances optimal; generator too degenerate", optimal)
	}
}

// TestDifferentialColgenShape replays the column-generation master
// shape (repeated ~1e8 coefficients, GE rows, heavy degeneracy)
// through both engines, growing columns incrementally through a
// reusable Solver the way internal/cg does. The cold solves' pivot
// agreement is logged, not asserted: on the repeated 1e8 coefficients
// an arithmetic-order tie can send the two engines down different but
// equally optimal walks.
func TestDifferentialColgenShape(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	agree := 0
	const instances = 40
	for inst := 0; inst < instances; inst++ {
		m := 2 + rng.Intn(6)
		n := m + rng.Intn(8)
		p := colgenShapeLP(rng, m, n)
		if sp, de := checkAgainstDense(t, "colgen", p); samePivots(sp, de) {
			agree++
		}

		// Incremental growth: add columns and re-solve warm, comparing
		// against a dense solve of the grown problem each step.
		s := NewSolver(p)
		var warm []BasisVar
		for step := 0; step < 3; step++ {
			col := make([]float64, m)
			for i := range col {
				if rng.Float64() < 0.5 {
					col[i] = (0.5 + rng.Float64()) * 1e8
				}
			}
			p.AddColumn(1, col)
			sp, err := s.Solve(Options{WarmBasis: warm})
			if err != nil {
				t.Fatalf("colgen step %d: sparse: %v", step, err)
			}
			de, err := SolveWith(p, Options{Dense: true})
			if err != nil {
				t.Fatalf("colgen step %d: dense: %v", step, err)
			}
			if sp.Status != de.Status {
				t.Fatalf("colgen step %d: status %v vs dense %v", step, sp.Status, de.Status)
			}
			if sp.Status == StatusOptimal {
				scale := 1 + math.Abs(de.Objective)
				if math.Abs(sp.Objective-de.Objective) > 1e-6*scale {
					t.Fatalf("colgen step %d: objective %.15g vs dense %.15g", step, sp.Objective, de.Objective)
				}
				warm = sp.Basis
			}
		}
	}
	t.Logf("%d/%d cold colgen-shape solves agree with dense pivot for pivot", agree, instances)
}

// dualRepairStart reports whether basis sends a solve of p down the
// dual-repair path: it decodes and factorizes, is primal infeasible,
// and prices out dual feasible.
func dualRepairStart(p *Problem, basis []BasisVar) bool {
	s := &spx{inv: &luInverse{}}
	s.fill(p)
	return s.tryWarmStart(basis) == warmDualFeasible
}

// TestDifferentialWarmRepair gives both inverses the same warm basis:
// each instance is solved cold, its right-hand side perturbed until
// the optimal basis turns primal infeasible (it stays dual feasible:
// the costs are unchanged), and the perturbed problem re-solved from
// that basis through the LU and the dense inverse. The two repairs
// must walk the same pivots to the same basis, and reach the objective
// of a cold solve of the perturbed problem.
func TestDifferentialWarmRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	repaired := map[string]int{}
	for inst := 0; inst < 200; inst++ {
		tag := "mixed"
		var p *Problem
		if inst%2 == 0 {
			p = randomMixedLP(rng, 2+rng.Intn(9), 2+rng.Intn(7))
		} else {
			tag = "colgen"
			m := 2 + rng.Intn(6)
			p = colgenShapeLP(rng, m, m+rng.Intn(8))
		}
		first, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if first.Status != StatusOptimal {
			continue
		}
		seedB := append([]float64(nil), p.B...)
		found := false
		for try := 0; try < 8 && !found; try++ {
			for i := range p.B {
				p.B[i] = seedB[i] * (0.25 + 2*rng.Float64())
			}
			found = dualRepairStart(p, first.Basis)
		}
		if !found {
			continue
		}
		repaired[tag]++

		lu, err := SolveWith(p, Options{WarmBasis: first.Basis})
		if err != nil {
			t.Fatal(err)
		}
		de, err := SolveWith(p, Options{WarmBasis: first.Basis, Dense: true})
		if err != nil {
			t.Fatal(err)
		}
		if lu.Status != de.Status || lu.Iterations != de.Iterations ||
			!reflect.DeepEqual(lu.Basis, de.Basis) || lu.Warm != de.Warm {
			t.Fatalf("%s instance %d: LU %v after %d pivots to %v (warm %v), dense %v after %d pivots to %v (warm %v)",
				tag, inst, lu.Status, lu.Iterations, lu.Basis, lu.Warm, de.Status, de.Iterations, de.Basis, de.Warm)
		}
		if !lu.Warm {
			t.Fatalf("%s instance %d: dual repair not reported warm", tag, inst)
		}
		cold, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if lu.Status != cold.Status {
			t.Fatalf("%s instance %d: warm status %v, cold %v", tag, inst, lu.Status, cold.Status)
		}
		if lu.Status == StatusOptimal &&
			math.Abs(lu.Objective-cold.Objective) > 1e-9*math.Max(1, math.Abs(cold.Objective)) {
			t.Fatalf("%s instance %d: warm objective %.17g, cold %.17g", tag, inst, lu.Objective, cold.Objective)
		}
	}
	if repaired["mixed"] < 20 || repaired["colgen"] < 20 {
		t.Fatalf("only %v instances reached the dual repair; perturbation too weak", repaired)
	}
	t.Logf("dual repairs compared: %v", repaired)
}
