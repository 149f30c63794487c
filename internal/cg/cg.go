// Package cg implements the column-generation engine shared by the
// repo's solvers. The paper's method is one loop — solve a master LP
// over the current schedule pool, extract duals, price the most
// improving schedule (most negative reduced cost Φ = 1 − Σ λ·r),
// append it as a new column, repeat — and both problem P1 (minimize
// total scheduling time) and the quality-mode P2 (maximize delivered
// quality under a slot budget) are instances of it. The engine owns
// that loop: iteration stats, Theorem-1 bounds, anytime truncation,
// work counters, and trace/metric emission live here exactly once,
// while the problem-specific master formulation plugs in through the
// MasterModel interface.
//
// Engine state (the schedule pool, the warm simplex basis, and the last
// duals) is held in a State that survives demand changes, so re-solves
// — the paper's §III update rule, and the PNC epoch loop — start from
// everything the previous solve paid for instead of TDMA-cold. A column garbage collector bounds the pool
// across long epoch sequences by dropping long-nonbasic columns.
package cg

import (
	"context"
	"errors"

	"mmwave/internal/netmodel"
	"mmwave/internal/schedule"
)

// Sentinel errors callers branch on with errors.Is. They form the
// solver half of the repo's error taxonomy; the control-plane half
// (ErrControlLoss, ErrStaleState) lives in internal/pnc. internal/core
// re-exports both under their historical names.
var (
	// ErrBudgetExceeded reports a solve truncated by its context
	// deadline/cancellation or iteration budget. It is carried in the
	// outcome's Stop field — the solve still returns the feasible
	// best-so-far plan and its valid Theorem-1 lower bound, never a
	// bare error.
	ErrBudgetExceeded = errors.New("cg: solve budget exceeded")

	// ErrInfeasible reports a master problem with no feasible point —
	// impossible after the TDMA initialization unless demands were
	// mutated behind the solver's back.
	ErrInfeasible = errors.New("cg: master problem infeasible")
)

// Pricer finds a high-value feasible schedule under dual prices. It
// returns the best schedule found, its pricing value Ψ = Σ_l λ_l·r_l^s,
// and whether the search was exact (proved Ψ maximal). A nil schedule
// means no positive-value schedule exists.
type Pricer interface {
	// Price searches for the schedule maximizing Σ λ·r over feasible
	// schedules of nw, under class-major duals lambda[c][l] (one vector
	// per traffic class, class 0 the highest priority).
	Price(nw *netmodel.Network, lambda [][]float64) (*PriceResult, error)
	// String names the pricer for telemetry.
	String() string
}

// ContextPricer is implemented by pricers that can be canceled
// mid-search. PriceContext with a never-canceled context must behave
// exactly like Price; with a canceled/expired context it returns the
// best schedule found so far (Exact=false) and a still-valid
// RelaxValue, so the engine can form an anytime Theorem-1 bound.
type ContextPricer interface {
	Pricer
	PriceContext(ctx context.Context, nw *netmodel.Network, lambda [][]float64) (*PriceResult, error)
}

// PriceResult is the outcome of one pricing round.
type PriceResult struct {
	Schedule *schedule.Schedule // best schedule found (nil if none has value > 0)
	Value    float64            // Ψ of the returned schedule (0 if nil)
	Exact    bool               // true when Value is proved maximal
	// RelaxValue upper-bounds the true maximal Ψ (≥ Value). When Exact,
	// it may simply equal Value. Used for valid Theorem-1 bounds under
	// truncated pricing.
	RelaxValue float64
	Nodes      int // search nodes explored (telemetry)
	Probes     int // feasibility probes consumed (the budget unit)

	// Extras are additional near-optimal schedules pooled by the pricer
	// during the same search (multi-column pricing, DESIGN.md §17). The
	// engine re-prices each at the true master duals and admits only the
	// improving ones; they carry no bound information and Value/Exact
	// describe Schedule alone. Nil unless the pricer was asked to pool
	// leaves (MultiColumnPolicy).
	Extras []*schedule.Schedule
}

// IterationStat records one column-generation iteration for the
// convergence analysis of Fig. 4.
type IterationStat struct {
	Iter       int
	Upper      float64 // MP objective (upper bound on the optimum)
	Lower      float64 // Theorem-1 lower bound at this iteration (0 when the model has none)
	BestLower  float64 // running maximum of Lower
	Phi        float64 // most negative reduced cost found (≤ 0 until convergence)
	PoolSize   int     // columns in the MP
	PricerNode int     // pricing search nodes
	Exact      bool    // pricing was exact this iteration
}

// TheoremBound forms the Theorem-1 lower bound from one pricing round:
// LB = UB/(1−Φ′) for any Φ′ ≤ Φ*, so truncated pricing uses the
// relaxation value. With Φ′ ≥ 0 the master optimum is already proven
// optimal and the bound collapses to the upper bound.
func TheoremBound(upper float64, pr *PriceResult) float64 {
	phiForBound := 1 - pr.RelaxValue
	if pr.Exact {
		phiForBound = 1 - pr.Value
	}
	lower := 0.0
	if denom := 1 - phiForBound; denom > 0 {
		lower = upper / denom // UB = λᵀd by strong duality
	}
	if phiForBound >= 0 {
		lower = upper
	}
	return lower
}
