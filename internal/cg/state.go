package cg

import (
	"mmwave/internal/lp"
	"mmwave/internal/schedule"
)

// State is the durable half of the engine: everything a solve pays for
// that stays valid when only the right-hand sides move. It holds the
// schedule pool, the incrementally built master problem, the previous
// optimal basis (the warm start), and the lifetime work counters. It
// keeps no duals: every run prices at its own master's duals, and the
// final ones reach callers through Outcome.Duals. One State may serve
// many Run calls — the §III update rule and the PNC epoch loop both
// re-solve the same network under new demands, and every pooled column
// and the final basis of the previous solve carry over.
//
// A State is bound to one immutable network: if the topology or the
// CSI regime changes, pooled schedules may become infeasible and the
// owner must discard the State and start cold (pnc.Coordinator does
// this on any real gain change).
type State struct {
	pool    *schedule.Pool
	seedLen int // leading columns pinned by Seed (coverage set, never GC'd)

	// warmBasis carries the previous master optimal basis between
	// solves: the pool only appends columns, so the old basis stays
	// primal feasible (or dual-feasible after an RHS change) and the
	// re-solve skips phase 1.
	warmBasis []lp.BasisVar

	// prob is the incrementally built master LP: the model lays rows
	// (and any fixed variables) once, and each pooled schedule
	// contributes one column, appended the first time a solve sees it.
	// Only the right-hand sides are rewritten between solves. The lp
	// solver never mutates a Problem (its workspace copies all data), so
	// reuse across solves is safe.
	prob *lp.Problem
	cols int

	// solver is the reusable simplex engine bound to prob: it keeps its
	// factorization and pivot scratch across master solves, so a
	// steady-state re-solve allocates only its Solution. It is replaced
	// together with prob whenever the GC forces a master rebuild.
	solver *lp.Solver

	// lastBasic[j] is the run index when pool column j last sat in an
	// optimal basis (or was added); the GC evicts columns whose age
	// exceeds the policy.
	lastBasic []int
	runs      int // completed Run calls

	// lastFill is the LU fill-in ratio (factor nonzeros / basis
	// nonzeros) of the most recent master factorization, exported as a
	// gauge by the engine.
	lastFill float64

	stats Stats
}

// NewState returns an empty engine state.
func NewState() *State {
	return &State{pool: schedule.NewPool()}
}

// Seed adds the initial column set (the paper's TDMA initialization)
// and pins it: seed columns guarantee master feasibility for any
// demand vector the owner validated, so the garbage collector never
// drops them.
func (st *State) Seed(schedules []*schedule.Schedule) {
	for _, sc := range schedules {
		st.pool.Add(sc)
	}
	st.seedLen = st.pool.Len()
	st.syncBookkeeping()
}

// Pool exposes the current column pool (read-only use).
func (st *State) Pool() *schedule.Pool { return st.pool }

// Runs returns the number of completed Run calls against this state.
func (st *State) Runs() int { return st.runs }

// syncBookkeeping grows lastBasic to match the pool, stamping new
// columns with the current run index so freshly priced columns get a
// full grace period before the GC may consider them.
func (st *State) syncBookkeeping() {
	for len(st.lastBasic) < st.pool.Len() {
		st.lastBasic = append(st.lastBasic, st.runs)
	}
}

// noteBasis stamps every pool column that sits in the optimal basis.
// offset is the model's fixed-variable count (structural indices below
// it are not schedule columns).
func (st *State) noteBasis(basis []lp.BasisVar, offset int) {
	for _, bv := range basis {
		if bv.Kind == lp.BasisStructural && bv.Index >= offset {
			if j := bv.Index - offset; j < len(st.lastBasic) {
				st.lastBasic[j] = st.runs
			}
		}
	}
}

// GCPolicy bounds pool growth across long re-solve sequences.
type GCPolicy struct {
	// MaxColumns triggers a collection at the start of a run when the
	// pool exceeds it. Zero means the engine default, max(256, 32·L)
	// columns for an L-link network (NewEngine fills it in), so a
	// single cold solve, whose pool starts at the TDMA seed, never
	// collects.
	MaxColumns int
	// MinAge is how many runs a column must have stayed out of every
	// optimal basis before it may be evicted. Zero means 2.
	MinAge int
}

// gc drops long-nonbasic, non-seed columns and rebuilds the master
// incrementally from the compacted pool. The warm basis is remapped to
// the new column indices — eviction candidates are by construction
// outside the current basis, so the remap always succeeds and the next
// master solve still warm-starts. Returns the number of evicted
// columns. A policy with no MaxColumns collects nothing; NewEngine
// always resolves one.
func (st *State) gc(policy GCPolicy, model MasterModel) int {
	if policy.MaxColumns <= 0 || st.pool.Len() <= policy.MaxColumns {
		return 0
	}
	minAge := policy.MinAge
	if minAge <= 0 {
		minAge = 2
	}
	// Columns in the current warm basis are always kept, whatever their
	// stamp says: evicting a basic column would invalidate the basis.
	offset := model.ColumnOffset()
	inBasis := make(map[int]bool, len(st.warmBasis))
	for _, bv := range st.warmBasis {
		if bv.Kind == lp.BasisStructural && bv.Index >= offset {
			inBasis[bv.Index-offset] = true
		}
	}

	colMap := st.pool.Compact(func(j int, _ *schedule.Schedule) bool {
		return j < st.seedLen || inBasis[j] || st.runs-st.lastBasic[j] <= minAge
	})
	evicted := 0
	newLast := make([]int, 0, st.pool.Len())
	for j, nj := range colMap {
		if nj < 0 {
			evicted++
			continue
		}
		newLast = append(newLast, st.lastBasic[j])
	}
	if evicted == 0 {
		return 0
	}
	st.lastBasic = newLast
	st.stats.EvictedColumns += evicted

	// Rebuild the master from scratch on the compacted pool (the next
	// solveMaster re-appends every surviving column) and remap the warm
	// basis onto the new indices.
	st.prob = nil
	st.solver = nil
	st.cols = 0
	if remapped, ok := lp.RemapStructurals(st.warmBasis, offset, colMap); ok {
		st.warmBasis = remapped
	} else {
		st.warmBasis = nil // defensive: fall back to a cold master solve
	}
	return evicted
}
