package cg

import (
	"fmt"

	"mmwave/internal/lp"
	"mmwave/internal/netmodel"
	"mmwave/internal/schedule"
)

// StateSnapshot is the serializable image of a State: everything a
// coordinator must persist so a restarted process re-solves exactly
// where the dead one left off. It captures the durable half only — the
// schedule pool, the warm basis, and the GC bookkeeping. The
// incrementally built master problem and its simplex engine are
// deliberately excluded: RestoreState leaves them nil and the next
// solveMaster rebuilds them from the pool, the same lazy path a column
// GC already exercises, so a restored solve is byte-identical to an
// uninterrupted one (same columns, same warm basis, same walk).
type StateSnapshot struct {
	// Schedules is the pool in index order (normalized, powers exact).
	Schedules []*schedule.Schedule
	// SeedLen is the number of leading pinned (never-GC'd) columns.
	SeedLen int
	// WarmBasis is the previous optimal master basis.
	WarmBasis []lp.BasisVar
	// LastBasic holds the per-column last-in-basis run stamps.
	LastBasic []int
	// Runs counts completed engine runs.
	Runs int
	// Stats carries the lifetime work counters, so per-run deltas and
	// published metrics stay continuous across a restore.
	Stats Stats
}

// Snapshot copies the durable engine state into a serializable image.
// The State remains usable; the snapshot shares no mutable memory with
// it.
func (st *State) Snapshot() *StateSnapshot {
	snap := &StateSnapshot{
		Schedules: make([]*schedule.Schedule, st.pool.Len()),
		SeedLen:   st.seedLen,
		WarmBasis: append([]lp.BasisVar(nil), st.warmBasis...),
		LastBasic: append([]int(nil), st.lastBasic...),
		Runs:      st.runs,
		Stats:     st.stats,
	}
	for j := range snap.Schedules {
		snap.Schedules[j] = st.pool.At(j).Clone()
	}
	return snap
}

// Validate reports structural inconsistencies that would make a restore
// unsafe (a truncated or hand-edited snapshot).
func (s *StateSnapshot) Validate() error {
	if s.SeedLen < 0 || s.SeedLen > len(s.Schedules) {
		return fmt.Errorf("cg: snapshot seed length %d outside pool of %d", s.SeedLen, len(s.Schedules))
	}
	if len(s.LastBasic) != len(s.Schedules) {
		return fmt.Errorf("cg: snapshot has %d basis stamps for %d columns", len(s.LastBasic), len(s.Schedules))
	}
	if s.Runs < 0 {
		return fmt.Errorf("cg: snapshot run counter %d negative", s.Runs)
	}
	for j, sc := range s.Schedules {
		if sc == nil {
			return fmt.Errorf("cg: snapshot column %d is nil", j)
		}
	}
	return nil
}

// RestoreState rebuilds a State from a snapshot. The pool is rebuilt by
// re-adding columns in index order, so every warm-basis structural
// index lands on the same column it named when the snapshot was taken.
// Duplicate or out-of-order columns (a forged snapshot) fail the
// restore rather than silently renumbering the basis.
func RestoreState(snap *StateSnapshot) (*State, error) {
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	st := NewState()
	for j, sc := range snap.Schedules {
		if idx, added := st.pool.Add(sc); !added || idx != j {
			return nil, fmt.Errorf("cg: snapshot column %d duplicates column %d", j, idx)
		}
	}
	st.seedLen = snap.SeedLen
	st.warmBasis = append([]lp.BasisVar(nil), snap.WarmBasis...)
	st.lastBasic = append([]int(nil), snap.LastBasic...)
	st.runs = snap.Runs
	st.stats = snap.Stats
	return st, nil
}

// ValidateAgainst checks the snapshot's columns against a network: every
// pooled schedule must still be feasible (the fingerprint gate upstream
// should guarantee this; the check is the defense in depth against a
// snapshot restored onto the wrong network).
func (s *StateSnapshot) ValidateAgainst(nw *netmodel.Network) error {
	for j, sc := range s.Schedules {
		if err := sc.Validate(nw); err != nil {
			return fmt.Errorf("cg: snapshot column %d infeasible on this network: %w", j, err)
		}
	}
	return nil
}
