package pnc

import (
	"fmt"

	"mmwave/internal/cg"
	"mmwave/internal/core"
	"mmwave/internal/video"
)

// ControlState is the serializable accounting of a ControlChannel.
type ControlState struct {
	BitsSent int64
	MsgsSent int64
	Airtime  float64
}

// Snapshot exports the channel's accounting.
func (c *ControlChannel) Snapshot() ControlState {
	return ControlState{BitsSent: c.bitsSent, MsgsSent: c.msgsSent, Airtime: c.airtime}
}

// Restore sets the channel's accounting to a snapshotted state.
func (c *ControlChannel) Restore(st ControlState) {
	c.bitsSent, c.msgsSent, c.airtime = st.BitsSent, st.MsgsSent, st.Airtime
}

// CoordState is the serializable image of a Coordinator's durable
// state: everything a restarted process needs so its next epoch is
// byte-identical to the one the dead process would have run. It is
// designed to be captured at an epoch boundary (after RunEpoch
// returns, before the next epoch's reports are ingested), which is the
// only point where the coordinator's internal accounting windows are
// closed.
type CoordState struct {
	// Epoch is the completed-epoch counter.
	Epoch int64
	// Demands/Seen are the report-ingestion buffers (normally quiescent
	// at a boundary, but captured exactly regardless).
	Demands []video.Demand
	Seen    []bool
	// LastGood/LastAge are the last-known-good fallback and its age.
	LastGood []video.Demand
	LastAge  []int
	// Delayed holds control frames the injector pushed past the epoch
	// boundary, still undelivered.
	Delayed [][]byte
	// Retries/LostFrames/BackoffSec are the open accounting window.
	Retries    int64
	LostFrames int64
	BackoffSec float64
	// Control is the control channel's cumulative accounting, and
	// EpochAirStart/EpochMsgStart the per-epoch window anchors, so
	// EpochResult.ControlSeconds stays exact across a restore.
	Control       ControlState
	EpochAirStart float64
	EpochMsgStart int64
	// SolverFP is the network fingerprint (netmodel.Network.Fingerprint)
	// the warm solver was built against; Solver is its engine snapshot
	// and SolverDemands the demand vector it last solved. Solver is nil
	// when the coordinator had no warm state (then the next epoch
	// cold-starts, exactly as it would have anyway).
	SolverFP      uint64
	Solver        *cg.StateSnapshot
	SolverDemands []video.Demand
}

// Validate reports structural inconsistencies against a coordinator
// over numLinks links.
func (st *CoordState) Validate(numLinks int) error {
	if st.Epoch < 0 {
		return fmt.Errorf("pnc: state epoch counter %d negative", st.Epoch)
	}
	for _, n := range []struct {
		name string
		got  int
	}{
		{"Demands", len(st.Demands)}, {"Seen", len(st.Seen)},
		{"LastGood", len(st.LastGood)}, {"LastAge", len(st.LastAge)},
	} {
		if n.got != numLinks {
			return fmt.Errorf("pnc: state %s has %d entries for %d links", n.name, n.got, numLinks)
		}
	}
	if st.Solver != nil {
		if len(st.SolverDemands) != numLinks {
			return fmt.Errorf("pnc: state solver demands have %d entries for %d links", len(st.SolverDemands), numLinks)
		}
		if err := st.Solver.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// ExportState captures the coordinator's durable state. The
// coordinator remains usable; the state shares no mutable memory with
// it. Capture at an epoch boundary — see CoordState.
func (c *Coordinator) ExportState() *CoordState {
	st := &CoordState{
		Epoch:         c.epoch,
		Demands:       append([]video.Demand(nil), c.demands...),
		Seen:          append([]bool(nil), c.seen...),
		LastGood:      append([]video.Demand(nil), c.lastGood...),
		LastAge:       append([]int(nil), c.lastAge...),
		Retries:       c.retries,
		LostFrames:    c.lostFrames,
		BackoffSec:    c.backoffSec,
		Control:       c.Control.Snapshot(),
		EpochAirStart: c.epochAirStart,
		EpochMsgStart: c.epochMsgStart,
	}
	for _, f := range c.delayed {
		st.Delayed = append(st.Delayed, append([]byte(nil), f...))
	}
	if c.solver != nil {
		st.SolverFP = c.solverFP
		st.Solver = c.solver.StateSnapshot()
		st.SolverDemands = c.solver.Demands()
	}
	return st
}

// ImportState restores a coordinator from an exported state. The
// coordinator must have been built over the same network the state was
// exported from (the checkpoint layer gates this with a problem
// fingerprint). The warm solver is rebuilt from its snapshot so the
// next epoch re-solves byte-identically; if the network no longer
// matches the snapshotted fingerprint — CSI, noise or the rate table
// moved between export and restore — the warm state is discarded and
// the next epoch cold-starts, the same degradation an uninterrupted
// coordinator applies when its network changes. A structurally broken
// snapshot returns an error and leaves the coordinator unchanged.
func (c *Coordinator) ImportState(st *CoordState) error {
	if err := st.Validate(c.Network.NumLinks()); err != nil {
		return err
	}

	// Rebuild the warm solver first: it is the only fallible step, and
	// failing it must not leave the coordinator half-restored.
	var solver *core.Solver
	var solverFP uint64
	if st.Solver != nil && st.SolverFP == c.Network.Fingerprint() {
		s, err := core.NewSolverFromSnapshot(c.Network, st.SolverDemands, c.solverOptions(), st.Solver)
		if err != nil {
			return fmt.Errorf("pnc: restore solver: %w", err)
		}
		solver, solverFP = s, st.SolverFP
	}

	c.epoch = st.Epoch
	c.demands = append(c.demands[:0], st.Demands...)
	c.seen = append(c.seen[:0], st.Seen...)
	c.lastGood = append(c.lastGood[:0], st.LastGood...)
	c.lastAge = append(c.lastAge[:0], st.LastAge...)
	c.delayed = nil
	for _, f := range st.Delayed {
		c.delayed = append(c.delayed, append([]byte(nil), f...))
	}
	c.retries = st.Retries
	c.lostFrames = st.LostFrames
	c.backoffSec = st.BackoffSec
	c.Control.Restore(st.Control)
	c.epochAirStart = st.EpochAirStart
	c.epochMsgStart = st.EpochMsgStart
	c.solver = solver
	c.solverFP = solverFP
	return nil
}
