package experiment

import (
	"context"
	"fmt"

	"mmwave/internal/core"
	"mmwave/internal/geom"
	"mmwave/internal/relay"
	"mmwave/internal/stats"
	"mmwave/internal/video"
)

// RelayConfig parameterizes the dual-hop recovery study: a fraction of
// sessions lose their direct path (hard blockage), and the coordinator
// either defers their demand (no relays) or routes them over two hops
// via idle relay nodes (the ref.-[4] extension).
type RelayConfig struct {
	Net Config
	// BlockedFrac is the fraction of sessions whose direct gains are
	// crushed below every rate threshold.
	BlockedFrac float64
	// Relays is the number of relay candidates, placed on a uniform
	// grid inside the room.
	Relays int
}

// DefaultRelayConfig returns a 10-link study with 20% of sessions
// blocked and a 3×3 relay grid.
func DefaultRelayConfig() RelayConfig {
	cfg := DefaultConfig()
	cfg.NumLinks = 10
	cfg.Seeds = 10
	return RelayConfig{Net: cfg, BlockedFrac: 0.2, Relays: 9}
}

// RelayResult aggregates the study.
type RelayResult struct {
	// ServedFracNoRelay is the fraction of total demanded bits served
	// when blocked sessions are simply deferred.
	ServedFracNoRelay stats.Summary
	// TimeNoRelay is the scheduling time for the unblocked remainder.
	TimeNoRelay stats.Summary
	// TimeWithRelay is the scheduling time serving *all* demand via
	// relays (always full delivery).
	TimeWithRelay stats.Summary
	// Relayed summarizes how many sessions took a two-hop route.
	Relayed stats.Summary
}

// RunRelay executes the recovery study.
func RunRelay(rc RelayConfig) (*RelayResult, error) {
	if err := rc.Net.Validate(); err != nil {
		return nil, err
	}
	if rc.BlockedFrac < 0 || rc.BlockedFrac > 1 {
		return nil, fmt.Errorf("experiment: BlockedFrac = %g outside [0,1]", rc.BlockedFrac)
	}
	if rc.Relays < 0 {
		return nil, fmt.Errorf("experiment: Relays = %d, want ≥ 0", rc.Relays)
	}

	// One cell per repetition; per-rep values are folded below in the
	// fixed sequential (rep, metric) order, so the result is
	// bit-identical for any worker count. Each rep mutates only its own
	// freshly drawn instance.
	type repValues struct {
		timeNoRelay, servedFrac, relayed, timeWithRelay float64
	}
	repVals := make([]repValues, rc.Net.Seeds)
	err := runCells(rc.Net, rc.Net.Seeds, func(rep int) error {
		rng := stats.Fork(rc.Net.Seed, int64(rep))
		inst, err := NewInstance(rc.Net, rng)
		if err != nil {
			return err
		}
		// Crush the direct path of the first ⌈frac·L⌉ sessions (the
		// instance is random, so the choice is exchangeable).
		L := inst.Network.NumLinks()
		nBlocked := int(rc.BlockedFrac*float64(L) + 0.5)
		for l := 0; l < nBlocked; l++ {
			for k := 0; k < inst.Network.NumChannels; k++ {
				inst.Network.Gains.Direct[l][k] = 1e-6
			}
		}

		var totalDemand, blockedDemand float64
		for l, d := range inst.Demands {
			totalDemand += d.Total()
			if l < nBlocked {
				blockedDemand += d.Total()
			}
		}

		// Arm 1: defer blocked sessions' demand.
		deferred := make([]video.Demand, L)
		copy(deferred, inst.Demands)
		for l := 0; l < nBlocked; l++ {
			deferred[l] = video.Demand{}
		}
		plan, err := solvePlan(rc.Net, &Instance{Network: inst.Network, Demands: deferred})
		if err != nil {
			return err
		}
		rv := &repVals[rep]
		rv.timeNoRelay = plan.Objective
		if totalDemand > 0 {
			rv.servedFrac = (totalDemand - blockedDemand) / totalDemand
		} else {
			rv.servedFrac = 1
		}

		// Arm 2: route blocked sessions via relays.
		grid := relayGrid(rc.Net.Room, rc.Relays)
		exp, err := relay.Selector{}.Select(inst.Network, inst.Demands, grid, stats.Fork(rc.Net.Seed, int64(1000+rep)))
		if err != nil {
			return err
		}
		rv.relayed = float64(exp.NumRelayed())
		solver, err := core.NewSolver(exp.Network, exp.Demands, rc.Net.solverOptions())
		if err != nil {
			return fmt.Errorf("experiment: relayed instance rep %d: %w", rep, err)
		}
		sol, err := solver.Solve(context.Background())
		if err != nil {
			return err
		}
		rv.timeWithRelay = sol.Plan.Objective
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &RelayResult{}
	for rep := range repVals {
		rv := &repVals[rep]
		res.TimeNoRelay.Add(rv.timeNoRelay)
		res.ServedFracNoRelay.Add(rv.servedFrac)
		res.Relayed.Add(rv.relayed)
		res.TimeWithRelay.Add(rv.timeWithRelay)
	}
	return res, nil
}

// relayGrid places n relay candidates on a near-square grid inside the
// room.
func relayGrid(room geom.Room, n int) []geom.Point {
	if n <= 0 {
		return nil
	}
	cols := 1
	for cols*cols < n {
		cols++
	}
	rows := (n + cols - 1) / cols
	pts := make([]geom.Point, 0, n)
	for r := 0; r < rows && len(pts) < n; r++ {
		for c := 0; c < cols && len(pts) < n; c++ {
			pts = append(pts, geom.Point{
				X: room.Width * (float64(c) + 1) / (float64(cols) + 1),
				Y: room.Height * (float64(r) + 1) / (float64(rows) + 1),
			})
		}
	}
	return pts
}
