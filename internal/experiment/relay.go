package experiment

import (
	"fmt"

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
	return RelayConfig{Net: studyScale.Of(DefaultConfig()), BlockedFrac: 0.2, Relays: 9}
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

	// One cell per repetition, each mutating only its own freshly
	// drawn instance. Series: deferred-arm time, served fraction,
	// sessions relayed, relayed-arm time.
	sums, err := fanOut(rc.Net, 1, rc.Net.Seeds, func(_, rep int) ([][]float64, error) {
		rng := stats.Fork(rc.Net.Seed, int64(rep))
		inst, err := NewInstance(rc.Net, rng)
		if err != nil {
			return nil, err
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
		servedFrac := 1.0
		if totalDemand > 0 {
			servedFrac = (totalDemand - blockedDemand) / totalDemand
		}

		// Arm 1: defer blocked sessions' demand.
		deferred := make([]video.Demand, L)
		copy(deferred, inst.Demands)
		for l := 0; l < nBlocked; l++ {
			deferred[l] = video.Demand{}
		}
		_, noRelay, err := rc.Net.solve(nil, inst.Network, deferred)
		if err != nil {
			return nil, err
		}

		// Arm 2: route blocked sessions via relays.
		grid := relayGrid(rc.Net.Room, rc.Relays)
		exp, err := relay.Selector{}.Select(inst.Network, inst.Demands, grid, stats.Fork(rc.Net.Seed, int64(1000+rep)))
		if err != nil {
			return nil, err
		}
		_, withRelay, err := rc.Net.solve(nil, exp.Network, exp.Demands)
		if err != nil {
			return nil, fmt.Errorf("experiment: relayed instance rep %d: %w", rep, err)
		}
		return [][]float64{{noRelay.Plan.Objective}, {servedFrac}, {float64(exp.NumRelayed())}, {withRelay.Plan.Objective}}, nil
	})
	if err != nil {
		return nil, err
	}
	sum := sums[0]
	return &RelayResult{TimeNoRelay: sum[0], ServedFracNoRelay: sum[1], Relayed: sum[2], TimeWithRelay: sum[3]}, nil
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
