package experiment

import (
	"fmt"

	"mmwave/internal/blockage"
	"mmwave/internal/core"
	"mmwave/internal/netmodel"
	"mmwave/internal/schedule"
	"mmwave/internal/sim"
	"mmwave/internal/stats"
	"mmwave/internal/video"
)

// BlockageConfig parameterizes the blockage-churn extension study: the
// network runs for several consecutive scheduling epochs while links
// randomly block and clear (the two-state Markov dynamics of the
// paper's refs [5], [6]); each epoch the coordinator either re-solves
// P1 against the current gains ("reoptimize") or keeps replaying the
// epoch-0 plan ("static").
type BlockageConfig struct {
	Net    Config
	Model  blockage.Model
	Epochs int
}

// DefaultBlockageConfig returns a 10-epoch churn study on a reduced
// network with the default blockage dynamics.
func DefaultBlockageConfig() BlockageConfig {
	return BlockageConfig{Net: studyScale.Of(DefaultConfig()), Model: blockage.DefaultModel(), Epochs: 10}
}

// BlockageResult aggregates the churn study over repetitions.
type BlockageResult struct {
	Reoptimized stats.Summary // per-epoch scheduling time, re-solving each epoch
	Static      stats.Summary // per-epoch scheduling time, epoch-0 plan replayed
	BlockedFrac stats.Summary // fraction of links blocked per epoch (telemetry)
	Unserved    int           // static-arm epochs that could not serve all demand
	Epochs      int
}

// RunBlockage executes the churn study. The static arm replays the
// epoch-0 schedule plan against the *current* (blocked) gains; slot
// assignments whose SINR no longer holds deliver nothing for the
// affected links, so demand can go unserved — those epochs count in
// Unserved and are excluded from the Static timing summary.
func RunBlockage(bc BlockageConfig) (*BlockageResult, error) {
	if bc.Epochs <= 0 {
		return nil, fmt.Errorf("experiment: Epochs = %d, want > 0", bc.Epochs)
	}
	if err := bc.Net.Validate(); err != nil {
		return nil, err
	}
	if err := bc.Model.Validate(); err != nil {
		return nil, err
	}

	// One cell per repetition: each rep's epoch chain is inherently
	// sequential (the blockage process and plans evolve epoch to
	// epoch), but reps are independent. Series: blocked fraction,
	// re-optimized time, static time (served epochs only).
	sums, err := fanOut(bc.Net, 1, bc.Net.Seeds, func(_, rep int) ([][]float64, error) {
		rng := stats.Fork(bc.Net.Seed, int64(rep))
		inst, err := NewInstance(bc.Net, rng)
		if err != nil {
			return nil, err
		}
		proc, err := blockage.NewProcess(bc.Model, inst.Network.NumLinks())
		if err != nil {
			return nil, err
		}

		// Epoch-0 plan for the static arm (unblocked network).
		_, base, err := bc.Net.solve(nil, inst.Network, inst.Demands)
		if err != nil {
			return nil, err
		}

		vals := make([][]float64, 3)
		for epoch := 0; epoch < bc.Epochs; epoch++ {
			proc.Step(rng)
			vals[0] = append(vals[0], float64(proc.NumBlocked())/float64(inst.Network.NumLinks()))
			blockedNW := proc.ApplyTo(inst.Network)

			// Demands of links that became unservable under blockage
			// are deferred by the PNC (§III update rule): both arms
			// face the same demand vector, so times are comparable.
			demands := make([]video.Demand, len(inst.Demands))
			copy(demands, inst.Demands)
			for l := range demands {
				_, sinr := blockedNW.BestSingleLinkChannel(l)
				if blockedNW.Rates.BestLevel(sinr) < 0 {
					demands[l] = video.Demand{}
				}
			}

			// Re-optimizing arm: solve against current gains.
			_, re, err := bc.Net.solve(nil, blockedNW, demands)
			if err != nil {
				return nil, err
			}
			vals[1] = append(vals[1], re.Plan.Objective)

			// Static arm: replay the epoch-0 plan under blocked gains.
			if served, time := replayUnderGains(&base.Plan, blockedNW, demands, bc.Net.SlotDuration); served {
				vals[2] = append(vals[2], time)
			}
		}
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	sum := sums[0]
	return &BlockageResult{
		BlockedFrac: sum[0],
		Reoptimized: sum[1],
		Static:      sum[2],
		Unserved:    sum[0].N - sum[2].N,
		Epochs:      bc.Epochs,
	}, nil
}

// degradedPlanPolicy replays a plan computed for different gains: each
// slot it re-checks every scheduled assignment's SINR under the actual
// network and drops undecodable ones (they transmit, and their
// interference still counts against the survivors — exactly what a
// stale grant causes in the field).
type degradedPlanPolicy struct {
	plan    *core.Plan
	slotDur float64

	slotsLeft []int
	cursor    int
	wasted    int // plan slots in which nothing was decodable
}

// Name implements sim.Policy.
func (p *degradedPlanPolicy) Name() string { return "static-plan" }

// Decide implements sim.Policy.
func (p *degradedPlanPolicy) Decide(nw *netmodel.Network, rem *sim.Remaining, slot int) (*schedule.Schedule, error) {
	if p.slotsLeft == nil {
		p.slotsLeft = make([]int, len(p.plan.Tau))
		for i, tau := range p.plan.Tau {
			p.slotsLeft[i] = int(tau/p.slotDur + 0.999999)
		}
	}
	for p.cursor < len(p.plan.Schedules) {
		if p.slotsLeft[p.cursor] <= 0 {
			p.cursor++
			continue
		}
		p.slotsLeft[p.cursor]--
		s := p.plan.Schedules[p.cursor]

		// Evaluate each assignment's actual SINR with every scheduled
		// transmitter radiating as planned.
		active := make([]int, len(s.Assignments))
		chans := make([]int, len(s.Assignments))
		powers := make([]float64, len(s.Assignments))
		for i, a := range s.Assignments {
			active[i] = a.Link
			chans[i] = a.Channel
			powers[i] = a.Power
		}
		out := &schedule.Schedule{}
		for i, a := range s.Assignments {
			// Minimal-power schedules meet their threshold with
			// equality; tolerate the same roundoff Validate does.
			if nw.SINRAssigned(i, active, chans, powers) < nw.Rates.Gammas[a.Level]*(1-1e-6) {
				continue // undecodable under current gains
			}
			if rem.At(a.Layer.Class(), a.Link) <= 0 {
				continue // this class's demand already served
			}
			out.Assignments = append(out.Assignments, a)
		}
		if len(out.Assignments) == 0 {
			p.wasted++
			continue // a fully wasted slot; keep consuming the plan
		}
		return out, nil
	}
	return nil, nil // plan exhausted; sim reports unserved demand
}

// replayUnderGains plays a plan against possibly different gains than
// it was computed for. Returns whether all demand was served and the
// elapsed time.
func replayUnderGains(plan *core.Plan, nw *netmodel.Network, demands []video.Demand, slotDur float64) (bool, float64) {
	policy := &degradedPlanPolicy{plan: plan, slotDur: slotDur}
	exec, err := sim.Run(nw, demands, policy, sim.Options{SlotDuration: slotDur})
	if err != nil {
		return false, 0
	}
	// Wasted (fully undecodable) slots still pass on the air; charge
	// them to the static plan's clock.
	return true, exec.TotalTime + float64(policy.wasted)*slotDur
}
