package experiment

import (
	"context"
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
	cfg := DefaultConfig()
	cfg.NumLinks = 10
	cfg.Seeds = 10
	return BlockageConfig{Net: cfg, Model: blockage.DefaultModel(), Epochs: 10}
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
	// epoch), but reps are independent. Per-epoch values are collected
	// per rep and folded below in the fixed sequential
	// (rep, epoch, metric) order, so the result is bit-identical for
	// any worker count.
	type repValues struct {
		blockedFrac []float64
		reoptimized []float64
		staticOK    []bool
		staticTime  []float64
	}
	repVals := make([]repValues, bc.Net.Seeds)
	err := runCells(bc.Net, bc.Net.Seeds, func(rep int) error {
		rng := stats.Fork(bc.Net.Seed, int64(rep))
		inst, err := NewInstance(bc.Net, rng)
		if err != nil {
			return err
		}
		proc, err := blockage.NewProcess(bc.Model, inst.Network.NumLinks())
		if err != nil {
			return err
		}

		// Epoch-0 plan for the static arm (unblocked network).
		basePlan, err := solvePlan(bc.Net, inst)
		if err != nil {
			return err
		}

		rv := &repVals[rep]
		for epoch := 0; epoch < bc.Epochs; epoch++ {
			proc.Step(rng)
			rv.blockedFrac = append(rv.blockedFrac, float64(proc.NumBlocked())/float64(inst.Network.NumLinks()))
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
			rePlan, err := solvePlan(bc.Net, &Instance{Network: blockedNW, Demands: demands})
			if err != nil {
				return err
			}
			rv.reoptimized = append(rv.reoptimized, rePlan.Objective)

			// Static arm: replay the epoch-0 plan under blocked gains.
			served, time := replayUnderGains(basePlan, blockedNW, demands, bc.Net.SlotDuration)
			rv.staticOK = append(rv.staticOK, served)
			rv.staticTime = append(rv.staticTime, time)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &BlockageResult{Epochs: bc.Epochs}
	for rep := range repVals {
		rv := &repVals[rep]
		for epoch := 0; epoch < bc.Epochs; epoch++ {
			res.BlockedFrac.Add(rv.blockedFrac[epoch])
			res.Reoptimized.Add(rv.reoptimized[epoch])
			if rv.staticOK[epoch] {
				res.Static.Add(rv.staticTime[epoch])
			} else {
				res.Unserved++
			}
		}
	}
	return res, nil
}

// solvePlan runs the column-generation solver on an instance and
// returns the plan.
func solvePlan(cfg Config, inst *Instance) (*core.Plan, error) {
	solver, err := core.NewSolver(inst.Network, inst.Demands, cfg.solverOptions())
	if err != nil {
		return nil, err
	}
	res, err := solver.Solve(context.Background())
	if err != nil {
		return nil, err
	}
	return &res.Plan, nil
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
