package experiment

import (
	"context"
	"fmt"

	"mmwave/internal/baseline"
	"mmwave/internal/cg"
	"mmwave/internal/core"
	"mmwave/internal/sim"
	"mmwave/internal/stats"
)

// Algorithm names a scheduling scheme under evaluation.
type Algorithm string

// The schemes compared in the paper's figures.
const (
	Proposed   Algorithm = "proposed"   // column generation (this paper)
	Benchmark1 Algorithm = "benchmark1" // uncoordinated best-channel [17]
	Benchmark2 Algorithm = "benchmark2" // frame-based heuristic [9,10] + [8] channels
	TDMA       Algorithm = "tdma"       // one link at a time
)

// AllAlgorithms lists the three schemes shown in Figs. 1–3.
func AllAlgorithms() []Algorithm { return []Algorithm{Proposed, Benchmark1, Benchmark2} }

// RunResult couples the simulator execution with (for the proposed
// scheme) the optimizer's result.
type RunResult struct {
	Exec   *sim.Execution
	Solver *core.Result // nil for baselines
}

// RunOnce draws the instance for repetition rep of the config and runs
// one algorithm on it. The same (cfg.Seed, rep) pair always yields the
// same instance, so different algorithms are compared on identical
// scenarios.
func RunOnce(cfg Config, algo Algorithm, rep int) (*RunResult, error) {
	rng := stats.Fork(cfg.Seed, int64(rep))
	inst, err := NewInstance(cfg, rng)
	if err != nil {
		return nil, err
	}
	return RunOn(cfg, algo, inst)
}

// RunOn runs one algorithm on a prepared instance.
func RunOn(cfg Config, algo Algorithm, inst *Instance) (*RunResult, error) {
	opt := sim.Options{SlotDuration: cfg.SlotDuration}
	switch algo {
	case Proposed:
		solver, err := core.NewSolver(inst.Network, inst.Demands, cfg.solverOptions())
		if err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", algo, err)
		}
		res, err := solver.Solve(context.Background())
		if err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", algo, err)
		}
		policy, err := sim.NewPlanPolicy(res.Plan.Schedules, res.Plan.Tau, cfg.SlotDuration)
		if err != nil {
			return nil, err
		}
		exec, err := sim.Run(inst.Network, inst.Demands, policy, opt)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s execution: %w", algo, err)
		}
		return &RunResult{Exec: exec, Solver: res}, nil
	case Benchmark1:
		exec, err := sim.Run(inst.Network, inst.Demands, baseline.Benchmark1{}, opt)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s execution: %w", algo, err)
		}
		return &RunResult{Exec: exec}, nil
	case Benchmark2:
		policy := &baseline.Benchmark2{Alloc: baseline.ChannelAllocation{ExclusionDist: cfg.Room.Width / 4}}
		exec, err := sim.Run(inst.Network, inst.Demands, policy, opt)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s execution: %w", algo, err)
		}
		return &RunResult{Exec: exec}, nil
	case TDMA:
		exec, err := sim.Run(inst.Network, inst.Demands, baseline.TDMA{}, opt)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s execution: %w", algo, err)
		}
		return &RunResult{Exec: exec}, nil
	default:
		return nil, fmt.Errorf("experiment: unknown algorithm %q", algo)
	}
}

// pricer builds the configured pricing engine.
func (c Config) pricer() core.Pricer {
	if c.GreedyPricing {
		return core.GreedyPricer{}
	}
	p := core.NewBranchBoundPricer(c.PricerBudget)
	p.FixedPower = c.FixedPower
	p.PoolLeaves = cg.MultiColumnPolicy{}.Columns()
	return p
}

// solverOptions builds the core.Options every proposed-scheme solve of
// the campaign shares, including the campaign's tracer and metrics
// registry. (The quality solver ignores GapTarget, so one helper serves
// both modes.)
func (c Config) solverOptions() core.Options {
	return core.Options{
		Pricer:        c.pricer(),
		MaxIterations: c.MaxIterations,
		GapTarget:     c.GapTarget,
		Tracer:        c.Tracer,
		Metrics:       c.Metrics,
	}
}
