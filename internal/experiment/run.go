package experiment

import (
	"fmt"

	"mmwave/internal/baseline"
	"mmwave/internal/core"
	"mmwave/internal/netmodel"
	"mmwave/internal/sim"
	"mmwave/internal/stats"
	"mmwave/internal/video"
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
	return runOn(cfg, algo, inst, 0)
}

// runOn runs one algorithm on inst, cutting the execution at deadline
// seconds (0 = run until every demand is served).
func runOn(cfg Config, algo Algorithm, inst *Instance, deadline float64) (*RunResult, error) {
	out := &RunResult{}
	var policy sim.Policy
	switch algo {
	case Proposed:
		_, res, err := cfg.solve(nil, inst.Network, inst.Demands)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", algo, err)
		}
		if policy, err = sim.NewPlanPolicy(res.Plan.Schedules, res.Plan.Tau, cfg.SlotDuration); err != nil {
			return nil, err
		}
		out.Solver = res
	case Benchmark1:
		policy = baseline.Benchmark1{}
	case Benchmark2:
		policy = &baseline.Benchmark2{Alloc: baseline.ChannelAllocation{ExclusionDist: cfg.Room.Width / 4}}
	case TDMA:
		policy = baseline.TDMA{}
	default:
		return nil, fmt.Errorf("experiment: unknown algorithm %q", algo)
	}
	exec, err := sim.Run(inst.Network, inst.Demands, policy, sim.Options{SlotDuration: cfg.SlotDuration, Deadline: deadline})
	if err != nil {
		return nil, fmt.Errorf("experiment: %s execution: %w", algo, err)
	}
	out.Exec = exec
	return out, nil
}

// solve runs one proposed-scheme solve of the campaign on nw and
// demands under the campaign context, so a canceled campaign truncates
// it to its anytime plan. A nil warm builds a fresh (TDMA-cold)
// solver; a non-nil warm, from an earlier epoch on the same network,
// is re-targeted to demands and re-solved from its column pool and
// basis. Either way the solver that ran is returned for later epochs.
func (c Config) solve(warm *core.Solver, nw *netmodel.Network, demands []video.Demand) (*core.Solver, *core.Result, error) {
	s := warm
	if s == nil {
		var err error
		if s, err = core.NewSolver(nw, demands, c.solverOptions()); err != nil {
			return nil, nil, err
		}
	} else if err := s.SetDemands(demands); err != nil {
		return nil, nil, err
	}
	res, err := s.Solve(c.Context())
	if err != nil {
		return nil, nil, err
	}
	return s, res, nil
}

// pricer builds the configured pricing engine.
func (c Config) pricer() core.Pricer {
	if c.GreedyPricing {
		return core.GreedyPricer{}
	}
	p := core.NewBranchBoundPricer(c.PricerBudget)
	p.FixedPower = c.FixedPower
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
