package experiment

import (
	"context"
	"fmt"
	"math"
	"time"

	"mmwave/internal/faults"
	"mmwave/internal/host"
	"mmwave/internal/pnc"
	"mmwave/internal/stats"
	"mmwave/internal/video/trace"
)

// ChaosSoakConfig parameterizes the crash-safety soak: a supervised
// multi-cell host (internal/host) runs many independent coordinators
// for many epochs under process-level chaos — injected panics, hung
// solves, kill-and-restore cycles, corrupted checkpoints — on top of
// the control-plane fault classes, while an undisturbed shadow fleet
// with identical RNG streams runs beside it as the ground truth
// timeline.
type ChaosSoakConfig struct {
	// Net draws each cell's instance; NumLinks is links PER CELL.
	Net Config
	// Cells is the number of supervised coordinators (0 = 8).
	Cells int
	// Epochs is the soak length in scheduling epochs (0 = 200).
	Epochs int
	// Watchdog is the host's per-epoch solve deadline (0 = 250 ms). It
	// must comfortably exceed an honest solve at the configured scale:
	// a deadline short enough to clip honest solves would make the soak
	// timing-sensitive. Injected hangs never wait for it: the host runs
	// a hung epoch under an already-expired deadline.
	Watchdog time.Duration
	// Faults is the per-cell fault template; Seed is forked per cell.
	Faults faults.Config
	// BudgetFrac sets each cell's epoch air-time budget as a fraction
	// of its pilot-solve objective, exercising the load-shedding path
	// (0 = unlimited). Every third cell gets BudgetFrac/3 — tight
	// enough that spikes push shedding past LP into HP territory, so
	// the LP-before-HP invariant is tested where it can actually fail.
	BudgetFrac float64
}

// DefaultChaosSoakConfig returns the acceptance-scale soak: 8 cells of
// 4 links × 2 channels, 200 epochs, every fault class enabled.
func DefaultChaosSoakConfig() ChaosSoakConfig {
	return ChaosSoakConfig{
		Net:        chaosSoakScale.Of(DefaultConfig()),
		Cells:      8,
		Epochs:     200,
		Watchdog:   250 * time.Millisecond,
		BudgetFrac: 0.66,
		Faults: faults.Config{
			CtrlLoss:    0.05,
			CtrlCorrupt: 0.02,
			CtrlDelay:   0.03,
			StaleCSI:    0.02,
			NodeDropout: 0.01,
			CellPanic:   0.02,
			SolveHang:   0.015,
			KillRestore: 0.08,
			CkptCorrupt: 0.25,
		},
	}
}

// ChaosSoakResult aggregates the soak's outcome tallies, chaos-event
// counts, invariant violations, and a determinism digest (an FNV-1a
// hash over every cell-epoch's served plan and outcome — two runs of
// the same config must produce the same digest).
type ChaosSoakResult struct {
	Cells, Epochs int

	OK, Failed, Backoff, BreakerOpen, DisabledEpochs int
	PanicsRecovered, HangsInjected, Truncations      int
	Restores, ColdRestarts, CorruptedCkpts           int
	ShedEpochs, HPShedEpochs, DegradedEpochs         int
	MaxStaleness                                     int64

	// CleanCells counts cells whose entire timeline stayed comparable
	// to the shadow fleet (only good kill-restores enacted);
	// MatchedEpochs counts the cell-epochs byte-compared against it.
	CleanCells, MatchedEpochs int

	Violations []string
	Digest     uint64
}

const maxViolations = 32

func (r *ChaosSoakResult) violate(format string, args ...any) {
	if len(r.Violations) < maxViolations {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// ChaosSoak runs the crash-safety soak and checks its invariants:
//
//  1. Determinism: the digest is a pure function of the config (the
//     caller can run twice and compare).
//  2. Byte-identity: a cell whose only enacted faults are good
//     kill-restore cycles traces exactly the shadow fleet's plans,
//     solver work included.
//  3. Theorem-1 validity: every solve — truncated by the watchdog or
//     not — reports a lower bound that does not exceed its objective.
//  4. Shedding order: HP demand is never shed while LP demand remains
//     in the scheduled vector.
//  5. Degraded serving: a cell only reports "nothing to serve" if it
//     has never completed an epoch.
func ChaosSoak(cc ChaosSoakConfig) (*ChaosSoakResult, error) {
	if cc.Cells <= 0 {
		cc.Cells = 8
	}
	if cc.Epochs <= 0 {
		cc.Epochs = 200
	}
	if cc.Watchdog <= 0 {
		cc.Watchdog = 250 * time.Millisecond
	}
	if err := cc.Net.Validate(); err != nil {
		return nil, err
	}
	if err := cc.Faults.Validate(); err != nil {
		return nil, err
	}

	chaosHost := host.New(
		host.WithWatchdog(cc.Watchdog),
		// The soak wants the supervision machinery exercised, not cells
		// retired: a generous restart budget keeps chaos-prone cells in
		// the game while still proving the disable path compiles into
		// the policy (a cell CAN still exhaust it under a hostile seed).
		host.WithMaxRestarts(64),
		host.WithTracer(cc.Net.Tracer),
		host.WithMetrics(cc.Net.Metrics),
	)
	shadowHost := host.New(host.WithWatchdog(cc.Watchdog), host.WithMaxRestarts(64))

	res := &ChaosSoakResult{Cells: cc.Cells, Epochs: cc.Epochs}
	type fleet struct {
		h    *host.Host
		gens [][]*trace.Generator // [cell][link] demand sources
	}
	chaos := &fleet{h: chaosHost}
	shadow := &fleet{h: shadowHost}

	for i := 0; i < cc.Cells; i++ {
		inst, err := NewInstance(cc.Net, stats.Fork(cc.Net.Seed, int64(i)))
		if err != nil {
			return nil, fmt.Errorf("experiment: chaos soak cell %d: %w", i, err)
		}
		policy := pnc.DefaultDegradePolicy()
		if cc.BudgetFrac > 0 {
			frac := cc.BudgetFrac
			if i%3 == 0 {
				frac /= 3
			}
			// Pilot solve on the instance's own demand draw calibrates
			// the epoch budget to this cell's load.
			_, pilot, err := cc.Net.solve(nil, inst.Network, inst.Demands)
			if err != nil {
				return nil, fmt.Errorf("experiment: chaos soak cell %d pilot: %w", i, err)
			}
			policy.EpochBudget = frac * pilot.Plan.Objective
		}

		fcfg := cc.Faults
		fcfg.Seed = cc.Net.Seed<<16 ^ int64(i+1)
		shadowCfg := fcfg
		// The shadow draws the same process-fault stream (the draws are
		// unconditional) but its zero rates mean nothing is ever
		// enacted — same environment, no chaos.
		shadowCfg.CellPanic, shadowCfg.SolveHang = 0, 0
		shadowCfg.KillRestore, shadowCfg.CkptCorrupt = 0, 0

		for _, f := range []struct {
			fl  *fleet
			cfg faults.Config
		}{{chaos, fcfg}, {shadow, shadowCfg}} {
			cfg := f.cfg
			spec := host.NewSpec(inst.Network,
				host.SpecSolve(cc.Net.solverOptions()),
				host.SpecPolicy(policy),
				host.SpecFaults(&cfg))
			if _, err := f.fl.h.Admit(spec); err != nil {
				return nil, fmt.Errorf("experiment: chaos soak cell %d: %w", i, err)
			}
			gens := make([]*trace.Generator, inst.Network.NumLinks())
			for l := range gens {
				gens[l], err = trace.NewGenerator(cc.Net.Trace, stats.Fork(cc.Net.Seed, int64(1_000_000+i*1000+l)))
				if err != nil {
					return nil, err
				}
			}
			f.fl.gens = append(f.fl.gens, gens)
		}
	}

	feed := func(f *fleet) host.FeedFunc {
		return func(cell *host.Cell, epoch int64) [][]byte {
			gens := f.gens[cell.ID()]
			frames := make([][]byte, 0, len(gens))
			for l := range gens {
				d := gens[l].NextDemand(cc.Net.Video).Scale(cc.Net.DemandScale)
				// A dropped-out node's report never leaves the node; the
				// demand is still drawn so both fleets consume identical
				// trace streams.
				if inj := cell.Injector(); inj != nil && inj.LinkDown(l) {
					continue
				}
				frame, err := pnc.DemandReport{Link: uint16(l), Demand: d}.MarshalBinary()
				if err != nil {
					continue
				}
				frames = append(frames, frame)
			}
			return frames
		}
	}
	chaosFeed, shadowFeed := feed(chaos), feed(shadow)

	// divergent[i] marks the first epoch at which cell i's timeline
	// legitimately left the shadow's (panic, hang, genuine failure, or
	// cold restart) — byte-comparison stops there, invariants do not.
	divergent := make([]bool, cc.Cells)
	everOK := make([]bool, cc.Cells)
	digest := uint64(14695981039346656037)
	mix := func(v uint64) {
		digest ^= v
		digest *= 1099511628211
	}

	ctx := cc.Net.Context()
	for epoch := 0; epoch < cc.Epochs; epoch++ {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		creps := chaosHost.StepAll(ctx, chaosFeed)
		sreps := shadowHost.StepAll(ctx, shadowFeed)
		for i, a := range creps {
			tallyReport(res, a)

			// Invariant 3: every solved plan carries a valid bound.
			if a.Result != nil {
				lb, obj := a.Result.Solver.LowerBound, a.Plan.Objective
				if lb < -1e-9 || lb > obj*(1+1e-9)+1e-9 {
					res.violate("cell %d epoch %d: lower bound %g invalid against objective %g (truncated=%v)",
						i, epoch, lb, obj, a.Result.TruncatedSolve)
				}
				// Invariant 4: LP is exhausted before any HP is shed.
				if a.Result.ShedHPBits > 1e-9 {
					res.HPShedEpochs++
					var lpLeft float64
					for _, d := range a.Result.Demands {
						lpLeft += d.Total() - d.At(0)
					}
					if lpLeft > 1e-9 {
						res.violate("cell %d epoch %d: %g HP bits shed while %g LP bits remained",
							i, epoch, a.Result.ShedHPBits, lpLeft)
					}
				}
				if a.Result.ShedLPBits > 1e-9 || a.Result.ShedHPBits > 1e-9 {
					res.ShedEpochs++
				}
			}
			// Invariant 5: NoPlan is only legal before the first success.
			if a.NoPlan && everOK[i] {
				res.violate("cell %d epoch %d: reported nothing to serve despite a prior good epoch", i, epoch)
			}
			if a.Outcome == host.OutcomeOK {
				everOK[i] = true
			}
			if a.PlanAge > res.MaxStaleness {
				res.MaxStaleness = a.PlanAge
			}

			// Invariant 2: shadow byte-identity until legitimate
			// divergence.
			if !divergent[i] {
				switch {
				case a.Injected.Panic || a.Injected.Hang,
					a.Outcome != host.OutcomeOK,
					a.ColdRestarted:
					divergent[i] = true
				default:
					res.MatchedEpochs++
					b := sreps[i]
					if !samePlanReports(a, b) {
						res.violate("cell %d epoch %d: restored/undisturbed timeline diverged from shadow (%.9g vs %.9g)",
							i, epoch, a.Plan.Objective, b.Plan.Objective)
						divergent[i] = true
					}
				}
			}

			// Determinism digest over everything the data plane saw.
			mix(uint64(i)<<32 | uint64(epoch))
			mix(uint64(a.Outcome))
			mix(math.Float64bits(a.Plan.Objective))
			for _, tau := range a.Plan.Tau {
				mix(math.Float64bits(tau))
			}
			if a.Result != nil {
				mix(uint64(a.Result.Solver.LPPivots))
			}
			var flags uint64
			if a.Restored {
				flags |= 1
			}
			if a.ColdRestarted {
				flags |= 2
			}
			if a.NoPlan {
				flags |= 4
			}
			mix(flags)
		}
	}
	for i := range divergent {
		if !divergent[i] {
			res.CleanCells++
		}
	}
	res.Digest = digest
	return res, nil
}

// tallyReport folds one cell-epoch report into the counters.
func tallyReport(r *ChaosSoakResult, rep *host.EpochReport) {
	switch rep.Outcome {
	case host.OutcomeOK:
		r.OK++
	case host.OutcomeFailed:
		r.Failed++
		if rep.Panicked {
			r.PanicsRecovered++
		}
	case host.OutcomeBackoff:
		r.Backoff++
	case host.OutcomeBreakerOpen:
		r.BreakerOpen++
	case host.OutcomeDisabled:
		r.DisabledEpochs++
	}
	if rep.Outcome != host.OutcomeOK {
		r.DegradedEpochs++
	}
	if rep.Injected.Hang {
		r.HangsInjected++
	}
	if rep.Result != nil && rep.Result.TruncatedSolve {
		r.Truncations++
	}
	if rep.Restored {
		r.Restores++
	}
	if rep.ColdRestarted {
		r.ColdRestarts++
	}
	if rep.Outcome == host.OutcomeOK && rep.Injected.Corrupt {
		r.CorruptedCkpts++
	}
}

// samePlanReports compares the served plans and solver work of two
// reports for byte-identity.
func samePlanReports(a, b *host.EpochReport) bool {
	if a.Plan.Objective != b.Plan.Objective || len(a.Plan.Tau) != len(b.Plan.Tau) {
		return false
	}
	for i := range a.Plan.Tau {
		if a.Plan.Tau[i] != b.Plan.Tau[i] {
			return false
		}
	}
	if len(a.Plan.Schedules) != len(b.Plan.Schedules) {
		return false
	}
	for i := range a.Plan.Schedules {
		sa, sb := a.Plan.Schedules[i], b.Plan.Schedules[i]
		if len(sa.Assignments) != len(sb.Assignments) {
			return false
		}
		for j := range sa.Assignments {
			if sa.Assignments[j] != sb.Assignments[j] {
				return false
			}
		}
	}
	if a.Result != nil && b.Result != nil {
		if a.Result.Solver.LPPivots != b.Result.Solver.LPPivots ||
			len(a.Result.Solver.Iterations) != len(b.Result.Solver.Iterations) {
			return false
		}
	}
	return true
}
