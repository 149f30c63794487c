package experiment

import (
	"context"
	"fmt"
	"math"

	"mmwave/internal/faults"
	"mmwave/internal/pnc"
	"mmwave/internal/sim"
	"mmwave/internal/stats"
	"mmwave/internal/video"
	"mmwave/internal/video/trace"
)

// FaultSweepConfig parameterizes the robustness study: the full PNC
// loop (demand reports → P1 solve → schedule grants → slot execution)
// runs for several epochs under increasing control-frame loss, and the
// study measures how much of the true demand still reaches the users.
type FaultSweepConfig struct {
	Net    Config
	Policy pnc.DegradePolicy
	Epochs int
	// Rates are the control-frame loss probabilities swept on the
	// x-axis; nil means DefaultFaultRates.
	Rates []float64
	// Faults beyond frame loss, applied at every sweep point on top of
	// the swept loss rate (CtrlLoss is overwritten per point).
	Faults faults.Config
	// Failures injects mid-epoch link outages into every epoch's slot
	// execution (on top of the control-plane faults).
	Failures []faults.LinkFailure
}

// DefaultFaultRates sweeps loss from a clean channel to 30%.
func DefaultFaultRates() []float64 { return []float64{0, 0.05, 0.1, 0.2, 0.3} }

// DefaultFaultSweepConfig returns a reduced-scale sweep: 10 links, 10
// repetitions, 4 epochs, the default degradation policy.
func DefaultFaultSweepConfig() FaultSweepConfig {
	return FaultSweepConfig{
		Net:    studyScale.Of(DefaultConfig()),
		Policy: pnc.DefaultDegradePolicy(),
		Epochs: 4,
	}
}

// FaultSweep runs the robustness study and returns the degradation
// curves: served HP and LP demand fraction and the fraction of links
// that finished an epoch degraded, versus the control-frame loss rate.
func FaultSweep(fc FaultSweepConfig) (*Figure, error) {
	if fc.Epochs <= 0 {
		return nil, fmt.Errorf("experiment: Epochs = %d, want > 0", fc.Epochs)
	}
	if err := fc.Net.Validate(); err != nil {
		return nil, err
	}
	rates := fc.Rates
	if rates == nil {
		rates = DefaultFaultRates()
	}

	sums, err := fanOut(fc.Net, len(rates), fc.Net.Seeds, func(ri, rep int) ([][]float64, error) {
		h, l, d, err := faultRep(fc, rates[ri], rep)
		if err != nil {
			return nil, fmt.Errorf("experiment: fault sweep rate=%g rep=%d: %w", rates[ri], rep, err)
		}
		return [][]float64{{h}, {l}, {d}}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     "faultsweep",
		Title:  "Served demand under control-frame loss (graceful degradation)",
		XLabel: "control-frame loss rate",
		YLabel: "fraction",
		Series: curves([]string{"hp-served", "lp-served", "degraded-links"}, rates, sums),
	}, nil
}

// faultRep runs one repetition at one loss rate: a fresh instance, a
// fresh coordinator, fc.Epochs epochs of the full lossy control loop.
// It returns the HP and LP served fractions (served bits over true
// demand across all epochs) and the mean fraction of degraded links.
func faultRep(fc FaultSweepConfig, lossRate float64, rep int) (hpFrac, lpFrac, degFrac float64, err error) {
	cfg := fc.Net
	rng := stats.Fork(cfg.Seed, int64(rep))
	inst, err := NewInstance(cfg, rng)
	if err != nil {
		return 0, 0, 0, err
	}
	L := inst.Network.NumLinks()

	fcfg := fc.Faults
	fcfg.CtrlLoss = lossRate
	// Derive the injector seed from (base seed, rep) only, so sweeping
	// the rate reuses the same fault timeline skeleton per repetition.
	fcfg.Seed = cfg.Seed<<16 ^ int64(rep+1)
	var inj *faults.Injector
	if fcfg.Enabled() {
		inj, err = faults.New(fcfg, L)
		if err != nil {
			return 0, 0, 0, err
		}
	}

	coord, err := pnc.NewCoordinator(inst.Network, nil, cfg.solverOptions())
	if err != nil {
		return 0, 0, 0, err
	}
	coord.Policy = fc.Policy
	coord.Faults = inj
	coord.Tracer = cfg.Tracer
	coord.Metrics = cfg.Metrics

	gens := make([]*trace.Generator, L)
	for l := 0; l < L; l++ {
		gens[l], err = trace.NewGenerator(cfg.Trace, stats.Fork(cfg.Seed, int64(1_000_000+rep*1000+l)))
		if err != nil {
			return 0, 0, 0, err
		}
	}

	var hpTrue, lpTrue, hpServed, lpServed, degLinks, links float64
	ctx := fc.Net.Context()
	for epoch := 0; epoch < fc.Epochs; epoch++ {
		if ctx.Err() != nil {
			return 0, 0, 0, context.Cause(ctx)
		}
		if inj != nil {
			inj.StepEpoch()
		}
		truth := make([]video.Demand, L)
		for l := 0; l < L; l++ {
			truth[l] = gens[l].NextDemand(cfg.Video).Scale(cfg.DemandScale)
			hpTrue += truth[l].At(0)
			lpTrue += truth[l].Total() - truth[l].At(0)
			if inj != nil && inj.LinkDown(l) {
				continue // the node is down; its report never leaves
			}
			frame, merr := pnc.DemandReport{Link: uint16(l), Demand: truth[l]}.MarshalBinary()
			if merr != nil {
				return 0, 0, 0, merr
			}
			// Control loss and garbled-but-decodable corruption are the
			// faults under study, not failures of the run: the
			// coordinator's fallback covers them.
			_ = coord.IngestLossy(frame)
		}

		// The campaign context reaches the solve itself: cancellation
		// mid-epoch truncates it to the anytime plan instead of
		// abandoning the epoch.
		res, rerr := coord.RunEpoch(ctx)
		if rerr != nil {
			return 0, 0, 0, rerr
		}

		// Node side: only delivered grants exist.
		schedules, taus, derr := pnc.DecodeGrants(res.Grants)
		if derr != nil {
			return 0, 0, 0, derr
		}
		links += float64(L)
		if len(schedules) == 0 {
			degLinks += float64(L) // every link starved this epoch
			continue
		}
		policy, perr := sim.NewPlanPolicy(schedules, taus, cfg.SlotDuration)
		if perr != nil {
			return 0, 0, 0, perr
		}
		// The partial plan runs against the TRUE demand: everything the
		// plan does not serve (shed, stale-shrunk, dropped grants) shows
		// up as under-delivery. A deadline just past the plan's own
		// length ends the epoch gracefully, bounded against corrupted
		// reports inflating the plan.
		deadline := res.Plan.Objective + float64(len(taus)+1)*cfg.SlotDuration
		deadline = math.Min(deadline, 60)
		exec, serr := sim.Run(inst.Network, truth, policy, sim.Options{
			SlotDuration: cfg.SlotDuration,
			Original:     truth,
			Deadline:     deadline,
			Failures:     fc.Failures,
		})
		if serr != nil {
			return 0, 0, 0, serr
		}
		for l := 0; l < L; l++ {
			hpServed += math.Min(exec.ServedAt(0, l), truth[l].At(0))
			lpServed += math.Min(exec.Served(l)-exec.ServedAt(0, l), truth[l].Total()-truth[l].At(0))
		}
		degLinks += float64(exec.DegradedCount())
	}

	hpFrac, lpFrac = 1, 1
	if hpTrue > 0 {
		hpFrac = hpServed / hpTrue
	}
	if lpTrue > 0 {
		lpFrac = lpServed / lpTrue
	}
	if links > 0 {
		degFrac = degLinks / links
	}
	return hpFrac, lpFrac, degFrac, nil
}
