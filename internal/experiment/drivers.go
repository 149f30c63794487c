package experiment

import (
	"fmt"

	"mmwave/internal/session"
	"mmwave/internal/stats"
)

// The evaluation figures register themselves here; the CLI's -fig
// dispatch is a registry lookup, so adding a figure is one Register
// call next to its implementation — no switch to extend.
func init() {
	Register(Driver{Name: "1", Synopsis: "scheduling time vs number of links (Fig. 1)",
		Run: func(env *RunEnv) error {
			fig, err := Fig1(env.Cfg, env.XS)
			if err != nil {
				return err
			}
			return env.renderFigure(fig)
		}})
	Register(Driver{Name: "2", Synopsis: "average delay vs traffic demand (Fig. 2)",
		Run: func(env *RunEnv) error {
			fig, err := Fig2(env.Cfg, env.XS)
			if err != nil {
				return err
			}
			return env.renderFigure(fig)
		}})
	Register(Driver{Name: "3", Synopsis: "Jain fairness vs number of links (Fig. 3)",
		Run: func(env *RunEnv) error {
			fig, err := Fig3(env.Cfg, env.XS)
			if err != nil {
				return err
			}
			return env.renderFigure(fig)
		}})
	Register(Driver{Name: "4", Synopsis: "convergence trace of one instance (Fig. 4)", Run: runFig4})
	Register(Driver{Name: "ablation", Synopsis: "design-choice ablations of the proposed scheme",
		Run: func(env *RunEnv) error {
			fig, err := Ablation(env.Cfg)
			if err != nil {
				return err
			}
			return env.renderFigure(fig)
		}})
	Register(Driver{Name: "quality", Synopsis: "PSNR within one GOP period (§III extension)",
		Run: func(env *RunEnv) error {
			fig, err := FigQuality(env.Cfg, env.XS)
			if err != nil {
				return err
			}
			return env.renderFigure(fig)
		}})
	Register(Driver{Name: "blockage", Synopsis: "re-optimization under link blockage churn", Run: runBlockageFig})
	Register(Driver{Name: "relay", Synopsis: "dual-hop recovery of blocked sessions", Run: runRelayFig})
	Register(Driver{Name: "streaming", Synopsis: "multi-GOP stall/quality trade-off", Run: runStreamingFig})
	Register(Driver{Name: "faultsweep", Synopsis: "served demand vs control-frame loss", Run: runFaultSweepFig})
	Register(Driver{Name: "chaossoak", Synopsis: "crash-safety soak of the supervised multi-cell host", Run: runChaosSoakFig})
}

// runChaosSoakFig runs the crash-safety soak at its acceptance scale
// (8 cells × 200 epochs unless overridden) and fails the run on any
// invariant violation, so the figure doubles as a CI gate.
func runChaosSoakFig(env *RunEnv) error {
	cc := DefaultChaosSoakConfig()
	links := cc.Net.NumLinks
	channels := cc.Net.NumChannels
	cc.Net = env.Cfg
	cc.Net.NumLinks = links
	cc.Net.NumChannels = channels
	if env.LinksSet {
		cc.Net.NumLinks = env.Cfg.NumLinks
	}
	if env.Cells > 0 {
		cc.Cells = env.Cells
	}
	if env.Epochs > 0 {
		cc.Epochs = env.Epochs
	}
	res, err := ChaosSoak(cc)
	if err != nil {
		return err
	}
	fmt.Fprintf(env.Out, "CHAOS SOAK — %d cells × %d epochs (%d links/cell, watchdog %s)\n",
		res.Cells, res.Epochs, cc.Net.NumLinks, cc.Watchdog)
	fmt.Fprintf(env.Out, "  outcomes:   %d ok, %d failed (%d recovered panics), %d backoff, %d breaker-open, %d disabled\n",
		res.OK, res.Failed, res.PanicsRecovered, res.Backoff, res.BreakerOpen, res.DisabledEpochs)
	fmt.Fprintf(env.Out, "  chaos:      %d hangs (%d truncated-but-bounded solves), %d restores, %d cold restarts, %d corrupted checkpoints\n",
		res.HangsInjected, res.Truncations, res.Restores, res.ColdRestarts, res.CorruptedCkpts)
	fmt.Fprintf(env.Out, "  serving:    %d degraded epochs served last-known-good (max staleness %d), %d shed epochs (%d reached HP)\n",
		res.DegradedEpochs, res.MaxStaleness, res.ShedEpochs, res.HPShedEpochs)
	fmt.Fprintf(env.Out, "  shadow:     %d/%d cells byte-identical to the undisturbed fleet (%d cell-epochs compared)\n",
		res.CleanCells, res.Cells, res.MatchedEpochs)
	fmt.Fprintf(env.Out, "  digest:     %016x\n", res.Digest)
	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			fmt.Fprintf(env.Out, "  VIOLATION:  %s\n", v)
		}
		return fmt.Errorf("experiment: chaos soak: %d invariant violations", len(res.Violations))
	}
	fmt.Fprintf(env.Out, "  invariants: 0 violations\n")
	return nil
}

// runFig4 reproduces the convergence trace. Fig. 4 needs a provably
// convergent run, so it defaults to a scale where exact pricing
// completes unless the user overrode -links or -budget.
func runFig4(env *RunEnv) error {
	cfg := env.Cfg
	if !env.LinksSet {
		cfg.NumLinks = 8
	}
	if !env.BudgetSet {
		cfg.PricerBudget = 100_000_000
	}
	conv, err := Fig4(cfg, env.Rep)
	if err != nil {
		return err
	}
	if env.CSV {
		return RenderConvergenceCSV(env.Out, conv)
	}
	return RenderConvergence(env.Out, conv)
}

// runFaultSweepFig runs the control-loss robustness study at its
// reduced default scale (full scale × epochs × rates is slow).
func runFaultSweepFig(env *RunEnv) error {
	fc := DefaultFaultSweepConfig()
	fc.Net = env.Cfg
	if !env.LinksSet {
		fc.Net.NumLinks = 10
	}
	if !env.SeedsSet {
		fc.Net.Seeds = 10
	}
	if env.Epochs > 0 {
		fc.Epochs = env.Epochs
	}
	if env.Retries >= 0 {
		fc.Policy.MaxRetries = env.Retries
	}
	if env.XS != nil {
		fc.Rates = env.XS
	}
	fc.Failures = env.Failures
	fig, err := FaultSweep(fc)
	if err != nil {
		return err
	}
	return env.renderFigure(fig)
}

// runStreamingFig plays 16 GOPs through the session layer in both
// scheduling modes and prints the stall/quality trade-off.
func runStreamingFig(env *RunEnv) error {
	cfg := env.Cfg
	if !env.LinksSet {
		cfg.NumLinks = 8
	}
	inst, err := NewInstance(cfg, stats.Fork(cfg.Seed, 0))
	if err != nil {
		return err
	}
	fmt.Fprintf(env.Out, "STREAMING — %d GOPs over %d links, %d channels (demand ×%g)\n",
		16, cfg.NumLinks, cfg.NumChannels, cfg.DemandScale)
	for _, mode := range []session.Mode{session.MinTime, session.Quality} {
		scfg := session.Config{
			Network: inst.Network,
			Session: cfg.Video,
			Trace:   cfg.Trace,
			Mode:    mode,
			GOPs:    16,
			Solver:  cfg.solverOptions(),
			Seed:    cfg.Seed,
		}
		scfg.Trace.MeanRate *= cfg.DemandScale
		m, err := session.Run(scfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(env.Out, "  %-8s: on-time %2d/%d, stalls %.3f s, mean PSNR %.1f dB, delivered %.1f%%\n",
			mode, m.OnTime, m.GOPs, m.StallSeconds, m.PSNR.Mean, 100*m.DeliveredFraction.Mean)
	}
	return nil
}

// runRelayFig runs the dual-hop recovery study at its reduced default
// scale and prints the summary.
func runRelayFig(env *RunEnv) error {
	rc := DefaultRelayConfig()
	rc.Net = env.Cfg
	if !env.LinksSet {
		rc.Net.NumLinks = 10
	}
	if !env.SeedsSet {
		rc.Net.Seeds = 10
	}
	res, err := RunRelay(rc)
	if err != nil {
		return err
	}
	fmt.Fprintf(env.Out, "RELAY — dual-hop recovery of blocked sessions (%d%% blocked, %d relay candidates)\n",
		int(rc.BlockedFrac*100), rc.Relays)
	fmt.Fprintf(env.Out, "  deferred (no relays): served %.1f%% of demand in %s s\n",
		100*res.ServedFracNoRelay.Mean, res.TimeNoRelay.String())
	fmt.Fprintf(env.Out, "  relayed (two hops):   served 100%% of demand in %s s (%.1f sessions relayed on average)\n",
		res.TimeWithRelay.String(), res.Relayed.Mean)
	return nil
}

// runBlockageFig runs the blockage-churn study at its reduced default
// scale and prints the summary.
func runBlockageFig(env *RunEnv) error {
	bc := DefaultBlockageConfig()
	bc.Net = env.Cfg
	if !env.LinksSet {
		bc.Net.NumLinks = 10
	}
	if !env.SeedsSet {
		bc.Net.Seeds = 10
	}
	res, err := RunBlockage(bc)
	if err != nil {
		return err
	}
	fmt.Fprintf(env.Out, "BLOCKAGE — per-epoch scheduling time under link churn (%d epochs × %d reps)\n",
		bc.Epochs, bc.Net.Seeds)
	fmt.Fprintf(env.Out, "  re-optimized each epoch: %s s\n", res.Reoptimized.String())
	fmt.Fprintf(env.Out, "  static epoch-0 plan:     %s s (+%d epochs unserved)\n", res.Static.String(), res.Unserved)
	fmt.Fprintf(env.Out, "  mean blocked fraction:   %.3f\n", res.BlockedFrac.Mean)
	return nil
}
