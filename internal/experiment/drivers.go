package experiment

import (
	"fmt"

	"mmwave/internal/session"
	"mmwave/internal/stats"
)

// The reduced default scales of the figures that do not run at
// Table I: each is written once, here or on its registration, and the
// CLI applies it before its explicit scale flags.
var (
	// studyScale is shared by the blockage, relay, fault-sweep and
	// warm-reuse studies (full scale × epochs is slow).
	studyScale = Scale{Links: 10, Seeds: 10}
	// chaosSoakScale is one soak cell: 4 links × 2 channels.
	chaosSoakScale = Scale{Links: 4, Channels: 2, Seeds: 1}
)

// The evaluation figures register themselves here; the CLI's -fig
// dispatch is a registry lookup, so adding a figure is one Register
// call next to its implementation — no switch to extend.
func init() {
	// Figs. 1 and 3 read two metrics of one link sweep; each driver
	// prints its own.
	Register(Driver{Name: "1", Synopsis: "scheduling time vs number of links (Fig. 1)",
		Run: rendered(func(env *RunEnv) (*Figure, error) { fig1, _, err := LinkSweep(env.Cfg, env.XS); return fig1, err })})
	Register(Driver{Name: "2", Synopsis: "average delay vs traffic demand (Fig. 2)",
		Run: rendered(func(env *RunEnv) (*Figure, error) { return Fig2(env.Cfg, env.XS) })})
	Register(Driver{Name: "3", Synopsis: "Jain fairness vs number of links (Fig. 3)",
		Run: rendered(func(env *RunEnv) (*Figure, error) { _, fig3, err := LinkSweep(env.Cfg, env.XS); return fig3, err })})
	// Fig. 4 needs a provably convergent run: a scale where exact
	// pricing completes.
	Register(Driver{Name: "4", Synopsis: "convergence trace of one instance (Fig. 4)",
		Scale: Scale{Links: 8, Budget: 100_000_000}, Run: runFig4})
	Register(Driver{Name: "ablation", Synopsis: "design-choice ablations of the proposed scheme",
		Scale: Scale{Links: 15, Seeds: 20},
		Run:   rendered(func(env *RunEnv) (*Figure, error) { return Ablation(env.Cfg) })})
	Register(Driver{Name: "quality", Synopsis: "PSNR within one GOP period (§III extension)",
		Scale: Scale{Links: 20, Seeds: 20},
		Run:   rendered(func(env *RunEnv) (*Figure, error) { return FigQuality(env.Cfg, env.XS) })})
	Register(Driver{Name: "blockage", Synopsis: "re-optimization under link blockage churn",
		Scale: studyScale, Run: runBlockageFig})
	Register(Driver{Name: "relay", Synopsis: "dual-hop recovery of blocked sessions",
		Scale: studyScale, Run: runRelayFig})
	Register(Driver{Name: "streaming", Synopsis: "multi-GOP stall/quality trade-off",
		Scale: Scale{Links: 8}, Run: runStreamingFig})
	Register(Driver{Name: "faultsweep", Synopsis: "served demand vs control-frame loss",
		Scale: studyScale, Run: rendered(faultSweepFig)})
	Register(Driver{Name: "chaossoak", Synopsis: "crash-safety soak of the supervised multi-cell host",
		Scale: chaosSoakScale, Run: runChaosSoakFig})
}

// rendered adapts a figure builder to a driver that renders its figure.
func rendered(build func(env *RunEnv) (*Figure, error)) func(env *RunEnv) error {
	return func(env *RunEnv) error {
		fig, err := build(env)
		if err != nil {
			return err
		}
		return Render(env.Out, fig)
	}
}

// runChaosSoakFig runs the crash-safety soak at its acceptance scale
// (8 cells × 200 epochs unless overridden) and fails the run on any
// invariant violation, so the figure doubles as a CI gate.
func runChaosSoakFig(env *RunEnv) error {
	cc := DefaultChaosSoakConfig()
	cc.Net = env.Cfg
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
	fmt.Fprintf(env.Out, "CHAOS SOAK — %d cells × %d epochs (%d links × %d channels/cell, watchdog %s)\n",
		res.Cells, res.Epochs, cc.Net.NumLinks, cc.Net.NumChannels, cc.Watchdog)
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

// runFig4 reproduces the convergence trace.
func runFig4(env *RunEnv) error {
	conv, err := Fig4(env.Cfg, env.Rep)
	if err != nil {
		return err
	}
	return RenderConvergence(env.Out, conv)
}

// faultSweepFig builds the control-loss robustness study.
func faultSweepFig(env *RunEnv) (*Figure, error) {
	fc := DefaultFaultSweepConfig()
	fc.Net = env.Cfg
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
	return FaultSweep(fc)
}

// runStreamingFig plays 16 GOPs through the session layer in both
// scheduling modes and prints the stall/quality trade-off.
func runStreamingFig(env *RunEnv) error {
	cfg := env.Cfg
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
		m, err := session.Run(cfg.Context(), scfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(env.Out, "  %-8s: on-time %2d/%d, stalls %.3f s, mean PSNR %.1f dB, delivered %.1f%%\n",
			mode, m.OnTime, m.GOPs, m.StallSeconds, m.PSNR.Mean, 100*m.DeliveredFraction.Mean)
	}
	return nil
}

// runRelayFig runs the dual-hop recovery study and prints the summary.
func runRelayFig(env *RunEnv) error {
	rc := DefaultRelayConfig()
	rc.Net = env.Cfg
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

// runBlockageFig runs the blockage-churn study and prints the summary.
func runBlockageFig(env *RunEnv) error {
	bc := DefaultBlockageConfig()
	bc.Net = env.Cfg
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
