// Command mmwavesim reproduces the paper's evaluation figures from the
// command line.
//
// Usage:
//
//	mmwavesim -fig 1                 # scheduling time vs number of links
//	mmwavesim -fig 2                 # average delay vs traffic demand
//	mmwavesim -fig 3                 # Jain fairness vs number of links
//	mmwavesim -fig 4                 # convergence trace (one instance)
//	mmwavesim -fig ablation          # design-choice ablations
//	mmwavesim -fig quality           # PSNR within one GOP period
//	mmwavesim -fig blockage          # re-optimization under link blockage
//	mmwavesim -fig relay             # dual-hop recovery of blocked sessions
//	mmwavesim -fig streaming         # multi-GOP stall/quality trade-off
//	mmwavesim -fig faultsweep        # served demand vs control-frame loss
//	mmwavesim -fig slices            # 3-class slice scenario through pncd (v1 API)
//	mmwavesim -fig help              # list every registered figure
//	mmwavesim -print-config          # echo Table I parameters
//
// Scale knobs (-links, -channels, -seeds, -budget, …) override the
// paper's Table I defaults; -csv switches the output format. The
// observability flags capture a campaign's internals without changing
// its output: -trace FILE records structured solver events as JSONL,
// -metrics FILE dumps the campaign's counter/histogram exposition,
// -pprof ADDR serves net/http/pprof for the run's duration, and
// -cpuprofile/-heapprofile write pprof captures of the whole campaign.
// SIGINT/SIGTERM stop a campaign gracefully: the sweep halts at the
// next cell boundary, in-flight solves truncate to their anytime
// plans, and every artifact file is still flushed before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"mmwave/internal/experiment"
	"mmwave/internal/faults"
	"mmwave/internal/obs"

	// Registers the "slices" figure driver (it drives cells through the
	// v1 API, so it lives next to the server rather than in experiment).
	_ "mmwave/internal/pncd"
)

func main() {
	// SIGINT/SIGTERM cancel the campaign context: sweeps stop at the
	// next cell boundary, in-flight solves truncate to their anytime
	// plans, and the artifact flush below still runs — an interrupted
	// campaign leaves complete traces, metrics, and profiles. A second
	// signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := runCtx(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

// run executes the CLI without cancellation (test entry point).
func run(args []string) int {
	return runCtx(context.Background(), args, os.Stdout)
}

// runCtx executes the CLI under ctx, writing its figure output to
// stdout, and returns the process exit code.
func runCtx(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("mmwavesim", flag.ContinueOnError)
	var (
		figure       = fs.String("fig", "", "figure to reproduce (\"help\" lists all)")
		printConfig  = fs.Bool("print-config", false, "print the simulation parameters (Table I) and exit")
		csv          = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		links        = fs.Int("links", 0, "number of links ‖L‖ (0 = Table I default)")
		channels     = fs.Int("channels", 0, "number of channels ‖K‖ (0 = Table I default)")
		seeds        = fs.Int("seeds", 0, "repetitions per point (0 = Table I default of 50)")
		seed         = fs.Int64("seed", 1, "base random seed")
		budget       = fs.Int("budget", 0, "pricing search budget in feasibility probes (0 = default)")
		demand       = fs.Float64("demand", 1, "demand scale (multiples of one GOP volume)")
		interference = fs.String("interference", "global", "interference model: global (paper's formulation) or per-channel (physical)")
		chanModel    = fs.String("channel-model", "table-i", "gain model: table-i, path-loss, or rician")
		rateModel    = fs.String("rate-model", "shannon", "rate table: shannon (eq. 2 over Γ) or 80211ad (MCS set)")
		pmax         = fs.Float64("pmax", 0, "transmit power cap in W (0 = Table I default of 1 W)")
		sweep        = fs.String("sweep", "", "comma-separated sweep values overriding the default x-axis")
		rep          = fs.Int("rep", 0, "repetition index for -fig 4")
		cells        = fs.Int("cells", 0, "supervised cells for -fig chaossoak (0 = default of 8)")
		epochs       = fs.Int("epochs", 0, "scheduling epochs for -fig faultsweep/chaossoak (0 = default)")
		retries      = fs.Int("retries", -1, "control-frame retry budget for -fig faultsweep (-1 = policy default)")
		failSpec     = fs.String("fail", "", "injected link outages for -fig faultsweep, e.g. \"100@3+50,400@7+25\" (slot@link+duration)")
		workers      = fs.Int("workers", 0, "goroutines for independent sweep cells (0 = one per CPU, 1 = sequential reference; output is identical either way)")
		verbose      = fs.Bool("v", false, "print solver telemetry (probes, master solves, pricer nodes) to stderr")
		traceFile    = fs.String("trace", "", "record structured solver trace events (JSONL) to this file")
		metricsFile  = fs.String("metrics", "", "dump the campaign's metrics exposition to this file after the run (\"-\" = stderr)")
		pprofAddr    = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the run's duration")
		cpuProfile   = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		heapProfile  = fs.String("heapprofile", "", "write a heap profile taken at the end of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := experiment.DefaultConfig()
	if *links > 0 {
		cfg.NumLinks = *links
	}
	if *channels > 0 {
		cfg.NumChannels = *channels
	}
	if *seeds > 0 {
		cfg.Seeds = *seeds
	}
	if *budget > 0 {
		cfg.PricerBudget = *budget
	}
	cfg.Seed = *seed
	cfg.DemandScale = *demand
	cfg.Interference = *interference
	cfg.ChannelModel = *chanModel
	cfg.RateModel = *rateModel
	if *pmax > 0 {
		cfg.PMax = *pmax
	}
	cfg.Workers = *workers
	cfg.Ctx = ctx

	if *printConfig {
		fmt.Fprintln(stdout, cfg)
		return 0
	}
	if *figure == "" {
		fmt.Fprintln(os.Stderr, "mmwavesim: pass -fig NAME (-fig help lists figures) or -print-config; see -h")
		return 2
	}
	if *figure == "help" {
		fmt.Fprintln(stdout, "figures:")
		for _, d := range experiment.Drivers() {
			fmt.Fprintf(stdout, "  %-10s  %s\n", d.Name, d.Synopsis)
		}
		return 0
	}
	driver, ok := experiment.Lookup(*figure)
	if !ok {
		fmt.Fprintf(os.Stderr, "mmwavesim: unknown figure %q (-fig help lists figures)\n", *figure)
		return 2
	}

	var xs []float64
	if *sweep != "" {
		for _, part := range strings.Split(*sweep, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mmwavesim: bad -sweep value %q: %v\n", part, err)
				return 2
			}
			xs = append(xs, v)
		}
	}
	var failures []faults.LinkFailure
	if *failSpec != "" {
		evs, err := faults.ParseFailures(*failSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmwavesim: bad -fail spec: %v\n", err)
			return 2
		}
		failures = evs
	}

	// Observability: everything below is attach-only — the campaign's
	// figures are byte-identical with or without it.
	var traceSink *obs.JSONLSink
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmwavesim: -trace: %v\n", err)
			return 1
		}
		traceSink = obs.NewJSONLSink(f)
		cfg.Tracer = obs.New(traceSink)
	}
	if *metricsFile != "" || *verbose {
		cfg.Metrics = obs.NewRegistry()
	}
	if *pprofAddr != "" {
		bound, shutdown, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmwavesim: %v\n", err)
			return 1
		}
		defer shutdown() //nolint:errcheck // best-effort teardown on exit
		fmt.Fprintf(os.Stderr, "mmwavesim: pprof listening on http://%s/debug/pprof/\n", bound)
	}
	prof, err := obs.StartProfiles(*cpuProfile, *heapProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmwavesim: %v\n", err)
		return 1
	}

	env := &experiment.RunEnv{
		Cfg:      cfg,
		XS:       xs,
		CSV:      *csv,
		Out:      stdout,
		Rep:      *rep,
		Cells:    *cells,
		Epochs:   *epochs,
		Retries:  *retries,
		Failures: failures,
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "links":
			env.LinksSet = true
		case "seeds":
			env.SeedsSet = true
		case "budget":
			env.BudgetSet = true
		}
	})

	runErr := driver.Run(env)

	// Finish the captures before reporting, so a completed process
	// always leaves complete artifacts even when the driver failed.
	if err := prof.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "mmwavesim: profile capture: %v\n", err)
	}
	if traceSink != nil {
		if err := traceSink.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "mmwavesim: -trace: %v\n", err)
			if runErr == nil {
				runErr = err
			}
		} else if *verbose {
			fmt.Fprintf(os.Stderr, "mmwavesim: trace: %d events to %s\n", traceSink.Events(), *traceFile)
		}
	}
	if *metricsFile != "" {
		if err := writeMetrics(cfg.Metrics, *metricsFile); err != nil {
			fmt.Fprintf(os.Stderr, "mmwavesim: -metrics: %v\n", err)
			if runErr == nil {
				runErr = err
			}
		}
	}

	if runErr != nil {
		if errors.Is(runErr, context.Canceled) {
			fmt.Fprintln(os.Stderr, "mmwavesim: interrupted — partial artifacts flushed")
		} else {
			fmt.Fprintf(os.Stderr, "mmwavesim: %v\n", runErr)
		}
		return 1
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "mmwavesim: telemetry: %s\n", telemetry(cfg.Metrics))
	}
	return 0
}

// telemetry renders the -v solver summary from the campaign's registry.
func telemetry(m *obs.Registry) string {
	c := func(name string) int64 { return m.Counter(name).Value() }
	return fmt.Sprintf("solves=%d iterations=%d master-solves=%d probes=%d pricer-nodes=%d lp-pivots=%d",
		c("cg_warm_runs_total")+c("cg_cold_runs_total"), c("core_cg_rounds_total"),
		c("core_master_solves_total"), c("core_probes_total"),
		c("core_pricer_nodes_total"), c("core_lp_pivots_total"))
}

// writeMetrics dumps the registry's text exposition to path ("-" means
// stderr, so -csv output on stdout stays clean).
func writeMetrics(reg *obs.Registry, path string) error {
	if path == "-" {
		return reg.WriteText(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
