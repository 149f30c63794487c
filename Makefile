# Development entry points. Everything is stdlib Go; no external tools
# beyond the Go toolchain are required (staticcheck/govulncheck are
# used by `make lint` when installed, and skipped otherwise).

GO ?= go

# Recipes run under bash with pipefail, so a failing command piped
# into benchjson (make bench, bench-diff) fails the recipe instead of
# taking the status of the last command.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

.PHONY: all build test race vet cover bench bench-full bench-smoke bench-diff fuzz fuzz-short soak-short trace-smoke figures figures-check examples lint check-deprecated clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: vet + the deprecated-API guard always run;
# staticcheck and govulncheck run when present on PATH (CI installs
# them — see .github/workflows/ci.yml).
lint: vet check-deprecated
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; else echo "govulncheck not installed; skipping"; fi

# The deprecated SolveBackground/SolveContext wrappers were removed in
# favor of Solve(ctx), and host construction moved to functional
# options (host.New(host.WithWatchdog…)) with the imperative
# host.NewFromOptions shim deleted; fail if anything reintroduces a
# call to the removed forms. The root-split parallel pricer is gone
# too: its option, search and CLI flag must not come back. So is dual
# stabilization: its policy, option and center must not come back
# anywhere outside perfbench/. Nor may the multi-column and
# heuristic-first toggles: the engine owns that policy. Nor may
# heuristic-first pricing itself: every round runs the configured
# pricer once, so cg.Options has no Heuristic pricer, the keep-pace gate
# and its halted-exact state are gone, core picks no heuristic pricer
# and the greedy pricer peels no column batch. Persisted state
# has one image format and one fingerprint: the retired checkpoint
# readers, the gains-only warm-solver hash and the second counter path
# of mmwavesim -v must not come back. internal/lp has one simplex driver:
# each of its pivot-rule methods is defined once outside tests, and
# the dense reference (tableau, now denseInverse) implements only the
# basis-inverse methods. There is one default pricer and one solver
# option surface: NewBranchBoundPricer pools leaves, so no non-test
# code outside perfbench/ assigns PoolLeaves; core's functional
# options are only New and WithPricer (perfbench calls them); and the
# shims perfbench alone keeps alive (PricerWorkers, StabRounds,
# BranchBoundPricer.Parallel) are referenced nowhere else but where
# they are declared and documented, and so are the always-zero
# HeuristicHits/ExactFallbacks stats perfbench still reads. An injected
# hang runs its epoch
# under an already-expired deadline, so the host's pricer gate and the
# engine's fallback pricer must not come back, and Options.Tracer is
# the one way a tracer reaches a solve (no context-carried tracer).
# A traffic class is an index into video.Demand: the class table
# (names, ranks, weights, SLA floors) and the quality solver's floor
# rows must not come back, and RunEpoch(ctx) is the one epoch entry.
# The campaign harness is one loop: a figure's reduced default scale
# sits on its registration (Driver.Scale) and the CLI applies it before
# the explicit flags, so RunEnv's flag-provenance bits must not come
# back; and every campaign solve runs under the campaign context, so no
# solve in the experiment, session or slice drivers may be handed a
# fresh context.Background().
# A cell's checkpoint file is a two-slot file written in place, so
# internal/host reads and writes c.ckptPath only through
# checkpoint.LoadImage/StoreImage (Evict may remove it).
# There is one PHY, the paper's: Table I gains and Shannon levels over
# Γ, so the path-loss, Rician, antenna and 802.11ad models, the gain
# generator interface, the angle helpers only they used and the
# -channel-model/-rate-model selectors must not come back.
# There is one response encoder, encoding/json: no non-test
# internal/api file declares a MarshalJSON method, and pncd's
# encodeLine and the ReportList type (which only dodged json.Encoder's
# re-scan of hand-encoded bytes) must not come back outside perfbench/.
# Nor may lp.Solution.ReducedCost, a per-solve pass no caller read.
# One run records every figure: mmwavesim -record DIR writes the
# tables, CSVs and SVGs from the in-memory figures, so the -csv output
# switch, the cmd/mmwaveplot CSV-to-SVG tool, plot.ParseCSV, the Fig. 4
# CSV renderer and RunEnv's CSV bit must not come back.
# There is one trace encoder, encoding/json from obs.Event's struct
# tags: no non-test internal/obs file declares appendJSON,
# appendJSONFloat or appendJSONString. Nor may the helpers no program
# called come back: Network.MinPowers and SharesNode (the general form
# is MinPowersAssigned) and Schedule.RateVectors and ActiveLinks (the
# general form is RateVectorsByClass).
check-deprecated:
	@if grep -rn --include='*.go' -e 'SolveBackground(' -e 'SolveContext(' -e 'host\.NewFromOptions(' . ; then \
		echo "error: deprecated API used (call Solve(ctx) / host.New(With…) instead)"; exit 1; \
	else echo "deprecated-API check passed"; fi
	@if grep -rn --include='*.go' -e 'WithPricerWorkers(' -e 'searchParallel' -e '-pricer-workers' . || \
		grep -rn -e 'WithPricerWorkers(' -e 'searchParallel' -e '-pricer-workers' .github/ ; then \
		echo "error: the parallel pricer was removed (parallelism comes from -workers and host cells)"; exit 1; \
	else echo "serial-pricer check passed"; fi
	@if grep -rn --include='*.go' -E 'StabilizePolicy|WithStabilization|StabCenter|stabCenter' . \
		| grep -v '^\./perfbench/' ; then \
		echo "error: dual stabilization was removed (every round prices at the true master duals)"; exit 1; \
	else echo "no-stabilization check passed"; fi
	@if grep -rn --include='*.go' -E 'HeuristicPolicy|HeuristicFirst|HeuristicPricing|WithMultiColumn|MultiColumn\.Disable|Disable: true' . ; then \
		echo "error: the CG engine owns its loop policy (a pricer's PoolLeaves decides multi-column)"; exit 1; \
	else echo "no-loop-toggles check passed"; fi
	@if grep -rn --include='*.go' -E '\b(keepPace|exactHalted|heuristicPricer|PoolColumns)\b|\bHeuristic:' . | grep -v '^\./perfbench/' || \
		grep -n -E '^[[:space:]]+Heuristic[[:space:]]' internal/cg/*.go ; then \
		echo "error: heuristic-first pricing was removed (every round runs the configured pricer once and yields a Theorem-1 bound)"; exit 1; \
	else echo "one-pricer-per-round check passed"; fi
	@if grep -rn --include='*.go' -E 'gainsFingerprint|minVersion|r\.ver\b|legacyDuals|experiment\.Telemetry|\bTelemetry\{' . ; then \
		echo "error: one checkpoint format (no legacy readers), one fingerprint (netmodel.Network.Fingerprint), one counter path (obs.Registry)"; exit 1; \
	else echo "one-format-one-fingerprint check passed"; fi
	@if grep -rn --include='*.go' -E 'PoolLeaves *=([^=]|$$)' . | grep -v '_test\.go:' | grep -v '^\./perfbench/' || \
		grep -rn --include='*.go' -E '\bcore\.(NewOptions|With(MaxIterations|Tolerance|GapTarget|Tracer|Metrics))\(' . | grep -v '^\./perfbench/' || \
		grep -rn --include='*.go' -E '(^|[^.[:alnum:]_])(NewOptions|With(MaxIterations|Tolerance|GapTarget|Tracer|Metrics))\(' internal/core ; then \
		echo "error: one default pricer (NewBranchBoundPricer pools leaves) and one core option surface (Options, or New with WithPricer)"; exit 1; \
	else echo "one-pricer-one-option-surface check passed"; fi
	@if grep -rn --include='*.go' -E 'hangGate|\bFallback\b|\bobs\.(NewContext|FromContext)\b' . || \
		grep -rn --include='*.go' -E '^func (NewContext|FromContext)\(' internal/obs ; then \
		echo "error: a hang is an expired deadline (no pricer gate, no fallback pricer) and Options.Tracer is the one tracer input"; exit 1; \
	else echo "no-hang-gate-no-context-tracer check passed"; fi
	@if grep -rn --include='*.go' -E 'BlockageRate|BlockageSlots|DrawFailures|blockRNG|streamBlock|MeanBitsByClass|\bReplans?\b|TruncatedSolves|WithBreaker|Breaker(Threshold|Cooldown)|MetricsPrefix|IngestErrors\(\)|RateVectorsValue\(|\bNewOptions\(|\.Registry\(\)|\) Registry\(\)' . || \
		grep -rn --include='*.go' -E '\bSolveBudget\b' internal/session || \
		grep -rn --include='*.go' -E '\b(cfg|Config)\.(Metrics|Tracer)\b|^[[:space:]]+(Metrics|Tracer)[[:space:]]+\*obs\.' internal/pncd ; then \
		echo "error: every knob takes effect (no blockage fault class, no option, hook or accessor that only tests set or read)"; exit 1; \
	else echo "every-knob-takes-effect check passed"; fi
	@if grep -rn --include='*.go' -E 'ClassSpec|MinRateBits|EffectiveWeight|DefaultClasses|SliceClasses|hasFloors|classWeight|video\.Classes\b|RunEpochContext\(' . ; then \
		echo "error: a traffic class is an index (no class table, weights or SLA floors) and RunEpoch(ctx) is the one epoch entry"; exit 1; \
	else echo "class-is-an-index check passed"; fi
	@if grep -rn --include='*.go' -E '\b(LinksSet|SeedsSet|BudgetSet)\b' . || \
		grep -n 'Solve(context\.Background())' $$(ls internal/experiment/*.go internal/session/*.go | grep -v '_test\.go$$') internal/pncd/slices.go ; then \
		echo "error: one campaign harness (reduced scales live on Driver.Scale; every campaign solve runs under the campaign context)"; exit 1; \
	else echo "one-campaign-harness check passed"; fi
	@if grep -rn --include='*.go' -E '\b(PricerWorkers|StabRounds|HeuristicHits|ExactFallbacks)\b|\.Parallel *=' . | grep -v '^\./perfbench/' \
		| grep -vE '^\./internal/(core/core|core/pricer|cg/stats)\.go:[0-9]+:[[:space:]]*(//|(PricerWorkers|StabRounds|HeuristicHits|ExactFallbacks|Parallel)[[:space:]]+int$$)' ; then \
		echo "error: PricerWorkers, StabRounds, HeuristicHits, ExactFallbacks and BranchBoundPricer.Parallel are no-op shims kept only for perfbench/"; exit 1; \
	else echo "perfbench-shims check passed"; fi
	@dups=$$(grep -hoE '^func \([a-z]+ \*?[A-Za-z]+\) (fill|run|runDual|pivot|pivotDual|driveOutArtificials|tryWarmStart|encodeBasis)\(' \
		$$(ls internal/lp/*.go | grep -v '_test\.go$$') | sed -E 's/.*\) ([A-Za-z]+)\($$/\1/' | sort | uniq -d); \
	extra=$$(grep -nE '^func \([a-z]+ \*?(tableau|denseInverse)\) ' $$(ls internal/lp/*.go | grep -v '_test\.go$$') \
		| grep -vE '\) (factorize|ftran|btran|update|fillRatio)\('); \
	if [ -n "$$dups$$extra" ]; then \
		echo "$$dups"; echo "$$extra"; \
		echo "error: internal/lp has one simplex driver (sparse.go); the dense reference is only a basis inverse"; exit 1; \
	else echo "one-simplex-driver check passed"; fi
	@if grep -Hn 'ckptPath' $$(ls internal/host/*.go | grep -v '_test\.go$$') \
		| grep -vE '^[^:]+:[0-9]+:[[:space:]]*(//|ckptPath[[:space:]]+string)' \
		| grep -vE 'c\.ckptPath (==|!=) ""|c\.ckptPath = filepath\.Join\(|checkpoint\.(LoadImage|StoreImage)\(c\.ckptPath[,)]|os\.Remove\(c\.ckptPath\)' ; then \
		echo "error: internal/host reads and writes a cell's checkpoint file only through checkpoint.LoadImage/StoreImage"; exit 1; \
	else echo "checkpoint-slot-file check passed"; fi
	@if grep -rn --include='*.go' -E '\b(PathLoss|Rician|IEEE80211adSCRateTable|ChannelModel|RateModel|OffsetAngle|AngleDiff)\b|channel\.Generator\b|"mmwave/internal/antenna"|"-?(channel|rate)-model"' . ; then \
		echo "error: one PHY, the paper's (Table I gains, Shannon levels over Γ; no other gain or rate model, no model selector)"; exit 1; \
	else echo "one-phy check passed"; fi
	@if grep -rn --include='*.go' -E '\b(encodeLine|ReportList|ReducedCost)\b' . | grep -v '^\./perfbench/' || \
		grep -Hn -E '^func \([^)]*\) MarshalJSON\(' $$(ls internal/api/*.go | grep -v '_test\.go$$') ; then \
		echo "error: one response encoder (encoding/json: no MarshalJSON in internal/api, no encodeLine or ReportList) and no lp.Solution.ReducedCost"; exit 1; \
	else echo "one-response-encoder check passed"; fi
	@if [ -e cmd/mmwaveplot ] || \
		grep -rn --include='*.go' -E '"-?csv"|mmwaveplot|ParseCSV|RenderConvergenceCSV|env\.CSV\b' . || \
		grep -rn -E 'mmwaveplot|mmwavesim.* -csv\b' .github/ ; then \
		echo "error: one run records every figure (mmwavesim -record DIR; no -csv switch, no cmd/mmwaveplot, no CSV parser)"; exit 1; \
	else echo "one-figure-recorder check passed"; fi
	@if grep -Hn -E '^func (\([^)]*\) )?appendJSON(Float|String)?\(' $$(ls internal/obs/*.go | grep -v '_test\.go$$') || \
		grep -rn --include='*.go' -E '\b(MinPowers|RateVectors|ActiveLinks)\(|\bSharesNode\b' . ; then \
		echo "error: one trace encoder (encoding/json from obs.Event's tags) and no unused helpers (use MinPowersAssigned, RateVectorsByClass)"; exit 1; \
	else echo "one-trace-encoder check passed"; fi
	@if grep -rn --include='*.go' -E '\.(HP|LP)\b' . \
		| grep -vE 'schedule\.(HP|LP)\b' \
		| grep -v '^\./internal/schedule/' \
		| grep -v '^\./internal/video/' ; then \
		echo "error: two-field .HP/.LP demand access (use video.Demand.At / video.TwoClass; schedule.HP/LP layer tokens are fine)"; exit 1; \
	else echo "two-class field check passed"; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Regenerate the tracked benchmark baseline: the root suite (one
# benchmark point per paper figure, the 3-class slice scenario, and
# solver micro-benchmarks with probe counters) rendered to
# BENCH_baseline.json via cmd/benchjson.
# min-of-3 filters scheduler noise out of the recorded wall clocks so
# the bench-diff gate compares against real compute time. -cpu 1 pins
# GOMAXPROCS so benchmark names carry no -N suffix on any machine and
# match the baseline's names exactly.
bench:
	$(GO) test -bench=. -benchtime=1x -count=3 -cpu 1 -benchmem -run='^$$' . | \
		$(GO) run ./cmd/benchjson -reduce min -out BENCH_baseline.json

# Compare the current tree against the committed baseline: first a
# report-only diff of the whole suite, then the regression gate — the
# ablation, Fig-1, sparse-LP, probe and pricer-node micro-benchmarks
# re-run with -count=3
# and fail the build (exit 3) when their min-of-3 ns/op regresses more
# than 20%, or (exit 4) when the gate finds none of them in both the
# baseline and the run. Both runs pin -cpu 1 like `make bench`.
# -work lists the deterministic work counters the benchmarks report:
# when a gated benchmark's ns/op regresses but every shared counter is
# unchanged, the walk is identical, and the gate excuses the slowdown
# as co-tenant CPU noise only up to the run's machine-speed factor (the
# median now/old ns/op ratio of the counter-identical benchmarks) plus
# the 20%: a uniformly slower machine passes, one rung slower than the
# rest fails.
# Other benchmarks stay report-only: at -benchtime=1x their noise
# floor is above any sane threshold.
bench-diff:
	$(GO) test -bench=. -benchtime=1x -cpu 1 -benchmem -run='^$$' . | $(GO) run ./cmd/benchjson -diff BENCH_baseline.json
	$(GO) test -bench='BenchmarkAblation|BenchmarkFig1|BenchmarkLPSparse|BenchmarkProbe|BenchmarkPricerNode' -benchtime=1x -count=3 -cpu 1 -benchmem -run='^$$' . | \
		$(GO) run ./cmd/benchjson -reduce min -diff BENCH_baseline.json \
		-gate 20 -match 'BenchmarkAblation|BenchmarkFig1|BenchmarkLPSparse|BenchmarkProbe|BenchmarkPricerNode' \
		-work 'sched_s,iters,pivots/op,nodes/op,probes/op,masters/op'

# Single-iteration smoke over every package (CI).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Full multi-iteration benchmark run over every package.
bench-full:
	$(GO) test -bench=. -benchmem ./...

# Fuzz passes over every wire decoder — the control-plane frames, the
# fault-event wire/spec decoders, the checkpoint snapshot decoder and
# slot-file reader, the v1 response decoder (held to encoding/json on
# arbitrary bytes) and the v1 request bodies with their conversions —
# plus the sparse LU kernel (random pivot sequences checked against a
# dense shadow and a fresh refactorization) and the probe solver's
# border caches (Probe/Push/Pop/Reset sequences checked bit for bit
# against a fresh replay).
# FUZZTIME scales all targets; fuzz-short is the CI setting. A slot
# file is at least 8 KiB, and minimizing each new input of that size
# with the default budget takes the whole run, so FuzzLoadImage caps
# minimization; so does FuzzWireResponses, seeded with a 44 KB step
# body, and FuzzProbeSolverReuse, whose every execution replays each
# probe's committed pattern.
FUZZTIME ?= 20s

fuzz:
	$(GO) test -fuzz FuzzDemandReportUnmarshal -fuzztime $(FUZZTIME) ./internal/pnc
	$(GO) test -fuzz FuzzChannelUpdateUnmarshal -fuzztime $(FUZZTIME) ./internal/pnc
	$(GO) test -fuzz FuzzScheduleGrantUnmarshal -fuzztime $(FUZZTIME) ./internal/pnc
	$(GO) test -fuzz FuzzFailureDecoders -fuzztime $(FUZZTIME) ./internal/faults
	$(GO) test -fuzz FuzzSnapshotDecode -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -fuzz FuzzLoadImage -fuzztime $(FUZZTIME) -fuzzminimizetime 200x ./internal/checkpoint
	$(GO) test -fuzz FuzzSparseLU -fuzztime $(FUZZTIME) ./internal/lp
	$(GO) test -fuzz FuzzWireResponses -fuzztime $(FUZZTIME) -fuzzminimizetime 200x ./internal/api
	$(GO) test -fuzz FuzzWireRequests -fuzztime $(FUZZTIME) ./internal/api
	$(GO) test -fuzz FuzzProbeSolverReuse -fuzztime $(FUZZTIME) -fuzzminimizetime 200x ./internal/netmodel

fuzz-short:
	$(MAKE) fuzz FUZZTIME=10s

# Reduced chaos soak under the race detector: the supervised
# multi-cell host with the full fault cocktail (panics, hangs,
# kill/restore, checkpoint corruption), asserting the soak invariants
# (determinism digest, shadow byte-identity, Theorem-1 bounds, LP-
# before-HP shedding). The full-scale soak is `go run ./cmd/mmwavesim
# -fig chaossoak`.
soak-short:
	$(GO) test -race -short -run 'TestChaosSoak' -v ./internal/experiment

# Trace-enabled smoke: run one tiny fig1 point with -trace and
# -metrics attached and validate the artifacts — the trace must be
# non-empty valid JSONL (cmd/tracecheck) and the exposition must
# contain the solver counters.
trace-smoke:
	$(GO) run ./cmd/mmwavesim -fig 1 -seeds 1 -sweep 3 -channels 2 -budget 500 \
		-trace /tmp/trace-smoke.jsonl -metrics /tmp/trace-smoke.metrics > /dev/null
	$(GO) run ./cmd/tracecheck /tmp/trace-smoke.jsonl
	grep -q core_master_solves_total /tmp/trace-smoke.metrics
	grep -q experiment_cell_seconds_count /tmp/trace-smoke.metrics

# End-to-end smoke of the pncd daemon: boot on an ephemeral port,
# create a cell over the v1 API, step an epoch, scrape /metrics for
# the host_* series, then SIGTERM and require a clean drain.
pncd-smoke:
	@rm -rf /tmp/pncd-smoke && mkdir -p /tmp/pncd-smoke
	$(GO) build -o /tmp/pncd-smoke/pncd ./cmd/pncd
	/tmp/pncd-smoke/pncd -addr 127.0.0.1:0 -addr-file /tmp/pncd-smoke/addr \
		-state /tmp/pncd-smoke/state & echo $$! > /tmp/pncd-smoke/pid
	@for i in $$(seq 1 100); do [ -s /tmp/pncd-smoke/addr ] && break; sleep 0.1; done; \
		[ -s /tmp/pncd-smoke/addr ] || { echo "pncd never bound"; kill $$(cat /tmp/pncd-smoke/pid); exit 1; }
	curl -sf "http://$$(cat /tmp/pncd-smoke/addr)/healthz" | grep -q '"status":"ok"'
	curl -sf -X POST "http://$$(cat /tmp/pncd-smoke/addr)/v1/cells" \
		-d '{"instance":{"links":4,"channels":2,"seed":1}}' | grep -q '"cell":0'
	curl -sf -X POST "http://$$(cat /tmp/pncd-smoke/addr)/v1/cells/0/step" | grep -q '"outcome":"ok"'
	curl -sf "http://$$(cat /tmp/pncd-smoke/addr)/v1/cells/0/plan" | grep -q '"objective"'
	curl -sf "http://$$(cat /tmp/pncd-smoke/addr)/metrics" | grep -q 'host_epochs_total 1'
	kill -TERM $$(cat /tmp/pncd-smoke/pid)
	@for i in $$(seq 1 100); do kill -0 $$(cat /tmp/pncd-smoke/pid) 2>/dev/null || break; sleep 0.1; done; \
		if kill -0 $$(cat /tmp/pncd-smoke/pid) 2>/dev/null; then echo "pncd did not drain"; kill -9 $$(cat /tmp/pncd-smoke/pid); exit 1; fi
	@echo "pncd smoke passed"

# Regenerate every recorded figure of EXPERIMENTS.md into results/
# (slow: the paper's full 50-seed sweeps). One mmwavesim -record run
# writes all of them, each campaign run once: Figs. 1 and 3 share one
# link sweep, and the SVGs are drawn from the in-memory figures. The
# recorded set is declared in internal/experiment/record.go. RESULTS
# redirects the output.
RESULTS ?= results

figures:
	$(GO) run ./cmd/mmwavesim -record $(RESULTS)

# Regenerate every figure with `make figures` into a scratch directory
# and require each file to match its committed copy in results/ byte
# for byte: the paper-scale figs 1–3 (tables, CSVs and SVGs), which no
# test regenerates, and the rest, which TestFiguresMatchResults also
# checks. About 2 minutes on 2 CPUs.
FIGCHECK_DIR ?= /tmp/figures-check

figures-check:
	rm -rf $(FIGCHECK_DIR)
	$(MAKE) --no-print-directory figures RESULTS=$(FIGCHECK_DIR)
	@fail=0; for f in $(FIGCHECK_DIR)/*; do \
		cmp "$$f" "results/$$(basename "$$f")" || fail=1; \
	done; \
	if [ $$fail -ne 0 ]; then echo "error: a regenerated figure differs from results/"; exit 1; fi; \
	echo "figures check passed: $$(ls $(FIGCHECK_DIR) | wc -l) files match results/"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/videostreaming
	$(GO) run ./examples/adaptive
	$(GO) run ./examples/pnccontrol
	$(GO) run ./examples/quality

clean:
	$(GO) clean ./...
