# Development entry points. Everything is stdlib Go; no external tools
# beyond the Go toolchain are required (staticcheck/govulncheck are
# used by `make lint` when installed, and skipped otherwise).

GO ?= go

.PHONY: all build test race vet cover bench bench-full bench-smoke bench-diff fuzz fuzz-short soak-short trace-smoke figures examples lint check-deprecated clean

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
# heuristic-first toggles: the engine owns that policy. Persisted state
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
# they are declared and documented.
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
		echo "error: the CG engine owns its loop policy (a pricer's PoolLeaves decides multi-column; the heuristic runs only after a budget-truncated exact round)"; exit 1; \
	else echo "no-loop-toggles check passed"; fi
	@if grep -rn --include='*.go' -E 'gainsFingerprint|minVersion|r\.ver\b|legacyDuals|experiment\.Telemetry|\bTelemetry\{' . ; then \
		echo "error: one checkpoint format (no legacy readers), one fingerprint (netmodel.Network.Fingerprint), one counter path (obs.Registry)"; exit 1; \
	else echo "one-format-one-fingerprint check passed"; fi
	@if grep -rn --include='*.go' -E 'PoolLeaves *=([^=]|$$)' . | grep -v '_test\.go:' | grep -v '^\./perfbench/' || \
		grep -rn --include='*.go' -E '\bcore\.(NewOptions|With(MaxIterations|Tolerance|GapTarget|Tracer|Metrics))\(' . | grep -v '^\./perfbench/' || \
		grep -rn --include='*.go' -E '(^|[^.[:alnum:]_])(NewOptions|With(MaxIterations|Tolerance|GapTarget|Tracer|Metrics))\(' internal/core ; then \
		echo "error: one default pricer (NewBranchBoundPricer pools leaves) and one core option surface (Options, or New with WithPricer)"; exit 1; \
	else echo "one-pricer-one-option-surface check passed"; fi
	@if grep -rn --include='*.go' -E '\b(PricerWorkers|StabRounds)\b|\.Parallel *=' . | grep -v '^\./perfbench/' \
		| grep -vE '^\./internal/(core/core|core/pricer|cg/stats)\.go:[0-9]+:[[:space:]]*(//|(PricerWorkers|StabRounds|Parallel)[[:space:]]+int$$)' ; then \
		echo "error: PricerWorkers, StabRounds and BranchBoundPricer.Parallel are no-op shims kept only for perfbench/"; exit 1; \
	else echo "perfbench-shims check passed"; fi
	@dups=$$(grep -hoE '^func \([a-z]+ \*?[A-Za-z]+\) (fill|run|runDual|pivot|pivotDual|driveOutArtificials|tryWarmStart|encodeBasis)\(' \
		$$(ls internal/lp/*.go | grep -v '_test\.go$$') | sed -E 's/.*\) ([A-Za-z]+)\($$/\1/' | sort | uniq -d); \
	extra=$$(grep -nE '^func \([a-z]+ \*?(tableau|denseInverse)\) ' $$(ls internal/lp/*.go | grep -v '_test\.go$$') \
		| grep -vE '\) (factorize|ftran|btran|update|fillRatio)\('); \
	if [ -n "$$dups$$extra" ]; then \
		echo "$$dups"; echo "$$extra"; \
		echo "error: internal/lp has one simplex driver (sparse.go); the dense reference is only a basis inverse"; exit 1; \
	else echo "one-simplex-driver check passed"; fi
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
# unchanged, the walk is identical and the slowdown is co-tenant CPU
# noise, so the gate excuses it instead of failing an unmodified tree.
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
# fault-event wire/spec decoders, the checkpoint snapshot decoder —
# plus the sparse LU kernel (random pivot sequences checked against a
# dense shadow and a fresh refactorization). FUZZTIME scales all
# targets; fuzz-short is the CI setting.
FUZZTIME ?= 20s

fuzz:
	$(GO) test -fuzz FuzzDemandReportUnmarshal -fuzztime $(FUZZTIME) ./internal/pnc
	$(GO) test -fuzz FuzzChannelUpdateUnmarshal -fuzztime $(FUZZTIME) ./internal/pnc
	$(GO) test -fuzz FuzzScheduleGrantUnmarshal -fuzztime $(FUZZTIME) ./internal/pnc
	$(GO) test -fuzz FuzzFailureDecoders -fuzztime $(FUZZTIME) ./internal/faults
	$(GO) test -fuzz FuzzSnapshotDecode -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -fuzz FuzzSparseLU -fuzztime $(FUZZTIME) ./internal/lp

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

# Regenerate every figure of EXPERIMENTS.md into results/ (slow: the
# paper's full 50-seed sweeps).
figures:
	mkdir -p results
	$(GO) run ./cmd/mmwavesim -fig 1 | tee results/fig1.txt
	$(GO) run ./cmd/mmwavesim -fig 2 | tee results/fig2.txt
	$(GO) run ./cmd/mmwavesim -fig 3 | tee results/fig3.txt
	$(GO) run ./cmd/mmwavesim -fig 4 | tee results/fig4.txt
	$(GO) run ./cmd/mmwavesim -fig ablation -links 15 -seeds 20 | tee results/ablation.txt
	$(GO) run ./cmd/mmwavesim -fig quality -links 20 -seeds 20 | tee results/quality.txt
	$(GO) run ./cmd/mmwavesim -fig blockage | tee results/blockage.txt
	$(GO) run ./cmd/mmwavesim -fig relay | tee results/relay.txt
	$(GO) run ./cmd/mmwavesim -fig streaming | tee results/streaming.txt
	$(GO) run ./cmd/mmwavesim -fig 1 -csv > results/fig1.csv
	$(GO) run ./cmd/mmwavesim -fig 2 -csv > results/fig2.csv
	$(GO) run ./cmd/mmwavesim -fig 3 -csv > results/fig3.csv
	$(GO) run ./cmd/mmwaveplot -in results/fig1.csv -out results/fig1.svg -title "Fig 1" -xlabel "number of links" -ylabel "scheduling time (s)"
	$(GO) run ./cmd/mmwaveplot -in results/fig2.csv -out results/fig2.svg -title "Fig 2" -xlabel "traffic demand" -ylabel "average delay (s)"
	$(GO) run ./cmd/mmwaveplot -in results/fig3.csv -out results/fig3.svg -title "Fig 3" -xlabel "number of links" -ylabel "Jain fairness"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/videostreaming
	$(GO) run ./examples/adaptive
	$(GO) run ./examples/pnccontrol
	$(GO) run ./examples/quality

clean:
	$(GO) clean ./...
