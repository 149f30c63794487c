package cg

import (
	"context"
	"fmt"

	"mmwave/internal/lp"
	"mmwave/internal/netmodel"
	"mmwave/internal/obs"
	"mmwave/internal/schedule"
)

// MasterModel is the pluggable master formulation: everything that
// distinguishes P1 (min Σ τ over demand-cover rows) from the quality
// mode (max Σ w·y under delivery, cap, and budget rows) while the
// engine owns the loop. Implementations are stateless views over their
// owner's demands/weights, so refreshing the RHS after a demand change
// needs no rebuild.
type MasterModel interface {
	// NewMaster lays down the master problem's rows and any fixed
	// (non-column) variables, called once per State lifetime (and again
	// after a column GC rebuild).
	NewMaster() *lp.Problem
	// AppendColumn adds one pooled schedule as a master column.
	AppendColumn(p *lp.Problem, s *schedule.Schedule) error
	// RefreshRHS rewrites the right-hand sides from the owner's current
	// demands; called before every master solve so SetDemands works.
	RefreshRHS(p *lp.Problem)
	// Duals extracts the class-major pricing duals lambda[c][l] from a
	// master solution, scaled so a column improves the master iff Ψ > 1
	// (the quality model divides its delivery duals by the budget row's
	// |μ|).
	Duals(sol *lp.Solution) [][]float64
	// Upper reports the model's upper bound reading of a master
	// solution (P1: the objective; quality: its negation, since the max
	// is solved as a min).
	Upper(sol *lp.Solution) float64
	// Bound forms the model's per-iteration lower bound from a pricing
	// round, or reports false when the model has none (quality mode has
	// no Theorem-1 analogue).
	Bound(upper float64, pr *PriceResult) (float64, bool)
	// ColumnOffset is the number of fixed structural variables laid
	// before the first schedule column (0 for P1, 2L for quality).
	ColumnOffset() int
	// SpanName names the solve's trace span.
	SpanName() string
}

// Options configures one engine.
type Options struct {
	// Pricer generates columns. Required.
	Pricer Pricer
	// Heuristic, when non-nil, is a cheap pricer (typically the greedy
	// interference-free builder, possibly peeling a column batch) tried
	// ahead of the exact pricer in every round that follows a
	// budget-truncated exact round. Its column is taken only when it is
	// new to the pool, improves at the true master duals and keeps pace
	// with the exact frontier (keepPace); otherwise the exact pricer
	// fires in the same round. Heuristic rounds are never exact: they
	// emit no Theorem-1 bound and never declare convergence. Nil prices
	// exactly every round.
	Heuristic Pricer
	// MaxIterations caps column-generation rounds; zero means 500.
	MaxIterations int
	// Tolerance on the reduced cost: the engine stops when
	// Φ ≥ −Tolerance under exact pricing. Zero means 1e-7.
	Tolerance float64
	// GapTarget, when positive, stops the solve early once the relative
	// UB/LB gap falls below it (the paper's Theorem-1 early stop). Only
	// effective for models whose Bound reports true.
	GapTarget float64
	// GC bounds pool growth across runs; a zero MaxColumns means the
	// engine default, max(256, 32·L) columns for an L-link network.
	GC GCPolicy
	// LPOpts passes options to the master problem solves.
	LPOpts lp.Options
	// Tracer receives per-iteration trace events; nil is the no-op
	// tracer.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives the run's Stats delta as core_*
	// counters plus the engine's own cg_warm_*/cg_gc_* counters.
	Metrics *obs.Registry
}

// Outcome is the raw result of one engine run; the owning solver
// shapes it into its public result type (plan extraction is
// formulation-specific).
type Outcome struct {
	// Sol is the final master solution the plan is read from.
	Sol        *lp.Solution
	Iterations []IterationStat
	LowerBound float64 // best proven lower bound (0 when the model has none)
	Converged  bool    // Φ ≥ −tolerance with exact pricing
	// Duals are the final class-major pricing duals (model-scaled).
	Duals [][]float64
	// Warm reports that the run started from a previous run's basis and
	// pool rather than TDMA-cold.
	Warm bool
	// Stats is the run's work-counter delta.
	Stats Stats

	// Truncated reports an anytime result: the run stopped on a
	// canceled/expired context or the iteration budget rather than by
	// convergence. The master solution is still feasible and LowerBound
	// still valid (Theorem 1 holds for any Φ′ ≤ Φ*).
	Truncated bool
	// Stop is nil for a converged run; on truncation it wraps
	// ErrBudgetExceeded with the cause.
	Stop error
}

// Engine runs column generation for one model over one durable state.
type Engine struct {
	nw    *netmodel.Network
	model MasterModel
	state *State
	opts  Options
}

// NewEngine binds a model and its durable state to a network. The
// state must have been seeded with a coverage column set.
func NewEngine(nw *netmodel.Network, model MasterModel, state *State, opts Options) *Engine {
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 500
	}
	if opts.Tolerance <= 0 {
		opts.Tolerance = 1e-7
	}
	if opts.GC.MaxColumns <= 0 {
		opts.GC.MaxColumns = max(256, 32*nw.NumLinks())
	}
	return &Engine{nw: nw, model: model, state: state, opts: opts}
}

// State returns the engine's durable state.
func (e *Engine) State() *State { return e.state }

// Run executes the column-generation loop to convergence (or the
// configured iteration/gap limits) under a per-run budget carried by
// ctx. With a never-canceled context the walk is fully deterministic.
// When the budget expires mid-run, the context-aware pricer is
// canceled mid-search and returns its best schedule with a still-valid
// relaxation bound (the ContextPricer contract), and the best-so-far
// feasible master solution is returned with Truncated set and Stop
// wrapping ErrBudgetExceeded — never a bare error: by Theorem 1 any
// Φ′ ≤ Φ* still bounds the optimum, so an anytime result plus its
// proven gap is always available. A pricing error fails the run.
//
// Each iteration emits a "cg.iteration" trace event (iteration index,
// Φ, bounds, pool size, probe count) through Options.Tracer. Tracing
// never changes the result.
func (e *Engine) Run(ctx context.Context) (*Outcome, error) {
	st := e.state
	out := &Outcome{}
	out.Warm = st.runs > 0 && st.warmBasis != nil
	bestLower := 0.0
	before := st.stats
	defer func() {
		out.Stats = st.stats.delta(before)
		out.Stats.Publish(e.opts.Metrics)
		e.publishRun(out)
		st.runs++
	}()

	// Collect long-nonbasic columns before the first master solve, so a
	// mid-run basis is never disturbed.
	e.state.gc(e.opts.GC, e.model)

	span := e.opts.Tracer.StartSpan(e.model.SpanName())
	defer span.End()

	colHist := e.opts.Metrics.Histogram("cg_columns_per_round")
	lastPhi := 0.0       // last exact round's best reduced cost (≤ 0)
	exactHalted := false // last exact round hit its budget mid-search

	for iter := 0; iter < e.opts.MaxIterations; iter++ {
		mpSol, err := e.solveMaster()
		if err != nil {
			return nil, err
		}
		lambda := e.model.Duals(mpSol)
		upper := e.model.Upper(mpSol)

		// Heuristic-first: the heuristic column substitutes for a round
		// of exact pricing only when substitution actually wins. The
		// exact pricer must be running into its budget (a truncated
		// argmax is no better than any improving column, while a
		// completed search delivers far stronger batches than the
		// greedy ever will), and the heuristic column must be new to
		// the pool, improve at the true duals, and keep pace with the
		// exact walk's frontier. Otherwise the exact pricer fires in
		// the same round.
		var pr *PriceResult
		heuristic := false
		if e.opts.Heuristic != nil && exactHalted {
			if hr, herr := e.opts.Heuristic.Price(e.nw, lambda); herr == nil && hr.Schedule != nil {
				phiH := 1 - hr.Schedule.Value(e.nw, lambda)
				if phiH < -e.opts.Tolerance && phiH <= keepPace*lastPhi &&
					!st.pool.Contains(hr.Schedule) {
					pr = hr
					heuristic = true
					st.stats.HeuristicHits++
				}
			}
			if !heuristic {
				st.stats.ExactFallbacks++
			}
		}
		if pr == nil {
			pr, err = e.price(ctx, lambda)
		}
		st.stats.Rounds++
		if err != nil {
			return nil, fmt.Errorf("cg: pricing failed at iteration %d: %w", iter, err)
		}

		st.stats.Probes += pr.Probes
		st.stats.PricerNodes += pr.Nodes

		phi := 1 - pr.Value // reduced cost of the best found column
		if !heuristic {
			// The keep-pace bar references the exact walk's frontier: a
			// self-referential bar would let the greedy coast on its own
			// decaying progress.
			lastPhi = phi
			exactHalted = !pr.Exact && pr.Schedule != nil
		}
		// Theorem-1 bounds and convergence may only come from exact
		// pricing rounds: heuristic columns prove nothing about the
		// maximal Ψ.
		pure := !heuristic
		var lower float64
		var hasBound bool
		if pure {
			lower, hasBound = e.model.Bound(upper, pr)
		}
		if hasBound && lower > bestLower {
			bestLower = lower
		}

		out.Iterations = append(out.Iterations, IterationStat{
			Iter:       iter,
			Upper:      upper,
			Lower:      lower,
			BestLower:  bestLower,
			Phi:        phi,
			PoolSize:   st.pool.Len(),
			PricerNode: pr.Nodes,
			Exact:      pure && pr.Exact,
		})
		span.Emit(obs.Event{
			Name:   "cg.iteration",
			Iter:   iter,
			Phi:    phi,
			Upper:  upper,
			Lower:  lower,
			Pool:   st.pool.Len(),
			Probes: pr.Probes,
			Nodes:  pr.Nodes,
		})

		if ctx.Err() != nil {
			// Budget expired during pricing: mpSol is the best-so-far
			// feasible solution and pr's relaxation already fed bestLower.
			return e.finishTruncated(out, mpSol, lambda, bestLower, ctx), nil
		}

		converged := pure && pr.Exact && phi >= -e.opts.Tolerance
		gapMet := e.opts.GapTarget > 0 && upper > 0 &&
			(upper-bestLower)/upper <= e.opts.GapTarget
		if converged || gapMet || (pure && (pr.Schedule == nil || phi >= -e.opts.Tolerance)) {
			out.Sol = mpSol
			out.LowerBound = bestLower
			out.Converged = converged
			out.Duals = lambda
			return out, nil
		}

		// Admit this round's batch: the pricer's best column plus any
		// pooled near-optimal leaves, each re-priced at the true duals
		// (schedule.Pool dedups structurally identical columns).
		added := 0
		if pr.Schedule != nil {
			vTrue := pr.Value
			if heuristic {
				// Value a heuristic column exactly as the keep-pace
				// test did, so admission agrees with that test.
				vTrue = pr.Schedule.Value(e.nw, lambda)
			}
			if 1-vTrue < -e.opts.Tolerance {
				if _, ok := st.pool.Add(pr.Schedule); ok {
					added++
				}
			}
		}
		for _, sc := range pr.Extras {
			if sc != nil && 1-sc.Value(e.nw, lambda) < -e.opts.Tolerance {
				if _, ok := st.pool.Add(sc); ok {
					added++
				}
			}
		}
		st.stats.ColumnsAdded += added
		colHist.Observe(float64(added))

		if added == 0 {
			// The pricer returned a column already in the pool with
			// apparently negative reduced cost: numerical stall. Treat
			// the current solution as final rather than looping.
			out.Sol = mpSol
			out.LowerBound = bestLower
			out.Duals = lambda
			return out, nil
		}
		st.syncBookkeeping()
	}

	// Iteration limit: return the last master solution as an anytime
	// result.
	mpSol, err := e.solveMaster()
	if err != nil {
		return nil, err
	}
	out.Sol = mpSol
	out.LowerBound = bestLower
	out.Duals = e.model.Duals(mpSol)
	out.Truncated = true
	out.Stop = fmt.Errorf("%w: iteration limit %d", ErrBudgetExceeded, e.opts.MaxIterations)
	return out, nil
}

// finishTruncated assembles the anytime outcome for a canceled run.
func (e *Engine) finishTruncated(out *Outcome, mpSol *lp.Solution, lambda [][]float64, bestLower float64, ctx context.Context) *Outcome {
	out.Sol = mpSol
	out.LowerBound = bestLower
	out.Duals = lambda
	out.Truncated = true
	// Double-wrap so callers can match both the budget sentinel and the
	// cancellation cause (e.g. context.DeadlineExceeded from a watchdog)
	// through errors.Is.
	out.Stop = fmt.Errorf("%w: %w", ErrBudgetExceeded, context.Cause(ctx))
	return out
}

// price dispatches one pricing round, preferring the context-aware
// path.
func (e *Engine) price(ctx context.Context, lambda [][]float64) (*PriceResult, error) {
	if cp, ok := e.opts.Pricer.(ContextPricer); ok {
		return cp.PriceContext(ctx, e.nw, lambda)
	}
	return e.opts.Pricer.Price(e.nw, lambda)
}

// solveMaster solves the MP over the current pool. The problem is
// built incrementally: the model lays rows once, only columns for
// schedules pooled since the previous solve are appended, and the
// right-hand sides are refreshed every call so demand updates keep
// working against the same problem.
func (e *Engine) solveMaster() (*lp.Solution, error) {
	st := e.state
	st.stats.MasterSolves++
	if st.prob == nil {
		st.prob = e.model.NewMaster()
		st.solver = lp.NewSolver(st.prob)
		st.cols = 0
	}
	p := st.prob
	for j := st.cols; j < st.pool.Len(); j++ {
		if err := e.model.AppendColumn(p, st.pool.At(j)); err != nil {
			return nil, fmt.Errorf("cg: master column %d: %w", j, err)
		}
	}
	st.cols = st.pool.Len()
	st.syncBookkeeping()
	e.model.RefreshRHS(p)

	lpOpts := e.opts.LPOpts
	lpOpts.WarmBasis = st.warmBasis
	sol, err := st.solver.Solve(lpOpts)
	if err != nil {
		return nil, fmt.Errorf("cg: master LP: %w", err)
	}
	st.stats.LPPivots += sol.Iterations
	st.stats.LPRefactorizations += sol.Refactorizations
	st.stats.LPEtaUpdates += sol.EtaUpdates
	if sol.FillRatio > 0 {
		st.lastFill = sol.FillRatio
	}
	if sol.Warm {
		st.stats.WarmMasters++
	}
	switch sol.Status {
	case lp.StatusOptimal:
		st.warmBasis = sol.Basis
		st.noteBasis(sol.Basis, e.model.ColumnOffset())
		return sol, nil
	case lp.StatusInfeasible:
		return nil, fmt.Errorf("%w (TDMA initialization should prevent this)", ErrInfeasible)
	default:
		return nil, fmt.Errorf("cg: master problem ended with status %v", sol.Status)
	}
}

// publishRun emits the engine-level counters: warm/cold run split,
// warm master solves, and GC evictions, all under the fixed "cg"
// prefix so cross-epoch reuse is observable regardless of which solver
// owns the engine.
func (e *Engine) publishRun(out *Outcome) {
	m := e.opts.Metrics
	if m == nil {
		return
	}
	if out.Warm {
		m.Counter("cg_warm_runs_total").Inc()
	} else {
		m.Counter("cg_cold_runs_total").Inc()
	}
	m.Counter("cg_warm_masters_total").Add(int64(out.Stats.WarmMasters))
	m.Counter("cg_gc_evicted_columns_total").Add(int64(out.Stats.EvictedColumns))
	m.Counter("cg_heuristic_price_hits_total").Add(int64(out.Stats.HeuristicHits))
	m.Counter("cg_exact_fallbacks_total").Add(int64(out.Stats.ExactFallbacks))
	m.Gauge("cg_pool_columns").Set(float64(e.state.pool.Len()))
	m.Counter("cg_lp_ft_updates_total").Add(int64(out.Stats.LPEtaUpdates))
	if e.state.lastFill > 0 {
		m.Gauge("cg_lp_fill_ratio").Set(e.state.lastFill)
	}
}
