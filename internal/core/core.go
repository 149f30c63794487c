// Package core implements the paper's contribution: column-generation
// based joint time-slot, channel, and power allocation that minimizes
// the total scheduling time of multi-user video sessions over a mmWave
// network (problem P1).
//
// The method alternates between:
//
//   - the master problem (MP) — a linear program over the current
//     schedule pool S′ choosing fractional slot counts τ^s (eqs. 14–17),
//     solved with the internal simplex, whose per-class duals λ_c price
//     schedules (eq. 18; the paper's λ_hp, λ_lp generalized to one
//     vector per traffic class); and
//   - the pricing sub-problem (SP) — find the feasible schedule with
//     the most negative reduced cost Φ = 1 − Σ_l λ_l·r_l (eqs. 19–21,
//     27–33), solved by a problem-specific exact branch and bound
//     (pricer.go) over the same feasible set as the paper's MILP.
//
// The loop itself — iteration stats, the Theorem-1 lower bound
// UB/(1−Φ), anytime truncation, and trace/metric emission — lives in
// internal/cg and is shared with the quality-mode solver; this package
// contributes the P1 master formulation (demand-cover rows, unit
// column costs) and the public solver API.
package core

import (
	"context"
	"fmt"
	"math"

	"mmwave/internal/cg"
	"mmwave/internal/lp"
	"mmwave/internal/netmodel"
	"mmwave/internal/obs"
	"mmwave/internal/schedule"
	"mmwave/internal/video"
)

// The pricer family and the per-solve record types are defined in
// internal/cg (the engine consumes them); the historical core names
// remain the canonical public surface.
type (
	// Pricer finds a high-value feasible schedule under dual prices.
	Pricer = cg.Pricer
	// ContextPricer is a Pricer cancelable mid-search.
	ContextPricer = cg.ContextPricer
	// PriceResult is the outcome of one pricing round.
	PriceResult = cg.PriceResult
	// IterationStat records one column-generation iteration.
	IterationStat = cg.IterationStat
	// Stats consolidates the work counters of one solve.
	Stats = cg.Stats
)

// Result is the outcome of a column-generation solve.
type Result struct {
	Plan       Plan            // the optimal (or best found) schedule plan
	Iterations []IterationStat // per-iteration telemetry
	LowerBound float64         // best proven lower bound on the P1 optimum, seconds
	Converged  bool            // true when Φ ≥ −tolerance with exact pricing
	Duals      Duals           // final simplex multipliers

	// Warm reports that the solve reused the pool and basis of a
	// previous solve on the same solver (SetDemands re-solve, PNC
	// cross-epoch reuse) instead of starting TDMA-cold.
	Warm bool

	// Stats holds the solve's work counters (probes, master solves,
	// pricer nodes, LP pivots); embedding keeps the historical field
	// names (res.Probes, res.MasterSolves, …) reading through promotion.
	Stats

	// Truncated reports an anytime result: the solve stopped on a
	// canceled/expired context or the iteration budget rather than by
	// convergence. The plan is still feasible and LowerBound still
	// valid (Theorem 1 holds for any Φ′ ≤ Φ*).
	Truncated bool
	// Stop is nil for a converged solve; on truncation it wraps
	// ErrBudgetExceeded with the cause, so callers can branch with
	// errors.Is(res.Stop, ErrBudgetExceeded).
	Stop error
}

// Gap returns the relative optimality gap (UB−LB)/UB of the result, 0
// when converged to optimality.
func (r *Result) Gap() float64 {
	if r.Plan.Objective <= 0 {
		return 0
	}
	g := (r.Plan.Objective - r.LowerBound) / r.Plan.Objective
	if g < 0 {
		return 0
	}
	return g
}

// Duals holds the final master-problem simplex multipliers (eq. 18),
// class-major: ByClass[c][l] prices one bit of class c on link l.
// Class 0 is the paper's HP layer, class 1 its LP layer.
type Duals struct {
	ByClass [][]float64
}

// Class returns class c's dual vector (nil beyond the solved classes).
func (d Duals) Class(c int) []float64 {
	if c < 0 || c >= len(d.ByClass) {
		return nil
	}
	return d.ByClass[c]
}

// Plan is a solved schedule plan: which feasible schedules to run and
// for how long (τ^s, in seconds; fractional as in the paper).
type Plan struct {
	Schedules []*schedule.Schedule
	Tau       []float64 // seconds allotted per schedule, parallel to Schedules
	Objective float64   // Σ τ^s, seconds
}

// TotalTime returns Σ τ^s in seconds.
func (p *Plan) TotalTime() float64 { return p.Objective }

// Slots returns the number of whole time slots the plan occupies when
// each schedule's duration is rounded up to slot granularity.
func (p *Plan) Slots(slotDur float64) int {
	if slotDur <= 0 {
		return 0
	}
	total := 0
	for _, tau := range p.Tau {
		total += int(math.Ceil(tau/slotDur - 1e-9))
	}
	return total
}

// Options configures the solver.
type Options struct {
	// Pricer used to generate columns. Nil means NewBranchBoundPricer(0):
	// the default probe budget, pooling leaves for multi-column rounds.
	Pricer Pricer
	// MaxIterations caps column-generation rounds; zero means 500.
	MaxIterations int
	// Tolerance on the reduced cost: the solver stops when
	// Φ ≥ −Tolerance under exact pricing. Zero means 1e-7.
	Tolerance float64
	// GapTarget, when positive, stops the solve early once the
	// relative UB/LB gap falls below it (the paper's early-termination
	// use of Theorem 1).
	GapTarget float64
	// ColumnGC overrides the engine's pool bound across re-solves of
	// the same solver (the PNC cross-epoch pattern): when the pool
	// exceeds ColumnGC.MaxColumns at the start of a solve, columns that
	// stayed out of every optimal basis for ColumnGC.MinAge solves are
	// dropped. The TDMA seed columns are never collected, so master
	// feasibility is preserved. The zero value is the engine default
	// of max(256, 32·L) columns, which a single cold solve never
	// reaches.
	ColumnGC cg.GCPolicy
	// PricerWorkers is ignored: the default pricer searches serially.
	//
	// Deprecated: a no-op kept only because perfbench's replay still
	// reads it.
	PricerWorkers int
	// LPOpts passes options to the master problem solves.
	LPOpts lp.Options
	// Tracer, when non-nil, receives structured trace events for every
	// column-generation iteration (see obs.Event). Nil means the
	// allocation-free no-op tracer. Tracing never changes results:
	// plans are byte-identical with and without a tracer.
	Tracer *obs.Tracer
	// Metrics, when non-nil, accumulates the solve's Stats as "core_*"
	// counters plus the engine's cg_warm_*/cg_gc_* reuse counters.
	Metrics *obs.Registry
}

// engineOptions lowers solver options onto the shared engine.
func (o Options) engineOptions() cg.Options {
	return cg.Options{
		Pricer:        o.Pricer,
		MaxIterations: o.MaxIterations,
		Tolerance:     o.Tolerance,
		GapTarget:     o.GapTarget,
		GC:            o.ColumnGC,
		LPOpts:        o.LPOpts,
		Tracer:        o.Tracer,
		Metrics:       o.Metrics,
	}
}

// Solver runs column generation on one network instance, holding the
// P1 master formulation over a durable cg.State (schedule pool, warm
// simplex basis) that survives demand changes.
type Solver struct {
	nw      *netmodel.Network
	demands []video.Demand
	opts    Options
	engine  *cg.Engine
}

// checkDemands validates a demand vector against the network: one
// demand per link, finite and non-negative, and no demand addressing a
// class beyond the network's traffic-class count.
func checkDemands(nw *netmodel.Network, demands []video.Demand) error {
	if len(demands) != nw.NumLinks() {
		return fmt.Errorf("core: %d demands for %d links", len(demands), nw.NumLinks())
	}
	nc := nw.TrafficClasses()
	for l, d := range demands {
		if !d.Valid() {
			return fmt.Errorf("core: invalid demand on link %d: %+v", l, d)
		}
		if d.NumClasses() > nc {
			return fmt.Errorf("core: demand on link %d addresses %d classes, network carries %d", l, d.NumClasses(), nc)
		}
	}
	return nil
}

// checkInstance is every solver constructor's shared validation: the
// network and the demand vector.
func checkInstance(nw *netmodel.Network, demands []video.Demand) error {
	if err := nw.Validate(); err != nil {
		return fmt.Errorf("core: invalid network: %w", err)
	}
	return checkDemands(nw, demands)
}

// withDefaultPricer fills in the pricer when o carries none.
func (o Options) withDefaultPricer() Options {
	if o.Pricer == nil {
		o.Pricer = NewBranchBoundPricer(0)
	}
	return o
}

// Option mutates an Options value; New applies a list of them.
type Option func(*Options)

// WithPricer selects the column-generation pricer.
func WithPricer(p Pricer) Option { return func(o *Options) { o.Pricer = p } }

// New builds a solver from functional options applied, in order, to a
// zero Options. NewSolver with an Options literal is the same solver.
func New(nw *netmodel.Network, demands []video.Demand, opts ...Option) (*Solver, error) {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return NewSolver(nw, demands, o)
}

// NewSolver validates the instance and seeds the column pool with the
// paper's TDMA initialization (§IV-B).
func NewSolver(nw *netmodel.Network, demands []video.Demand, opts Options) (*Solver, error) {
	if err := checkInstance(nw, demands); err != nil {
		return nil, err
	}
	opts = opts.withDefaultPricer()

	s := &Solver{nw: nw, demands: append([]video.Demand(nil), demands...), opts: opts}
	state := cg.NewState()
	state.Seed(schedule.TDMA(nw))
	s.engine = cg.NewEngine(nw, &p1Model{s: s}, state, opts.engineOptions())

	// Every link with positive demand must be coverable by some column.
	if err := s.checkCoverage(demands); err != nil {
		return nil, err
	}
	return s, nil
}

// StateSnapshot exports a serializable image of the solver's durable
// engine state (schedule pool, warm basis, GC bookkeeping)
// for checkpointing. See cg.StateSnapshot for what is and is not
// captured.
func (s *Solver) StateSnapshot() *cg.StateSnapshot {
	return s.engine.State().Snapshot()
}

// NewSolverFromSnapshot rebuilds a solver around a restored engine
// state instead of the TDMA-cold initialization: the next Solve
// warm-starts from the snapshot's pool and basis exactly as the
// snapshotted solver would have, so a restored coordinator re-solves
// byte-identically. The snapshot must come from a solver on an
// identical network (the checkpoint layer gates this with a problem
// fingerprint); every snapshot column is re-validated against nw as
// defense in depth.
func NewSolverFromSnapshot(nw *netmodel.Network, demands []video.Demand, opts Options, snap *cg.StateSnapshot) (*Solver, error) {
	if err := checkInstance(nw, demands); err != nil {
		return nil, err
	}
	if err := snap.ValidateAgainst(nw); err != nil {
		return nil, err
	}
	opts = opts.withDefaultPricer()
	state, err := cg.RestoreState(snap)
	if err != nil {
		return nil, err
	}
	s := &Solver{nw: nw, demands: append([]video.Demand(nil), demands...), opts: opts}
	s.engine = cg.NewEngine(nw, &p1Model{s: s}, state, opts.engineOptions())
	if err := s.checkCoverage(demands); err != nil {
		return nil, err
	}
	return s, nil
}

// checkCoverage rejects demand vectors with positive demand on links
// no pooled column can serve (the master would be infeasible).
func (s *Solver) checkCoverage(demands []video.Demand) error {
	pool := s.engine.State().Pool()
	covered := make([]bool, s.nw.NumLinks())
	for i := 0; i < pool.Len(); i++ {
		for _, a := range pool.At(i).Assignments {
			covered[a.Link] = true
		}
	}
	var unservable []int
	for l, d := range demands {
		if d.Total() > 0 && !covered[l] {
			unservable = append(unservable, l)
		}
	}
	if len(unservable) > 0 {
		return fmt.Errorf("%w: links %v cannot reach any rate level alone at PMax", ErrUnservable, unservable)
	}
	return nil
}

// Pool exposes the current column pool (read-only use).
func (s *Solver) Pool() *schedule.Pool { return s.engine.State().Pool() }

// Demands returns a copy of the solver's current demand vector (the
// one the last SetDemands installed, or the construction-time vector).
func (s *Solver) Demands() []video.Demand {
	return append([]video.Demand(nil), s.demands...)
}

// SetDemands replaces the per-link demand vector and keeps the engine
// state: the paper's §III update rule ("if the traffic demand changes,
// we just need to update ... the constraint matrix ... and solve the
// updated problem using the same method"). Every previously generated
// schedule remains feasible — only the right-hand sides move — so a
// subsequent Solve starts from the accumulated pool and typically
// needs far fewer pricing rounds. The previous optimal basis is kept
// as a warm-start hint; if the new demands make it infeasible the
// master solve falls back to a cold start automatically.
func (s *Solver) SetDemands(demands []video.Demand) error {
	if err := checkDemands(s.nw, demands); err != nil {
		return err
	}
	// Unservable links with new positive demand would make the master
	// infeasible; the TDMA initialization covered every servable link.
	if err := s.checkCoverage(demands); err != nil {
		return err
	}
	s.demands = append(s.demands[:0], demands...)
	return nil
}

// Solve runs column generation to convergence (or the configured
// iteration/gap limits) under a per-solve budget carried by ctx (a
// deadline, a timeout, or explicit cancellation) and returns the best
// plan. With a never-canceled context the walk is fully deterministic.
// When the budget expires mid-solve, the context-aware pricer is
// canceled mid-search and returns its best schedule with a still-valid
// relaxation bound, and the best-so-far feasible plan is returned with
// Truncated set and Stop wrapping ErrBudgetExceeded — never a bare
// error: by Theorem 1 any Φ′ ≤ Φ* still bounds P1, so an anytime plan
// plus its proven gap is always available.
//
// Each iteration emits a "cg.iteration" trace event (iteration index,
// Φ, Theorem-1 lower bound, pool size, probe count) through
// Options.Tracer. Tracing never changes the plan.
func (s *Solver) Solve(ctx context.Context) (*Result, error) {
	out, err := s.engine.Run(ctx)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Plan:       s.extractPlan(out.Sol),
		Iterations: out.Iterations,
		LowerBound: out.LowerBound,
		Converged:  out.Converged,
		Duals:      Duals{ByClass: out.Duals},
		Warm:       out.Warm,
		Truncated:  out.Truncated,
		Stop:       out.Stop,
	}
	res.Stats = out.Stats
	return res, nil
}

// extractPlan reads the nonzero τ^s out of an MP solution.
func (s *Solver) extractPlan(sol *lp.Solution) Plan {
	var plan Plan
	pool := s.engine.State().Pool()
	for j, tau := range sol.X {
		if tau > 1e-9 {
			plan.Schedules = append(plan.Schedules, pool.At(j))
			plan.Tau = append(plan.Tau, tau)
		}
	}
	plan.Objective = sol.Objective
	return plan
}

// p1Model is the P1 master formulation: one family of L demand-cover
// GE rows per traffic class, laid class-major (the paper's HP rows
// then LP rows in the two-class case), one unit-cost column per pooled
// schedule carrying its rate vectors, no fixed variables.
type p1Model struct{ s *Solver }

// NewMaster lays down the demand rows (RHS refreshed per solve).
func (m *p1Model) NewMaster() *lp.Problem {
	L := m.s.nw.NumLinks()
	p := lp.NewProblem(nil)
	for c := 0; c < m.s.nw.TrafficClasses(); c++ {
		for l := 0; l < L; l++ {
			p.AddRow(nil, lp.GE, m.s.demands[l].At(c))
		}
	}
	return p
}

// AppendColumn adds one schedule column (every schedule costs one unit
// of time per slot: c_j = 1).
func (m *p1Model) AppendColumn(p *lp.Problem, sc *schedule.Schedule) error {
	L := m.s.nw.NumLinks()
	rates := sc.RateVectorsByClass(m.s.nw)
	col := make([]float64, len(rates)*L)
	for c, rv := range rates {
		copy(col[c*L:(c+1)*L], rv)
	}
	_, err := p.AddColumn(1, col)
	return err
}

// RefreshRHS rewrites the demand rows: demands may have moved between
// solves (SetDemands), and columns are demand-independent.
func (m *p1Model) RefreshRHS(p *lp.Problem) {
	L := m.s.nw.NumLinks()
	for c := 0; c < m.s.nw.TrafficClasses(); c++ {
		for l := 0; l < L; l++ {
			p.B[c*L+l] = m.s.demands[l].At(c)
		}
	}
}

// Duals splits the MP dual vector into one λ vector per class,
// clamping tiny negatives from roundoff (duals of GE rows in a min LP
// are non-negative).
func (m *p1Model) Duals(sol *lp.Solution) [][]float64 {
	L := m.s.nw.NumLinks()
	nc := m.s.nw.TrafficClasses()
	lambda := make([][]float64, nc)
	for c := 0; c < nc; c++ {
		lambda[c] = make([]float64, L)
		for l := 0; l < L; l++ {
			lambda[c][l] = math.Max(0, sol.Dual[c*L+l])
		}
	}
	return lambda
}

// Upper is the MP objective: Σ τ, an upper bound on the P1 optimum.
func (m *p1Model) Upper(sol *lp.Solution) float64 { return sol.Objective }

// Bound forms the Theorem-1 lower bound from one pricing round.
func (m *p1Model) Bound(upper float64, pr *PriceResult) (float64, bool) {
	return cg.TheoremBound(upper, pr), true
}

// ColumnOffset: P1 has no fixed variables before the τ columns.
func (m *p1Model) ColumnOffset() int { return 0 }

// SpanName implements cg.MasterModel.
func (m *p1Model) SpanName() string { return "core.solve" }
