package core

import (
	"context"
	"fmt"
	"math"

	"mmwave/internal/cg"
	"mmwave/internal/lp"
	"mmwave/internal/netmodel"
	"mmwave/internal/schedule"
	"mmwave/internal/video"
)

// QualitySolver solves the quality-mode dual of problem P1: instead of
// minimizing the time to serve all demand, it takes a fixed scheduling
// time budget T (e.g. one GOP period) and maximizes the total received
// video quality. Under the paper's MGS model (eq. 1,
// PSNR = α + β·r_sum) quality is linear in delivered bits, so the
// problem is the LP
//
//	max  Σ_l Σ_c w_l·ω_c·y_l^c
//	s.t. y_l^c ≤ Σ_s r_l^s(c)·τ^s   (delivery)
//	     y_l^c ≤ d_l(c)             (demand cap)
//	     Σ_s τ^s ≤ T                (time budget)
//	     y_l^c ≥ floor_l^c          (optional per-class SLA floors)
//	     τ, y ≥ 0
//
// over the same exponential schedule space as P1, solved by the same
// column-generation engine (internal/cg): the pricing sub-problem
// maximizes Σ α·r with the delivery-row duals α, and a column improves
// iff its value exceeds the budget row's dual magnitude |μ| — the
// formulation scales the duals by |μ| so the engine's Φ ≥ −tol stop
// rule applies unchanged.
//
// The class weights ω_c and SLA floors come from Options.Classes; a
// nil table means unit weights and no floors — for a two-class network
// exactly the paper's formulation. A floor asks for
// min(MinRateBits, d_l(c)) delivered bits per link; floors the budget
// cannot accommodate make the master infeasible, which Solve surfaces
// as ErrInfeasible rather than silently relaxing the SLA.
type QualitySolver struct {
	nw      *netmodel.Network
	demands []video.Demand
	budget  float64
	weights []float64
	classes video.Classes
	opts    Options
	engine  *cg.Engine
}

// QualityResult is the outcome of a quality-mode solve.
type QualityResult struct {
	Plan      Plan           // schedules and durations, Σ τ ≤ budget
	Delivered []video.Demand // bits credited per link and class (≤ demand)
	Quality   float64        // Σ w·ω·delivered, the LP objective
	// Iterations counts column-generation rounds.
	Iterations int
	// Converged reports proven optimality (exact pricing and no
	// improving column).
	Converged bool
	// Warm reports that the solve reused a previous solve's pool and
	// basis on the same solver.
	Warm bool
	// Stats holds the solve's work counters (probes, master solves,
	// pricer nodes, LP pivots, …), promoted so res.Probes etc. keep
	// reading as before.
	Stats
}

// PSNR returns link l's reconstructed quality for a session with the
// given rate-quality model, assuming the delivered bits are spread
// over one GOP of the given duration.
func (r *QualityResult) PSNR(l int, q video.Quality, gopSeconds float64) float64 {
	if gopSeconds <= 0 {
		return 0
	}
	rate := r.Delivered[l].Total() / gopSeconds / 1e6 // Mb/s, the model's unit
	return q.PSNR(rate)
}

// NewQualitySolver validates the instance and seeds the column pool.
// weights holds one quality-per-bit weight per link (e.g. the MGS β of
// each session); nil means uniform weights. Per-class weights and SLA
// floors ride in through opts.Classes.
func NewQualitySolver(nw *netmodel.Network, demands []video.Demand, budgetSeconds float64, weights []float64, opts Options) (*QualitySolver, error) {
	if err := checkInstance(nw, demands, opts.Classes); err != nil {
		return nil, err
	}
	if budgetSeconds < 0 || math.IsNaN(budgetSeconds) || math.IsInf(budgetSeconds, 0) {
		return nil, fmt.Errorf("core: invalid time budget %g", budgetSeconds)
	}
	if weights == nil {
		weights = make([]float64, nw.NumLinks())
		for l := range weights {
			weights[l] = 1
		}
	}
	if len(weights) != nw.NumLinks() {
		return nil, fmt.Errorf("core: %d weights for %d links", len(weights), nw.NumLinks())
	}
	for l, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("core: invalid weight %g on link %d", w, l)
		}
	}
	opts = opts.withDefaultPricer()
	s := &QualitySolver{
		nw:      nw,
		demands: append([]video.Demand(nil), demands...),
		budget:  budgetSeconds,
		weights: append([]float64(nil), weights...),
		classes: opts.Classes,
		opts:    opts,
	}
	state := cg.NewState()
	state.Seed(schedule.TDMA(nw))
	s.engine = cg.NewEngine(nw, &p2Model{s: s}, state, opts.engineOptions("core"))
	return s, nil
}

// classWeight returns class c's objective weight multiplier.
func (s *QualitySolver) classWeight(c int) float64 {
	if c < len(s.classes) {
		return s.classes[c].EffectiveWeight()
	}
	return 1
}

// floor returns the SLA delivered-bits floor for (class c, link l):
// the class's MinRateBits capped by the link's class demand, 0 when
// the class has no floor.
func (s *QualitySolver) floor(c, l int) float64 {
	if c >= len(s.classes) || s.classes[c].MinRateBits <= 0 {
		return 0
	}
	return math.Min(s.classes[c].MinRateBits, s.demands[l].At(c))
}

// hasFloors reports whether any class carries an SLA floor.
func (s *QualitySolver) hasFloors() bool {
	for _, c := range s.classes {
		if c.MinRateBits > 0 {
			return true
		}
	}
	return false
}

// Solve runs column generation to convergence or the iteration cap.
// The ctx cancels pricing between (and inside) iterations: on expiry
// the current master solution is extracted as an anytime result with
// Converged false. Each iteration emits a "cg.iteration" trace event
// through Options.Tracer (or the tracer carried by ctx); tracing never
// changes the plan.
func (s *QualitySolver) Solve(ctx context.Context) (*QualityResult, error) {
	out, err := s.engine.Run(ctx)
	if err != nil {
		return nil, err
	}
	res := &QualityResult{
		Iterations: len(out.Iterations),
		Converged:  out.Converged,
		Warm:       out.Warm,
	}
	res.Stats = out.Stats
	s.extract(out.Sol, res)
	return res, nil
}

// extract reads the plan and delivered volumes out of a master
// solution. Structural variables: y first (nc·L), then τ.
func (s *QualitySolver) extract(sol *lp.Solution, res *QualityResult) {
	L := s.nw.NumLinks()
	nc := s.nw.TrafficClasses()
	pool := s.engine.State().Pool()
	res.Plan = Plan{}
	for j := 0; j < pool.Len(); j++ {
		if v := sol.X[nc*L+j]; v > 1e-9 {
			res.Plan.Schedules = append(res.Plan.Schedules, pool.At(j))
			res.Plan.Tau = append(res.Plan.Tau, v)
			res.Plan.Objective += v
		}
	}
	res.Delivered = make([]video.Demand, L)
	res.Quality = 0
	for l := 0; l < L; l++ {
		d := make(video.Demand, nc)
		for c := 0; c < nc; c++ {
			d[c] = sol.X[c*L+l]
			res.Quality += s.weights[l] * s.classWeight(c) * d[c]
		}
		res.Delivered[l] = d
	}
}

// p2Model is the quality-mode master formulation. Variable layout:
// [y_c (L per class, class-major)] [τ_s (n)] — y first so that
// variable indices (and therefore warm-start bases) stay valid as the
// pool appends columns between iterations. Row layout: delivery (nc·L,
// class-major), caps (nc·L), budget (1), then one SLA floor row per
// (floored class, link) when the class table carries floors.
type p2Model struct{ s *QualitySolver }

// NewMaster lays down the y variables and all rows once; τ columns are
// appended as the pool grows.
func (m *p2Model) NewMaster() *lp.Problem {
	L := m.s.nw.NumLinks()
	nc := m.s.nw.TrafficClasses()
	costs := make([]float64, nc*L)
	for c := 0; c < nc; c++ {
		for l := 0; l < L; l++ {
			costs[c*L+l] = -m.s.weights[l] * m.s.classWeight(c) // maximize → minimize negative
		}
	}
	p := lp.NewProblem(costs)
	// Delivery rows: Σ_s r·τ − y ≥ 0.
	for c := 0; c < nc; c++ {
		for l := 0; l < L; l++ {
			row := make([]float64, nc*L)
			row[c*L+l] = -1
			p.AddRow(row, lp.GE, 0)
		}
	}
	// Caps: y ≤ d.
	for c := 0; c < nc; c++ {
		for l := 0; l < L; l++ {
			row := make([]float64, nc*L)
			row[c*L+l] = 1
			p.AddRow(row, lp.LE, m.s.demands[l].At(c))
		}
	}
	// Budget: Σ τ ≤ T.
	p.AddRow(make([]float64, nc*L), lp.LE, m.s.budget)
	// SLA floors: y ≥ floor. Laid after the budget row so the classic
	// no-floor layout (and its warm bases) is bit-identical to the
	// two-class formulation.
	if m.s.hasFloors() {
		for c := 0; c < nc; c++ {
			if c >= len(m.s.classes) || m.s.classes[c].MinRateBits <= 0 {
				continue
			}
			for l := 0; l < L; l++ {
				row := make([]float64, nc*L)
				row[c*L+l] = 1
				p.AddRow(row, lp.GE, m.s.floor(c, l))
			}
		}
	}
	return p
}

// AppendColumn adds a τ column: rates into its delivery rows, 1 into
// the budget row, zero cost.
func (m *p2Model) AppendColumn(p *lp.Problem, sc *schedule.Schedule) error {
	L := m.s.nw.NumLinks()
	nc := m.s.nw.TrafficClasses()
	col := make([]float64, p.NumRows())
	rates := sc.RateVectorsByClass(m.s.nw)
	for c, rv := range rates {
		copy(col[c*L:(c+1)*L], rv)
	}
	col[2*nc*L] = 1
	_, err := p.AddColumn(0, col)
	return err
}

// RefreshRHS rewrites the cap, budget, and floor rows (delivery rows
// are structurally zero).
func (m *p2Model) RefreshRHS(p *lp.Problem) {
	L := m.s.nw.NumLinks()
	nc := m.s.nw.TrafficClasses()
	for c := 0; c < nc; c++ {
		for l := 0; l < L; l++ {
			p.B[(nc+c)*L+l] = m.s.demands[l].At(c)
		}
	}
	p.B[2*nc*L] = m.s.budget
	if m.s.hasFloors() {
		row := 2*nc*L + 1
		for c := 0; c < nc; c++ {
			if c >= len(m.s.classes) || m.s.classes[c].MinRateBits <= 0 {
				continue
			}
			for l := 0; l < L; l++ {
				p.B[row] = m.s.floor(c, l)
				row++
			}
		}
	}
}

// Duals extracts the delivery-row duals α (GE → α ≥ 0) and the budget
// row's μ (LE → μ ≤ 0), scaled so the pricer's improvement threshold
// of 1 corresponds to |μ|: a column improves iff Σ α·r > |μ|.
func (m *p2Model) Duals(sol *lp.Solution) [][]float64 {
	L := m.s.nw.NumLinks()
	nc := m.s.nw.TrafficClasses()
	mu := math.Min(0, sol.Dual[2*nc*L])
	denom := math.Max(-mu, 1e-18)
	lambda := make([][]float64, nc)
	for c := 0; c < nc; c++ {
		lambda[c] = make([]float64, L)
		for l := 0; l < L; l++ {
			lambda[c][l] = math.Max(0, sol.Dual[c*L+l]) / denom
		}
	}
	return lambda
}

// Upper is the delivered quality (the maximization is solved as a min
// of the negative).
func (m *p2Model) Upper(sol *lp.Solution) float64 { return -sol.Objective }

// Bound: quality mode has no Theorem-1 analogue (the bound is a ratio
// of time bounds, not quality bounds).
func (m *p2Model) Bound(upper float64, pr *PriceResult) (float64, bool) { return 0, false }

// ColumnOffset: the nc·L y variables precede the τ columns.
func (m *p2Model) ColumnOffset() int { return m.s.nw.TrafficClasses() * m.s.nw.NumLinks() }

// SpanName implements cg.MasterModel.
func (m *p2Model) SpanName() string { return "core.quality_solve" }
