package core

import (
	"mmwave/internal/netmodel"
	"mmwave/internal/obs"
	"mmwave/internal/video"
)

// Option mutates an Options value. The functional form is the
// preferred way to configure solvers — new knobs become new With*
// constructors instead of struct churn at every call site — while the
// Options struct remains available for code that wants to build
// configuration imperatively.
type Option func(*Options)

// NewOptions folds a list of functional options into an Options value
// (zero-valued fields keep their documented defaults).
func NewOptions(opts ...Option) Options {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithPricer selects the column-generation pricer.
func WithPricer(p Pricer) Option { return func(o *Options) { o.Pricer = p } }

// WithMaxIterations caps column-generation rounds.
func WithMaxIterations(n int) Option { return func(o *Options) { o.MaxIterations = n } }

// WithTolerance sets the reduced-cost convergence tolerance.
func WithTolerance(tol float64) Option { return func(o *Options) { o.Tolerance = tol } }

// WithGapTarget enables early termination at the given relative UB/LB
// gap (the paper's Theorem-1 stopping rule).
func WithGapTarget(gap float64) Option { return func(o *Options) { o.GapTarget = gap } }

// WithTracer attaches a trace-event consumer: every column-generation
// iteration, pricing round, and master solve under this solver emits
// through it. A nil tracer (the default) costs nothing.
func WithTracer(t *obs.Tracer) Option { return func(o *Options) { o.Tracer = t } }

// WithMetrics attaches a metrics registry; the solver folds its
// per-solve Stats into it under the "core" prefix.
func WithMetrics(m *obs.Registry) Option { return func(o *Options) { o.Metrics = m } }

// New is the functional-options constructor for Solver, equivalent to
// NewSolver(nw, demands, NewOptions(opts...)).
func New(nw *netmodel.Network, demands []video.Demand, opts ...Option) (*Solver, error) {
	return NewSolver(nw, demands, NewOptions(opts...))
}
