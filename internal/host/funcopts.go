package host

import (
	"time"

	"mmwave/internal/core"
	"mmwave/internal/faults"
	"mmwave/internal/netmodel"
	"mmwave/internal/obs"
	"mmwave/internal/pnc"
)

// Option mutates an Options value. The functional form mirrors
// core.New: new supervision knobs become new With* constructors
// instead of struct churn at every call site, and host.New composes
// them directly.
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

// New builds an empty host from functional options:
//
//	h := host.New(host.WithWatchdog(250*time.Millisecond),
//	              host.WithAdmission(1024, 0),
//	              host.WithCheckpointDir(dir))
func New(opts ...Option) *Host {
	return &Host{opts: NewOptions(opts...)}
}

// WithWatchdog sets the per-epoch solve deadline (see
// Options.Watchdog).
func WithWatchdog(d time.Duration) Option { return func(o *Options) { o.Watchdog = d } }

// WithMaxRestarts sets the per-cell restart budget (see
// Options.MaxRestarts; zero keeps the default of 8).
func WithMaxRestarts(n int) Option { return func(o *Options) { o.MaxRestarts = n } }

// WithBreaker sets the circuit-breaker policy: the breaker opens after
// threshold consecutive failures and holds for cooldown epochs (zeros
// keep the defaults of 3 and 4).
func WithBreaker(threshold, cooldown int) Option {
	return func(o *Options) {
		o.BreakerThreshold = threshold
		o.BreakerCooldown = cooldown
	}
}

// WithAdmission bounds admission: at most maxCells live cells and
// maxTotalLinks links across them (zero means unlimited).
func WithAdmission(maxCells, maxTotalLinks int) Option {
	return func(o *Options) {
		o.MaxCells = maxCells
		o.MaxTotalLinks = maxTotalLinks
	}
}

// WithCheckpointDir persists per-cell checkpoints under dir (see
// Options.CheckpointDir).
func WithCheckpointDir(dir string) Option { return func(o *Options) { o.CheckpointDir = dir } }

// WithWorkers bounds StepAll's parallelism (zero means one goroutine
// per cell).
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithTracer attaches a host_* span-event consumer.
func WithTracer(t *obs.Tracer) Option { return func(o *Options) { o.Tracer = t } }

// WithMetrics attaches a metrics registry for the host_* counters.
func WithMetrics(m *obs.Registry) Option { return func(o *Options) { o.Metrics = m } }

// SpecOption mutates a CellSpec under construction.
type SpecOption func(*CellSpec)

// NewSpec builds a CellSpec for a network with functional options:
//
//	spec := host.NewSpec(nw, host.SpecPolicy(policy), host.SpecFaults(&fcfg))
//
// The zero spec (no options) runs the cell with the WiFi-like default
// control channel, the default solver, and no degradation policy or
// fault injection — the same defaults a literal CellSpec{Network: nw}
// carries.
func NewSpec(nw *netmodel.Network, opts ...SpecOption) CellSpec {
	spec := CellSpec{Network: nw}
	for _, opt := range opts {
		opt(&spec)
	}
	return spec
}

// SpecControl sets the cell's control channel (nil keeps the WiFi-like
// default).
func SpecControl(ctrl *pnc.ControlChannel) SpecOption {
	return func(s *CellSpec) { s.Control = ctrl }
}

// SpecSolve sets the cell's per-epoch solver options.
func SpecSolve(opts core.Options) SpecOption {
	return func(s *CellSpec) { s.Solve = opts }
}

// SpecPolicy sets the coordinator's degradation policy.
func SpecPolicy(p pnc.DegradePolicy) SpecOption {
	return func(s *CellSpec) { s.Policy = p }
}

// SpecFaults attaches a fault injector configuration.
func SpecFaults(cfg *faults.Config) SpecOption {
	return func(s *CellSpec) { s.Faults = cfg }
}
