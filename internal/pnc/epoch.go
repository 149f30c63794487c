package pnc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"mmwave/internal/core"
	"mmwave/internal/faults"
	"mmwave/internal/obs"
	"mmwave/internal/video"
)

// Sentinel errors callers branch on with errors.Is — the control-plane
// half of the repo's error taxonomy (the solver half lives in
// internal/core).
var (
	// ErrControlLoss reports a control frame that stayed undelivered
	// after the policy's bounded retries.
	ErrControlLoss = errors.New("pnc: control frame lost")

	// ErrStaleState reports coordinator state older than the policy's
	// staleness limit — the last-known-good fallback has expired and
	// the affected links were dropped from the epoch.
	ErrStaleState = errors.New("pnc: state stale beyond policy limit")
)

// DegradePolicy tunes how the coordinator degrades under faults. The
// zero value disables every degradation path: no retries, no
// last-known-good fallback, no load shedding, no solve budget —
// exactly the original fail-hard epoch behavior.
type DegradePolicy struct {
	// MaxRetries bounds control-frame retransmissions after a lost or
	// corrupted attempt.
	MaxRetries int
	// RetryBackoff is the base of the exponential backoff between
	// retransmissions, in seconds; attempt k waits 2^(k-1)·RetryBackoff.
	// Backoff is idle time, not airtime — it is reported separately.
	RetryBackoff float64
	// StalenessLimit is how many epochs a link's last-known-good demand
	// may stand in for a missing report. Beyond it the link is dropped
	// from the epoch (ErrStaleState). Zero disables the fallback.
	StalenessLimit int
	// StalenessDecay multiplies the substituted demand once per stale
	// epoch (confidence decay); zero means 1 (no decay).
	StalenessDecay float64
	// StalenessDecayByClass, when non-nil, overrides StalenessDecay per
	// traffic class: entry c multiplies class c's substituted demand
	// once per stale epoch. Classes beyond the vector fall back to
	// StalenessDecay. A zero entry means 1 (no decay for that class) —
	// the natural setting for a floor-carrying URLLC class whose demand
	// must not silently evaporate.
	StalenessDecayByClass []float64
	// EpochBudget caps the air time of the epoch's plan, in seconds.
	// When the optimal plan overruns it, demand is shed — the lowest
	// priority class strictly first (LP before HP in the classic
	// two-class case) — until the plan fits. Zero means unlimited.
	EpochBudget float64
	// SolveBudget caps the wall-clock time of each P1 solve; the solver
	// is canceled mid-search and returns its anytime plan. Zero means
	// solve to convergence.
	SolveBudget time.Duration
}

// DefaultDegradePolicy returns the production posture: three retries
// with 2 ms backoff, a four-epoch staleness window decaying 20% per
// epoch, no epoch budget, and no solve budget.
func DefaultDegradePolicy() DegradePolicy {
	return DegradePolicy{
		MaxRetries:     3,
		RetryBackoff:   2e-3,
		StalenessLimit: 4,
		StalenessDecay: 0.8,
	}
}

// EpochResult is the outcome of one scheduling epoch.
type EpochResult struct {
	Plan            core.Plan
	Solver          *core.Result
	Grants          [][]byte // encoded downlink grants actually delivered
	ControlSeconds  float64  // control airtime consumed this epoch
	ControlMessages int64

	// Degradation telemetry — all zero on a fault-free epoch.
	Demands  []video.Demand // demand vector actually scheduled
	Degraded bool           // demand was load-shed to fit the epoch budget
	// ShedByClass holds the bits shed per traffic class (index =
	// class). Class c sheds only after every class below it in priority
	// (higher index) was shed entirely.
	ShedByClass    []float64
	ShedLPBits     float64 // legacy view: bits shed from classes 1..N−1
	ShedHPBits     float64 // legacy view: bits shed from class 0 (only after all others)
	StaleLinks     []int   // links scheduled from decayed last-known-good demand
	ExpiredLinks   []int   // links dropped because their fallback aged out
	DeferredLinks  []int   // links deferred as unservable (blocked or dropped out)
	DroppedGrants  int     // grants lost on the downlink despite retries
	Retries        int64   // control retransmissions in this epoch's window
	LostFrames     int64   // uplink frames lost for good in this window
	BackoffSeconds float64 // idle backoff accumulated by retries
	TruncatedSolve bool    // the P1 solve hit its budget; Plan is anytime
	WarmSolve      bool    // the P1 solve reused the previous epoch's pool and basis
}

// StalenessError returns an errors.Is-able ErrStaleState describing
// the links whose last-known-good fallback expired this epoch, or nil.
func (r *EpochResult) StalenessError() error {
	if len(r.ExpiredLinks) == 0 {
		return nil
	}
	return fmt.Errorf("%w: links %v exceeded the staleness limit and were dropped", ErrStaleState, r.ExpiredLinks)
}

// IngestLossy routes one node→PNC frame through the fault injector
// with the policy's bounded retry: each attempt is charged on the
// control channel, lost and corrupted attempts are retried with
// exponential backoff, and delayed frames are applied at the next
// epoch boundary. Without an injector it is plain Ingest. A frame
// still undelivered after the retry budget returns an errors.Is-able
// ErrControlLoss; the coordinator then falls back to last-known-good
// state at the next RunEpoch.
func (c *Coordinator) IngestLossy(frame []byte) error {
	if c.Faults == nil {
		return c.Ingest(frame)
	}
	if len(frame) < 1 {
		return errors.New("pnc: empty frame")
	}
	attempts := 1 + c.Policy.MaxRetries
	for a := 0; a < attempts; a++ {
		if a > 0 {
			c.retries++
			c.backoffSec += c.Policy.RetryBackoff * float64(int64(1)<<(a-1))
		}
		// Silent CSI staleness: the update is swallowed but its sender
		// believes it delivered, so there is no retry — the coordinator
		// keeps scheduling on epoch-old gains.
		if MsgType(frame[0]) == MsgChannelUpdate && c.Faults.DropCSI() {
			return c.Control.Send(frame)
		}
		switch c.Faults.FrameFate() {
		case faults.FrameDelivered:
			return c.Ingest(frame)
		case faults.FrameDelayed:
			if err := c.Control.Send(frame); err != nil {
				return err
			}
			c.delayed = append(c.delayed, append([]byte(nil), frame...))
			return nil
		case faults.FrameLost:
			// The transmission still burned airtime; retry.
			if err := c.Control.Send(frame); err != nil {
				return err
			}
		case faults.FrameCorrupted:
			// A corrupted frame that still decodes is delivered-wrong
			// (the wire format carries no checksum); one the decoder
			// rejects is retried like a loss.
			if err := c.Ingest(c.Faults.Corrupt(frame)); err == nil {
				return nil
			}
		}
	}
	c.lostFrames++
	return fmt.Errorf("%w: gave up after %d attempts", ErrControlLoss, attempts)
}

// RunEpoch solves P1 over the demands reported since the last epoch
// and encodes the grants. Links that never reported are treated per
// the degradation policy (zero demand under the zero-value policy).
// The per-epoch control airtime covers both the ingested reports and
// the emitted grants. One epoch runs under the coordinator's
// degradation policy:
//
//   - links that reported refresh their last-known-good demand; links
//     that did not are scheduled from that fallback, decayed per stale
//     epoch, until the staleness limit drops them (ErrStaleState via
//     EpochResult.StalenessError);
//   - links that cannot reach any rate level (blocked or dropped out)
//     have their demand deferred, the paper's §III update rule;
//   - each P1 solve runs under the policy's solve budget via the
//     solver's context and may return an anytime plan;
//   - when the plan overruns the epoch budget, demand is shed
//     strictly lowest-priority-class-first (LP before HP in the
//     two-class case) until it fits;
//   - grants ride the lossy downlink with bounded retry; undelivered
//     ones are dropped from Grants and counted;
//   - frames the injector delayed are delivered after the boundary,
//     feeding the next epoch.
//
// With a nil injector and the zero-value policy the epoch is the
// paper's plain solve-and-grant round.
func (c *Coordinator) RunEpoch(ctx context.Context) (*EpochResult, error) {
	out := &EpochResult{}
	span := c.Tracer.StartSpan("pnc.epoch")
	defer span.End()

	// Demand assembly: fresh reports refresh last-known-good; missing
	// reports fall back to it with staleness decay until the limit.
	demands := make([]video.Demand, len(c.demands))
	for l := range demands {
		switch {
		case c.seen[l]:
			demands[l] = c.demands[l]
			c.lastGood[l] = c.demands[l]
			c.lastAge[l] = 0
		case c.Policy.StalenessLimit > 0 && c.lastAge[l] < c.Policy.StalenessLimit && c.lastGood[l].Total() > 0:
			c.lastAge[l]++
			demands[l] = c.Policy.decayDemand(c.lastGood[l], c.lastAge[l])
			out.StaleLinks = append(out.StaleLinks, l)
		default:
			if c.Policy.StalenessLimit > 0 && c.lastGood[l].Total() > 0 {
				out.ExpiredLinks = append(out.ExpiredLinks, l)
			}
			c.lastAge[l]++
		}
	}

	// Defer demand of links that cannot reach any rate level alone at
	// PMax (blockage, dropout): P1 would be infeasible for them.
	for l := range demands {
		if demands[l].Total() <= 0 {
			continue
		}
		_, sinr := c.Network.BestSingleLinkChannel(l)
		if c.Network.Rates.BestLevel(sinr) < 0 {
			demands[l] = video.Demand{}
			out.DeferredLinks = append(out.DeferredLinks, l)
		}
	}

	if len(out.StaleLinks) > 0 {
		span.Emit(obs.Event{Name: "epoch.stale_fallback", N: float64(len(out.StaleLinks))})
	}
	if len(out.ExpiredLinks) > 0 {
		span.Emit(obs.Event{Name: "epoch.staleness_expired", N: float64(len(out.ExpiredLinks))})
	}
	if len(out.DeferredLinks) > 0 {
		span.Emit(obs.Event{Name: "epoch.demand_deferred", N: float64(len(out.DeferredLinks))})
	}

	res, err := c.solveEpoch(ctx, demands)
	if err != nil {
		return nil, err
	}

	// Load shedding against the epoch budget: the lowest-priority class
	// sheds strictly first.
	if b := c.Policy.EpochBudget; b > 0 && res.Plan.Objective > b {
		out.Degraded = true
		demands, res, out.ShedByClass, err = c.shedToBudget(ctx, demands, res)
		if err != nil {
			return nil, err
		}
		var shedTotal float64
		for cl, bits := range out.ShedByClass {
			shedTotal += bits
			if cl == 0 {
				out.ShedHPBits = bits
			} else {
				out.ShedLPBits += bits
			}
		}
		span.Emit(obs.Event{Name: "epoch.shed", N: shedTotal, Msg: "lowest-class-first"})
	}
	out.TruncatedSolve = res.Truncated
	if res.Truncated {
		span.Emit(obs.Event{Name: "epoch.solve_truncated"})
	}
	out.WarmSolve = res.Warm
	if res.Warm {
		span.Emit(obs.Event{Name: "epoch.warm_solve"})
	}

	// Downlink: grants ride the same lossy channel with bounded retry.
	grants := make([][]byte, 0, len(res.Plan.Schedules))
	for i, s := range res.Plan.Schedules {
		g := ScheduleGrant{Seconds: res.Plan.Tau[i], Entries: s.Assignments}
		frame, err := g.MarshalBinary()
		if err != nil {
			return nil, err
		}
		delivered, err := c.sendDownlink(frame)
		if err != nil {
			return nil, err
		}
		if delivered {
			grants = append(grants, frame)
		} else {
			out.DroppedGrants++
		}
	}

	// Epoch state resets: next epoch needs fresh reports, and the
	// accounting windows restart.
	for l := range c.seen {
		c.seen[l] = false
	}
	// Frames the injector delayed land after this boundary: they feed
	// the NEXT epoch. Their airtime was charged at transmission time.
	// Decode failures are unrecoverable here (the sender long moved
	// on), so they count against the next window's lost frames.
	if len(c.delayed) > 0 {
		delayed := c.delayed
		c.delayed = nil
		for _, f := range delayed {
			if err := c.apply(f); err != nil {
				c.lostFrames++
			}
		}
	}
	out.Plan = res.Plan
	out.Solver = res
	out.Grants = grants
	out.Demands = demands
	out.ControlSeconds = c.Control.Airtime() - c.epochAirStart
	out.ControlMessages = c.Control.Messages() - c.epochMsgStart
	out.Retries = c.retries
	out.LostFrames = c.lostFrames
	out.BackoffSeconds = c.backoffSec
	c.epochAirStart = c.Control.Airtime()
	c.epochMsgStart = c.Control.Messages()
	c.retries, c.lostFrames, c.backoffSec = 0, 0, 0
	c.epoch++
	c.publishEpoch(out)
	return out, nil
}

// publishEpoch folds one epoch's telemetry into the metrics registry
// (free on a nil registry).
func (c *Coordinator) publishEpoch(out *EpochResult) {
	m := c.Metrics
	if m == nil {
		return
	}
	m.Counter("pnc_epochs_total").Inc()
	m.Counter("pnc_control_messages_total").Add(out.ControlMessages)
	m.Counter("pnc_retries_total").Add(out.Retries)
	m.Counter("pnc_lost_frames_total").Add(out.LostFrames)
	m.Counter("pnc_dropped_grants_total").Add(int64(out.DroppedGrants))
	m.Counter("pnc_stale_links_total").Add(int64(len(out.StaleLinks)))
	m.Counter("pnc_expired_links_total").Add(int64(len(out.ExpiredLinks)))
	m.Counter("pnc_deferred_links_total").Add(int64(len(out.DeferredLinks)))
	if out.Degraded {
		m.Counter("pnc_shed_epochs_total").Inc()
	}
	if out.TruncatedSolve {
		m.Counter("pnc_truncated_solves_total").Inc()
	}
	m.Gauge("pnc_shed_lp_bits").Add(out.ShedLPBits)
	m.Gauge("pnc_shed_hp_bits").Add(out.ShedHPBits)
	for cl, bits := range out.ShedByClass {
		if bits > 0 {
			m.Gauge(fmt.Sprintf("pnc_shed_bits_class_%d", cl)).Add(bits)
		}
	}
	// Per-class service accounting. out.Demands is the post-shed vector
	// the plan actually serves in full, so served = Σ_l demand[l][c] and
	// offered = served + shed. The fraction gauge is cumulative across
	// the coordinator's life, one gauge per class.
	for cl := 0; cl < c.Network.TrafficClasses(); cl++ {
		var served float64
		for _, d := range out.Demands {
			served += d.At(cl)
		}
		offered := served
		if cl < len(out.ShedByClass) {
			offered += out.ShedByClass[cl]
		}
		if offered <= 0 {
			continue
		}
		sb := m.Gauge(fmt.Sprintf("pnc_served_bits_class_%d", cl))
		ob := m.Gauge(fmt.Sprintf("pnc_offered_bits_class_%d", cl))
		sb.Add(served)
		ob.Add(offered)
		m.Gauge(fmt.Sprintf("pnc_served_fraction_class_%d", cl)).Set(sb.Value() / ob.Value())
	}
	m.Gauge("pnc_backoff_seconds").Add(out.BackoffSeconds)
	m.Histogram("pnc_control_airtime_seconds").Observe(out.ControlSeconds)
}

// solveEpoch runs one P1 solve under the policy's solve budget,
// threading the coordinator's tracer and metrics into the solver
// options when they carry none of their own. It reuses the persistent
// cross-epoch solver whenever the CSI regime is unchanged (same gains
// fingerprint): the solve then warm-starts from the previous epoch's
// schedule pool and simplex basis via SetDemands, typically needing
// far fewer pricing rounds and LP pivots. Load-shedding sub-solves
// within one epoch share the same warm state. On any warm-path error
// (e.g. new demand on a link no pooled column serves) the coordinator
// falls back to a cold solver rather than failing the epoch, and counts
// the fallback in pnc_warm_fallbacks_total under its cause:
// cause="set_demands" when the warm solver refuses the demands,
// cause="solve" when the warm solve itself fails.
func (c *Coordinator) solveEpoch(ctx context.Context, demands []video.Demand) (*core.Result, error) {
	sctx := ctx
	if c.Policy.SolveBudget > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(ctx, c.Policy.SolveBudget)
		defer cancel()
	}

	if c.solver != nil && c.solverFP == c.Network.Fingerprint() {
		cause := "set_demands"
		if err := c.solver.SetDemands(demands); err == nil {
			res, err := c.solver.Solve(sctx)
			if err == nil {
				if c.Metrics != nil {
					c.Metrics.Counter("pnc_warm_solves_total").Inc()
				}
				return res, nil
			}
			cause = "solve"
		}
		// Warm path unusable (uncovered demand, master failure): count
		// it, drop the state and solve cold below.
		if c.Metrics != nil {
			c.Metrics.Counter(`pnc_warm_fallbacks_total{cause="` + cause + `"}`).Inc()
		}
		c.InvalidateSolverState()
	}

	solver, err := core.NewSolver(c.Network, demands, c.solverOptions())
	if err != nil {
		return nil, fmt.Errorf("pnc: epoch solve: %w", err)
	}
	res, err := solver.Solve(sctx)
	if err != nil {
		return nil, fmt.Errorf("pnc: epoch solve: %w", err)
	}
	c.solver = solver
	c.solverFP = c.Network.Fingerprint()
	if c.Metrics != nil {
		c.Metrics.Counter("pnc_cold_solves_total").Inc()
	}
	return res, nil
}

// solverOptions resolves the effective per-epoch solver options: the
// coordinator's tracer/metrics are threaded in when the options carry
// none of their own. Used by both the cold-start path and checkpoint
// restore (ImportState), so a restored solver runs under exactly the
// options an uninterrupted one would.
func (c *Coordinator) solverOptions() core.Options {
	opts := c.Solve
	if opts.Tracer == nil {
		opts.Tracer = c.Tracer
	}
	if opts.Metrics == nil {
		opts.Metrics = c.Metrics
	}
	return opts
}

// decayDemand applies the policy's staleness decay to a substituted
// demand that has been stale for age epochs, honoring per-class decay
// overrides when configured.
func (p DegradePolicy) decayDemand(d video.Demand, age int) video.Demand {
	base := p.StalenessDecay
	if base == 0 {
		base = 1
	}
	if len(p.StalenessDecayByClass) == 0 {
		return d.Scale(math.Pow(base, float64(age)))
	}
	out := d.Clone()
	for cl := range out {
		decay := base
		if cl < len(p.StalenessDecayByClass) {
			decay = p.StalenessDecayByClass[cl]
			if decay == 0 {
				decay = 1
			}
		}
		f := math.Pow(decay, float64(age))
		if math.IsNaN(f) || math.IsInf(f, 0) {
			f = 0
		}
		out[cl] *= f
	}
	return out
}

// classCount returns the widest class vector across the demands, at
// least 1.
func classCount(demands []video.Demand) int {
	nc := 1
	for _, d := range demands {
		if n := d.NumClasses(); n > nc {
			nc = n
		}
	}
	return nc
}

// restrictClasses keeps only the first n classes of every demand.
func restrictClasses(demands []video.Demand, n int) []video.Demand {
	out := make([]video.Demand, len(demands))
	for l, d := range demands {
		keep := n
		if d.NumClasses() < keep {
			keep = d.NumClasses()
		}
		out[l] = d.Clone()[:keep]
	}
	return out
}

// shedToBudget sheds demand until the plan fits the epoch budget,
// strictly lowest-priority-class-first (LP before HP in the classic
// two-class case). Walking up from the least important class: if the
// plan for the classes above it fits, the largest fraction of the
// class that still fits is kept (one interpolation solve — the optimal
// time is monotone in demand) and everything below it is shed; if even
// class 0 alone overruns, it is scaled to the budget ratio. Returns
// the shed demand vector, its plan, and the bits shed per class.
func (c *Coordinator) shedToBudget(ctx context.Context, demands []video.Demand, full *core.Result) ([]video.Demand, *core.Result, []float64, error) {
	b := c.Policy.EpochBudget
	nc := classCount(demands)
	shed := make([]float64, nc)
	classTotal := make([]float64, nc)
	for _, d := range demands {
		for cl := 0; cl < nc; cl++ {
			classTotal[cl] += d.At(cl)
		}
	}

	// cur is the best-known plan for classes 0..cl (initially all of
	// them); each iteration solves the next-shorter prefix.
	cur := full
	for cl := nc - 1; cl >= 1; cl-- {
		prefix := restrictClasses(demands, cl)
		prefixRes, err := c.solveEpoch(ctx, prefix)
		if err != nil {
			return nil, nil, nil, err
		}
		if prefixRes.Plan.Objective <= b {
			// The prefix fits: restore the largest fraction of class cl
			// the budget allows (classes below cl are already fully shed).
			if classTotal[cl] > 0 && cur.Plan.Objective > prefixRes.Plan.Objective {
				f := (b - prefixRes.Plan.Objective) / (cur.Plan.Objective - prefixRes.Plan.Objective)
				if f > 1e-3 {
					mixed := restrictClasses(demands, cl+1)
					for l := range mixed {
						if cl < len(mixed[l]) {
							mixed[l][cl] *= f
						}
					}
					if mres, err := c.solveEpoch(ctx, mixed); err == nil && mres.Plan.Objective <= b*(1+1e-6) {
						shed[cl] = classTotal[cl] * (1 - f)
						return mixed, mres, shed, nil
					}
				}
			}
			shed[cl] = classTotal[cl]
			return prefix, prefixRes, shed, nil
		}
		// Even the prefix overruns: class cl sheds entirely and the walk
		// continues toward class 0.
		shed[cl] = classTotal[cl]
		cur = prefixRes
	}

	// Class 0 alone overruns: scale it to the budget ratio (optimal
	// time scales at most linearly in demand).
	scale := b / cur.Plan.Objective
	scaled := restrictClasses(demands, 1)
	for l := range scaled {
		if len(scaled[l]) > 0 {
			scaled[l][0] *= scale
		}
	}
	shed[0] = classTotal[0] * (1 - scale)
	sres, err := c.solveEpoch(ctx, scaled)
	if err != nil {
		return nil, nil, nil, err
	}
	return scaled, sres, shed, nil
}

// sendDownlink transmits one grant frame, retrying per policy when the
// injector interferes. It reports whether the frame was delivered in
// time to be used this epoch (a grant delayed past the boundary is as
// good as lost and is retried).
func (c *Coordinator) sendDownlink(frame []byte) (bool, error) {
	if c.Faults == nil {
		return true, c.Control.Send(frame)
	}
	attempts := 1 + c.Policy.MaxRetries
	for a := 0; a < attempts; a++ {
		if a > 0 {
			c.retries++
			c.backoffSec += c.Policy.RetryBackoff * float64(int64(1)<<(a-1))
		}
		if err := c.Control.Send(frame); err != nil {
			return false, err
		}
		if c.Faults.FrameFate() == faults.FrameDelivered {
			return true, nil
		}
	}
	c.lostFrames++
	return false, nil
}
