// Package sim executes scheduling policies slot by slot on a network
// instance and measures the metrics the paper reports: total
// scheduling time, per-link delay (time until a link's demand is fully
// served), and the inputs to the Jain fairness index.
//
// A Policy decides, each slot, which links transmit with which
// channel/level/class/power; the executor transfers bits against the
// remaining per-link per-class demands and records completion times. The
// proposed column-generation plan, the benchmark heuristics, and plain
// TDMA all run through the same engine, so their metrics are directly
// comparable.
package sim

import (
	"errors"
	"fmt"
	"sort"

	"mmwave/internal/faults"
	"mmwave/internal/netmodel"
	"mmwave/internal/schedule"
	"mmwave/internal/video"
)

// Remaining tracks the unserved portion of every link's demand during
// a run. Policies receive it read-only each slot.
type Remaining struct {
	// ByClass holds the unserved bits per traffic class and link
	// (class-major: ByClass[c][l]; class 0 = highest priority).
	ByClass [][]float64

	// eps is the per-link completion tolerance (a tiny fraction of the
	// original demand), absorbing the roundoff of repeated bit
	// subtraction over thousands of slots. When Options.Original is
	// set, the tolerance derives from the ORIGINAL demand, so a link
	// whose demand was load-shed upstream keeps a meaningful epsilon
	// instead of one scaled to the shrunken (possibly zero) input.
	eps []float64

	// shed holds the bits dropped upstream (load shedding) per class
	// and link before the run: original demand minus the demand
	// actually scheduled. A link can only ever be "served degraded"
	// when these are non-zero.
	shed [][]float64
}

// NewRemaining builds a Remaining over nc classes and L links with
// zero tolerance and no upstream shedding — the test/policy form; Run
// builds its own instance with demand-anchored tolerances.
func NewRemaining(nc, L int) *Remaining {
	r := &Remaining{ByClass: make([][]float64, nc)}
	for c := range r.ByClass {
		r.ByClass[c] = make([]float64, L)
	}
	return r
}

// Classes returns the number of traffic classes tracked.
func (r *Remaining) Classes() int { return len(r.ByClass) }

// NumLinks returns the tracked link count.
func (r *Remaining) NumLinks() int {
	if len(r.ByClass) == 0 {
		return 0
	}
	return len(r.ByClass[0])
}

// At returns the unserved bits of (class c, link l), 0 for classes
// beyond the tracked set.
func (r *Remaining) At(c, l int) float64 {
	if c < 0 || c >= len(r.ByClass) {
		return 0
	}
	return r.ByClass[c][l]
}

// LinkTotal returns link l's unserved bits summed over classes
// (negatives clamp to zero, as in Total).
func (r *Remaining) LinkTotal(l int) float64 {
	var v float64
	for c := range r.ByClass {
		if b := r.ByClass[c][l]; b > 0 {
			v += b
		}
	}
	return v
}

// Done reports whether link l has no bits left in any class (up to
// the accumulation tolerance). Done answers "is the SCHEDULED demand
// served" — a link whose demand was shed upstream can be Done yet
// still degraded; see ServedDegraded.
func (r *Remaining) Done(l int) bool {
	var e float64
	if l < len(r.eps) {
		e = r.eps[l]
	}
	for c := range r.ByClass {
		if r.ByClass[c][l] > e {
			return false
		}
	}
	return true
}

// ServedDegraded reports whether link l finished its scheduled demand
// but only because bits were shed upstream: the user saw degraded
// video even though the scheduler calls the link done.
func (r *Remaining) ServedDegraded(l int) bool {
	if len(r.shed) == 0 {
		return false
	}
	var shed float64
	for c := range r.shed {
		if l < len(r.shed[c]) {
			shed += r.shed[c][l]
		}
	}
	return r.Done(l) && shed > 0
}

// AllDone reports whether every link is fully served.
func (r *Remaining) AllDone() bool {
	for l := 0; l < r.NumLinks(); l++ {
		if !r.Done(l) {
			return false
		}
	}
	return true
}

// Total returns the unserved bits across all links and classes.
func (r *Remaining) Total() float64 {
	var v float64
	for c := range r.ByClass {
		for _, b := range r.ByClass[c] {
			if b > 0 {
				v += b
			}
		}
	}
	return v
}

// Policy decides the transmissions of each slot.
type Policy interface {
	// Name labels the policy in experiment output.
	Name() string
	// Decide returns the schedule for the next slot. Returning an
	// empty (or nil) schedule when demand remains means the policy is
	// stuck; the executor stops and reports ErrStalled.
	Decide(nw *netmodel.Network, rem *Remaining, slot int) (*schedule.Schedule, error)
}

// Execution is the measured outcome of one run.
type Execution struct {
	Policy     string
	TotalTime  float64   // seconds until the last link finished
	Slots      int       // slots consumed
	Completion []float64 // per-link completion time in seconds (delay)

	// ServedByClass holds the bits actually delivered, class-major
	// (ServedByClass[c][l]).
	ServedByClass [][]float64

	// Degradation accounting. A link is Degraded when its user saw
	// less than the original demand: bits were load-shed upstream
	// (Options.Original), or the run ended (deadline) with demand
	// unserved. A link shed to zero demand is Degraded, never
	// silently "complete".
	Degraded    []bool
	ShedByClass [][]float64 // bits shed upstream per class and link (original − scheduled)
	FailedSlots int         // assignment-slots suppressed by injected link failures
}

// Served returns link l's delivered bits summed over classes.
func (e *Execution) Served(l int) float64 {
	var v float64
	for c := range e.ServedByClass {
		v += e.ServedByClass[c][l]
	}
	return v
}

// ServedAt returns the delivered bits of (class c, link l), 0 for
// classes beyond the tracked set.
func (e *Execution) ServedAt(c, l int) float64 {
	if c < 0 || c >= len(e.ServedByClass) {
		return 0
	}
	return e.ServedByClass[c][l]
}

// ShedAt returns the upstream-shed bits of (class c, link l).
func (e *Execution) ShedAt(c, l int) float64 {
	if c < 0 || c >= len(e.ShedByClass) {
		return 0
	}
	return e.ShedByClass[c][l]
}

// DegradedCount returns how many links finished degraded.
func (e *Execution) DegradedCount() int {
	n := 0
	for _, d := range e.Degraded {
		if d {
			n++
		}
	}
	return n
}

// AverageDelay returns the mean per-link completion time.
func (e *Execution) AverageDelay() float64 {
	if len(e.Completion) == 0 {
		return 0
	}
	var sum float64
	for _, c := range e.Completion {
		sum += c
	}
	return sum / float64(len(e.Completion))
}

// Options tunes a run.
type Options struct {
	// SlotDuration in seconds; zero means 1 ms.
	SlotDuration float64
	// MaxSlots aborts runaway runs; zero means 10 million.
	MaxSlots int
	// Validate re-checks every slot's schedule against the network
	// (slower; on by default in tests).
	Validate bool
	// Deadline, when positive, stops the run gracefully after this
	// many seconds of air time even if demand remains: the execution
	// reports the bits actually served (real-time delivery with a hard
	// period boundary). Unserved links' completion times are clamped
	// to the deadline.
	Deadline float64

	// Original, when non-nil, is the pre-shedding demand vector. It
	// anchors the completion epsilon and classifies shed links as
	// served-degraded instead of complete. Must match the link count.
	Original []video.Demand

	// Failures injects link outages: during [Slot, Slot+Duration) the
	// failed link's transmissions deliver zero bits (a blockage the
	// plan did not anticipate). Windows may overlap.
	Failures []faults.LinkFailure
}

// ErrStalled reports a policy that returned an empty schedule while
// demand remained.
var ErrStalled = errors.New("sim: policy stalled with unserved demand")

// ErrSlotLimit reports a run that exceeded MaxSlots.
var ErrSlotLimit = errors.New("sim: slot limit exceeded")

// Run executes the policy until all demands are served.
func Run(nw *netmodel.Network, demands []video.Demand, policy Policy, opt Options) (*Execution, error) {
	if len(demands) != nw.NumLinks() {
		return nil, fmt.Errorf("sim: %d demands for %d links", len(demands), nw.NumLinks())
	}
	slotDur := opt.SlotDuration
	if slotDur <= 0 {
		slotDur = 1e-3
	}
	maxSlots := opt.MaxSlots
	if maxSlots <= 0 {
		maxSlots = 10_000_000
	}

	L := nw.NumLinks()
	nc := nw.TrafficClasses()
	for _, d := range demands {
		if n := d.NumClasses(); n > nc {
			nc = n
		}
	}
	for _, o := range opt.Original {
		if n := o.NumClasses(); n > nc {
			nc = n
		}
	}
	rem := NewRemaining(nc, L)
	rem.eps = make([]float64, L)
	rem.shed = make([][]float64, nc)
	for c := range rem.shed {
		rem.shed[c] = make([]float64, L)
	}
	for l, d := range demands {
		for c := 0; c < nc; c++ {
			rem.ByClass[c][l] = d.At(c)
		}
		rem.eps[l] = 1e-9 * d.Total()
	}
	if opt.Original != nil {
		if len(opt.Original) != L {
			return nil, fmt.Errorf("sim: %d original demands for %d links", len(opt.Original), L)
		}
		for l, o := range opt.Original {
			// Epsilon anchors to the pre-shed demand: a link shed to
			// zero must not inherit a zero tolerance and then flip
			// between done/undone on roundoff.
			rem.eps[l] = 1e-9 * o.Total()
			for c := 0; c < nc; c++ {
				rem.shed[c][l] = maxFloat(o.At(c)-demands[l].At(c), 0)
			}
		}
	}
	exec := &Execution{
		Policy:        policy.Name(),
		Completion:    make([]float64, L),
		ServedByClass: make([][]float64, nc),
		Degraded:      make([]bool, L),
		ShedByClass:   make([][]float64, nc),
	}
	for c := 0; c < nc; c++ {
		exec.ServedByClass[c] = make([]float64, L)
		exec.ShedByClass[c] = append([]float64(nil), rem.shed[c]...)
	}
	for l := range exec.Completion {
		if rem.Done(l) {
			exec.Completion[l] = 0
		} else {
			exec.Completion[l] = -1 // pending
		}
	}

	deadlineSlots := maxSlots
	if opt.Deadline > 0 {
		if d := int(opt.Deadline/slotDur + 1e-9); d < deadlineSlots {
			deadlineSlots = d
		}
	}

	failed := make([]bool, L)
	slot := 0
	for !rem.AllDone() {
		if opt.Deadline > 0 && slot >= deadlineSlots {
			break // period boundary: deliver what fits, drop the rest
		}
		if slot >= maxSlots {
			return exec, fmt.Errorf("%w at slot %d with %.3g bits unserved", ErrSlotLimit, slot, rem.Total())
		}
		if len(opt.Failures) > 0 {
			for l := range failed {
				failed[l] = false
			}
			for _, f := range opt.Failures {
				if f.Link >= L {
					return nil, fmt.Errorf("sim: failure targets link %d of %d", f.Link, L)
				}
				if slot >= f.Slot && slot < f.Slot+f.Duration {
					failed[f.Link] = true
				}
			}
		}
		s, err := policy.Decide(nw, rem, slot)
		if err != nil {
			return exec, fmt.Errorf("sim: policy %q failed at slot %d: %w", policy.Name(), slot, err)
		}
		if s == nil || len(s.Assignments) == 0 {
			if opt.Deadline > 0 {
				break // plan exhausted inside the period: drop the rest
			}
			return exec, fmt.Errorf("%w (policy %q, slot %d)", ErrStalled, policy.Name(), slot)
		}
		if opt.Validate {
			if err := s.Validate(nw); err != nil {
				return exec, fmt.Errorf("sim: policy %q emitted invalid schedule at slot %d: %w", policy.Name(), slot, err)
			}
		}
		for _, a := range s.Assignments {
			if failed[a.Link] {
				// The outage swallows the transmission: airtime is
				// spent, no bits land, demand stays.
				exec.FailedSlots++
				continue
			}
			bits := nw.Rates.Rates[a.Level] * slotDur
			c := a.Layer.Class()
			if c >= nc {
				return exec, fmt.Errorf("sim: policy %q scheduled class %d of %d at slot %d", policy.Name(), c, nc, slot)
			}
			served := minFloat(bits, maxFloat(rem.ByClass[c][a.Link], 0))
			rem.ByClass[c][a.Link] -= bits
			exec.ServedByClass[c][a.Link] += served
		}
		slot++
		for l := 0; l < L; l++ {
			if exec.Completion[l] < 0 && rem.Done(l) {
				exec.Completion[l] = float64(slot) * slotDur
			}
		}
	}
	exec.Slots = slot
	exec.TotalTime = float64(slot) * slotDur
	for l := range exec.Completion {
		if exec.Completion[l] < 0 {
			exec.Completion[l] = exec.TotalTime
		}
	}
	// Degraded = the user saw less than the original demand: bits shed
	// upstream, or the run ended with scheduled demand unserved.
	for l := 0; l < L; l++ {
		exec.Degraded[l] = rem.ServedDegraded(l) || !rem.Done(l)
	}
	return exec, nil
}

// PlanPolicy replays a column-generation plan slot by slot: each plan
// schedule runs for ceil(τ/slot) slots, in plan order. Slots whose
// schedule serves only finished links are skipped in favor of the next
// plan entry, which tightens the measured delay without changing
// feasibility.
type PlanPolicy struct {
	Schedules []*schedule.Schedule
	Tau       []float64 // seconds per schedule
	Label     string    // policy name; empty means "proposed"

	slotsLeft []int
	cursor    int
	slotDur   float64
}

// NewPlanPolicy builds a replay policy for the plan with the given
// slot duration. Plan entries are replayed in descending parallelism
// (then aggregate-rate) order: the choice does not affect the total
// scheduling time (any order sums to Σ τ) but running the widest
// schedules first completes most links early, which is the natural
// reading of the paper's per-link delay metric.
func NewPlanPolicy(schedules []*schedule.Schedule, tau []float64, slotDur float64) (*PlanPolicy, error) {
	if len(schedules) != len(tau) {
		return nil, fmt.Errorf("sim: %d schedules but %d durations", len(schedules), len(tau))
	}
	if slotDur <= 0 {
		return nil, fmt.Errorf("sim: slot duration %g must be positive", slotDur)
	}
	order := make([]int, len(schedules))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := schedules[order[a]], schedules[order[b]]
		if len(sa.Assignments) != len(sb.Assignments) {
			return len(sa.Assignments) > len(sb.Assignments)
		}
		return order[a] < order[b]
	})
	p := &PlanPolicy{
		Schedules: make([]*schedule.Schedule, len(schedules)),
		Tau:       make([]float64, len(tau)),
		slotDur:   slotDur,
		slotsLeft: make([]int, len(tau)),
	}
	for pos, idx := range order {
		p.Schedules[pos] = schedules[idx]
		p.Tau[pos] = tau[idx]
		p.slotsLeft[pos] = int(ceilDiv(tau[idx], slotDur))
	}
	return p, nil
}

// Name implements Policy.
func (p *PlanPolicy) Name() string {
	if p.Label != "" {
		return p.Label
	}
	return "proposed"
}

// Decide implements Policy.
func (p *PlanPolicy) Decide(nw *netmodel.Network, rem *Remaining, slot int) (*schedule.Schedule, error) {
	for p.cursor < len(p.Schedules) {
		if p.slotsLeft[p.cursor] <= 0 || !servesPending(p.Schedules[p.cursor], rem) {
			p.cursor++
			continue
		}
		p.slotsLeft[p.cursor]--
		// Trim assignments of already-finished layers so the executor's
		// served accounting stays tight; interference-wise the trimmed
		// schedule is only easier.
		return trimSchedule(p.Schedules[p.cursor], rem), nil
	}
	return nil, nil // plan exhausted
}

// servesPending reports whether the schedule delivers bits some link
// still needs.
func servesPending(s *schedule.Schedule, rem *Remaining) bool {
	for _, a := range s.Assignments {
		if rem.At(a.Layer.Class(), a.Link) > 0 {
			return true
		}
	}
	return false
}

// trimSchedule drops assignments whose class demand is already served.
func trimSchedule(s *schedule.Schedule, rem *Remaining) *schedule.Schedule {
	out := &schedule.Schedule{}
	for _, a := range s.Assignments {
		if rem.At(a.Layer.Class(), a.Link) <= 0 {
			continue
		}
		out.Assignments = append(out.Assignments, a)
	}
	return out
}

// ceilDiv returns ⌈a/b⌉ for positive b, tolerant of roundoff.
func ceilDiv(a, b float64) float64 {
	q := a / b
	f := float64(int(q))
	if q-f > 1e-9 {
		return f + 1
	}
	return f
}

// minFloat and maxFloat avoid math.Min/Max NaN handling in hot loops.
func minFloat(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
