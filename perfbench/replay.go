package main

import (
	"fmt"
	"time"

	"mmwave/internal/core"
	"mmwave/internal/netmodel"
	"mmwave/internal/video"
)

// Standalone replays time one layer's public entry point on the run's
// own outputs, outside the solve that produced them. Each replay
// repeats its call until it has minReps samples and minWall of wall
// time, and reports the median sample.
const (
	minReps     = 5
	minWall     = 5 * time.Millisecond
	maxReplayed = 24 // plan columns replayed per plan
)

// medianTime runs fn until it has enough samples and returns the
// median of the durations fn reports (fn times only its measured part).
func medianTime(fn func() (time.Duration, error)) (time.Duration, error) {
	var ds []float64
	start := time.Now()
	for len(ds) < minReps || (time.Since(start) < minWall && len(ds) < 1000) {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

// timeCall times one call.
func timeCall(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// netReplay times the pricer's feasibility primitives on plan columns:
// the incremental ProbeSolver probing and committing each column's
// links in order (the pricing search's innermost step), and a
// from-scratch MinPowersAssigned of the whole column.
type netReplay struct {
	ProbeTime   time.Duration
	Probes      int
	MinPowTime  time.Duration
	MinPowCalls int
}

func (a *netReplay) add(b netReplay) {
	a.ProbeTime += b.ProbeTime
	a.Probes += b.Probes
	a.MinPowTime += b.MinPowTime
	a.MinPowCalls += b.MinPowCalls
}

func replayNetmodel(nw *netmodel.Network, plan core.Plan) (netReplay, error) {
	var out netReplay
	for i, s := range plan.Schedules {
		if i == maxReplayed {
			break
		}
		if len(s.Assignments) == 0 {
			continue
		}
		active, chans, gammas := columnPattern(nw, s)
		ps := netmodel.NewProbeSolver(nw, len(active))
		d, err := medianTime(func() (time.Duration, error) {
			ps.Reset()
			t0 := time.Now()
			for j := range active {
				if !ps.Probe(active[j], chans[j], gammas[j]) {
					return 0, fmt.Errorf("netmodel replay: plan column %d refused at link %d", i, active[j])
				}
				ps.Push(active[j], chans[j], gammas[j])
			}
			return time.Since(t0), nil
		})
		if err != nil {
			return out, err
		}
		out.ProbeTime += d
		out.Probes += len(active)
		d, err = medianTime(func() (time.Duration, error) {
			t0 := time.Now()
			if _, ok := nw.MinPowersAssigned(active, chans, gammas); !ok {
				return 0, fmt.Errorf("netmodel replay: plan column %d infeasible", i)
			}
			return time.Since(t0), nil
		})
		if err != nil {
			return out, err
		}
		out.MinPowTime += d
		out.MinPowCalls++
	}
	return out, nil
}

// replaySim times sim.Run executing a plan (the output check itself).
func replaySim(nw *netmodel.Network, plan core.Plan, demands []video.Demand, slot float64) (time.Duration, error) {
	return medianTime(func() (time.Duration, error) {
		return timeCall(func() error { return simulate(nw, plan, demands, slot) })
	})
}
