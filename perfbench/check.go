package main

import (
	"fmt"
	"math"

	"mmwave/internal/core"
	"mmwave/internal/netmodel"
	"mmwave/internal/schedule"
	"mmwave/internal/sim"
	"mmwave/internal/video"
)

// checkPlan verifies a plan against the network it was scheduled on and
// the demand it must serve: every column passes schedule.Validate and
// admits powers within PMax under netmodel.MinPowersAssigned, the
// air-time shares are finite and non-negative and sum to the
// objective, and Σ τ·rate covers every (class, link) demand row.
func checkPlan(nw *netmodel.Network, plan core.Plan, demands []video.Demand) error {
	if len(plan.Tau) != len(plan.Schedules) {
		return fmt.Errorf("plan has %d columns but %d shares", len(plan.Schedules), len(plan.Tau))
	}
	nc := nw.TrafficClasses()
	served := make([][]float64, nc)
	for c := range served {
		served[c] = make([]float64, nw.NumLinks())
	}
	var total float64
	for i, s := range plan.Schedules {
		tau := plan.Tau[i]
		if tau < 0 || math.IsNaN(tau) || math.IsInf(tau, 0) {
			return fmt.Errorf("column %d: share %g", i, tau)
		}
		total += tau
		if err := s.Validate(nw); err != nil {
			return fmt.Errorf("column %d: %w", i, err)
		}
		if err := columnFeasible(nw, s); err != nil {
			return fmt.Errorf("column %d: %w", i, err)
		}
		for _, a := range s.Assignments {
			served[a.Layer.Class()][a.Link] += tau * nw.Rates.Rates[a.Level]
		}
	}
	if math.Abs(total-plan.Objective) > 1e-9*math.Max(1, plan.Objective) {
		return fmt.Errorf("shares sum to %.12g, objective %.12g", total, plan.Objective)
	}
	for l, d := range demands {
		for c := 0; c < d.NumClasses(); c++ {
			need := d.At(c)
			if need <= 0 {
				continue
			}
			if c >= nc || served[c][l] < need*(1-1e-6) {
				got := 0.0
				if c < nc {
					got = served[c][l]
				}
				return fmt.Errorf("demand row (class %d, link %d) unmet: %.6g of %.6g bits", c, l, got, need)
			}
		}
	}
	return nil
}

// columnFeasible re-derives the column's minimal powers from scratch and
// requires them to exist within PMax.
func columnFeasible(nw *netmodel.Network, s *schedule.Schedule) error {
	active, chans, gammas := columnPattern(nw, s)
	powers, ok := nw.MinPowersAssigned(active, chans, gammas)
	if !ok {
		return fmt.Errorf("no power vector within PMax meets its SINR thresholds")
	}
	for i, p := range powers {
		if p > nw.PMax*(1+1e-9) {
			return fmt.Errorf("link %d needs %g W > PMax", active[i], p)
		}
	}
	return nil
}

func columnPattern(nw *netmodel.Network, s *schedule.Schedule) (active, chans []int, gammas []float64) {
	for _, a := range s.Assignments {
		active = append(active, a.Link)
		chans = append(chans, a.Channel)
		gammas = append(gammas, nw.Rates.Gammas[a.Level])
	}
	return active, chans, gammas
}

// simulate executes the plan slot by slot and requires every demand
// row to be delivered.
func simulate(nw *netmodel.Network, plan core.Plan, demands []video.Demand, slot float64) error {
	policy, err := sim.NewPlanPolicy(plan.Schedules, plan.Tau, slot)
	if err != nil {
		return err
	}
	exec, err := sim.Run(nw, demands, policy, sim.Options{SlotDuration: slot})
	if err != nil {
		return err
	}
	for l, d := range demands {
		if exec.Completion[l] < 0 {
			return fmt.Errorf("sim: link %d never completed", l)
		}
		for c := 0; c < d.NumClasses(); c++ {
			if exec.ServedAt(c, l) < d.At(c)*(1-1e-9) {
				return fmt.Errorf("sim: link %d class %d served %.6g of %.6g bits", l, c, exec.ServedAt(c, l), d.At(c))
			}
		}
	}
	return nil
}
