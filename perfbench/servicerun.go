package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"mmwave/internal/api"
	"mmwave/internal/video"
)

// tally accumulates one pass's checked cell-epochs.
type tally struct {
	epochMS    []float64
	epochCPU   []float64
	csiMS      []float64
	objs       []float64
	cellEpochs int
	ok         int
	warm       int
	truncated  int
	cgIters    int
	shed       float64
	offered    float64
	plans      [][]byte // wire plan per (epoch, cell), epoch-major
}

// runEpochs runs every epoch through the pass and checks each reply.
func (p *pass) runEpochs(res *result, ins []epochInput) *tally {
	t := &tally{}
	for ep, in := range ins {
		t.check(res, p, ep, in, p.epoch(ep, in))
	}
	return t
}

// check applies the output checks to one epoch: every cell stepped ok
// with a plan, the plan read back equals the step report's, and the
// plan is feasible on the cell's current network and serves the demand
// the coordinator scheduled. Every cell gets one entry in t.plans, nil
// when the epoch has no plan to compare.
func (t *tally) check(res *result, p *pass, ep int, in epochInput, out epochOut) {
	if out.err != nil {
		for range p.ids {
			res.Attempted++
			res.fail("epoch %d: %v", ep, out.err)
			t.plans = append(t.plans, nil)
		}
		return
	}
	t.epochMS = append(t.epochMS, out.ms)
	t.epochCPU = append(t.epochCPU, out.cpuMS)
	if in.csi != nil {
		t.csiMS = append(t.csiMS, out.ms)
	}
	for c, cell := range p.ids {
		res.Attempted++
		t.cellEpochs++
		if in.csi != nil {
			for _, u := range in.csi[c] {
				copy(p.nets[c].Gains.Direct[u.Link], u.Gains)
			}
		}
		for _, d := range in.demands[c] {
			t.offered += d.HPBits + d.LPBits
		}
		rep, ok := out.reports[cell]
		if !ok || rep.Outcome != "ok" || rep.NoPlan || rep.Result == nil {
			res.fail("epoch %d cell %d: outcome %q no_plan=%v %s", ep, cell, rep.Outcome, rep.NoPlan, rep.Error)
			t.plans = append(t.plans, nil)
			continue
		}
		pj, err := json.Marshal(rep.Plan)
		if err != nil {
			res.fail("epoch %d cell %d: %v", ep, cell, err)
			t.plans = append(t.plans, nil)
			continue
		}
		t.plans = append(t.plans, pj)
		if gj, err := json.Marshal(out.plans[c].Plan); err != nil || !bytes.Equal(pj, gj) {
			res.fail("epoch %d cell %d: GET plan differs from the step report's plan", ep, cell)
			continue
		}
		if err := checkPlan(p.nets[c], rep.Plan.ToModel(), wireDemands(rep.Result.Demands)); err != nil {
			res.fail("epoch %d cell %d: %v", ep, cell, err)
			continue
		}
		t.ok++
		t.objs = append(t.objs, rep.Plan.Objective)
		t.cgIters += rep.Result.CGIterations
		t.shed += rep.Result.ShedHPBits + rep.Result.ShedLPBits
		if rep.Result.WarmSolve {
			t.warm++
		}
		if rep.Result.TruncatedSolve {
			t.truncated++
		}
	}
}

func wireDemands(ds []api.Demand) []video.Demand {
	out := make([]video.Demand, len(ds))
	for i, d := range ds {
		out[i] = d.ToModel()
	}
	return out
}

func runService(e *env, sp serviceSpec) (*result, error) {
	res := &result{Op: "epoch"}
	epochs := runSize(e.seconds, sp.perSec, minOps)
	if e.traced {
		nets, ins, err := serviceInputs(sp, e.seed, (epochs+2)/3)
		if err != nil {
			return nil, err
		}
		st, err := traceService(res, sp, e.seed, nets, ins, e.tracePath())
		if err != nil {
			return nil, err
		}
		st.report(res)
		return res, nil
	}

	var p *pass
	var ins []epochInput
	var setups []float64
	for r := 0; r < setupReps; r++ {
		c0 := processCPU()
		nets, in, err := serviceInputs(sp, e.seed, epochs)
		if err != nil {
			return nil, err
		}
		q, err := openPass(sp, nets, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, (processCPU() - c0).Seconds())
		if p != nil {
			p.close()
		}
		p, ins = q, in
	}
	defer p.close()
	t := p.runEpochs(res, ins)
	counters, err := p.serverCounters()
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}

	p50, p90 := percentile(t.epochMS, 0.5), percentile(t.epochMS, 0.9)
	c90 := percentile(t.epochCPU, 0.9)
	if !c90.OK {
		res.fail("only %d epochs: p90 needs ten beyond it", c90.N)
	}
	perSec := ratio(float64(t.cellEpochs), sum(t.epochMS)/1e3)
	res.E2E = []metric{
		{"setup_s", median(setups), "s"},
		{"cpu_p50_ms", percentile(t.epochCPU, 0.5).Value, "ms"},
		{"cpu_p90_ms", c90.Value, "ms"},
		{"plan_s_mean", mean(t.objs), "s"},
	}
	res.Named = []metric{
		{"epoch_samples", float64(len(t.epochMS)), "count"},
		{"epoch_p50_ms", p50.Value, "ms"},
		{"epoch_p90_ms", p90.Value, "ms"},
	}
	res.Named = append(res.Named, tailMetric("epoch", t.epochMS)...)
	res.Named = append(res.Named, []metric{
		{"cell_epochs_per_s", perSec, "1/s"},
		{"plan_s_mean", mean(t.objs), "s"},
		{"shed_fraction", ratio(t.shed, t.offered), "ratio"},
	}...)
	if len(t.csiMS) > 0 {
		res.Named = append(res.Named,
			metric{"csi_epoch_samples", float64(len(t.csiMS)), "count"},
			metric{"csi_epoch_p50_ms", percentile(t.csiMS, 0.5).Value, "ms"})
	}
	res.Work = serviceWork(t, counters)
	return res, nil
}

// serviceWork renders a pass's deterministic counters: the wire
// reports' CG iterations, the server's own solver counters, and its
// checkpoint writes, so a change in durability work shows even though
// CPU time does not see the fsync waits.
func serviceWork(t *tally, counters map[string]float64) []metric {
	return []metric{
		{"cell_epochs", float64(t.cellEpochs), "count"},
		{"cg_iterations", float64(t.cgIters), "count"},
		{"rounds", counters["core_cg_rounds_total"], "count"},
		{"probes", counters["core_probes_total"], "count"},
		{"pricer_nodes", counters["core_pricer_nodes_total"], "count"},
		{"master_solves", counters["core_master_solves_total"], "count"},
		{"lp_pivots", counters["core_lp_pivots_total"], "count"},
		{"columns_added", counters["cg_columns_per_round_sum"], "count"},
		{"warm_solves", counters["pnc_warm_solves_total"], "count"},
		{"cold_solves", counters["pnc_cold_solves_total"], "count"},
		{"checkpoints_written", counters["host_checkpoints_written_total"], "count"},
	}
}
