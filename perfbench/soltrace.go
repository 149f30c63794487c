package main

import (
	"strings"

	"mmwave/internal/api"
	"mmwave/internal/experiment"
)

// replayOps bounds how many traced solves get the standalone LP,
// netmodel and sim replays.
const replayOps = 6

// serviceCells is how many of a solver workload's instances are also
// served through pncd for one epoch, so the service layers are measured
// on every workload's own inputs.
const serviceCells = 2

// traceSolves is the traced run of a solver workload: each of the first
// third of the instances solved untraced and then with every layer
// call spanned, then the standalone replays and a one-epoch service
// replay.
func traceSolves(e *env, res *result, sp solveSpec, insts []*experiment.Instance, setupS float64) error {
	k := (len(insts) + 2) / 3
	sub := insts[:k]
	rec := newRecorder()
	var fam family
	fam.instanceMS = 1e3 * setupS / float64(len(insts))
	var ref, traced []float64
	for i, in := range sub {
		// Each instance is solved untraced, then traced, back to back, so
		// a drift in machine speed hits both sides of the overhead alike.
		res.Attempted++
		u, err := solveOne(sp, in, &scope{})
		if err != nil {
			res.fail("%s %d: %v", sp.op, i, err)
			continue
		}
		out, err := solveOne(sp, in, &scope{rec: rec, op: int64(i + 1)})
		if err != nil {
			res.fail("%s %d: %v", sp.op, i, err)
			continue
		}
		if out.res.Stats != u.res.Stats || out.res.Plan.Objective != u.res.Plan.Objective {
			res.fail("%s %d: tracing changed the walk", sp.op, i)
		}
		checkSolve(res, sp, i, in, out)
		ref = append(ref, u.ms)
		traced = append(traced, out.ms)
		addStats(&fam.stats, out.res.Stats)
		fam.pricer.add(out.pricer)
		fam.poolSum += float64(out.solver.Pool().Len())
		fam.poolN++
		if i >= replayOps {
			continue
		}
		if lr, err := replayLP(in.Network, poolColumns(out.solver.Pool()), in.Demands, perRound(out.res.Stats)); err != nil {
			res.fail("%s %d: %v", sp.op, i, err)
		} else {
			fam.addLP(lr)
		}
		nr, err := replayNetmodel(in.Network, out.res.Plan)
		if err != nil {
			res.fail("%s %d: %v", sp.op, i, err)
		}
		fam.net.add(nr)
		if d, err := replaySim(in.Network, out.res.Plan, in.Demands, sp.cfg.SlotDuration); err != nil {
			res.fail("%s %d: %v", sp.op, i, err)
		} else {
			fam.simTime += d
			fam.sims++
		}
	}
	self := rec.selfTimes()
	tot, n := rec.totals()
	fam.ops = len(traced)
	fam.enclosing = tot[sp.op]
	fam.newTime, fam.solveTime, fam.solves = tot["core.new"], tot["core.solve"], n["core.solve"]
	fam.other = self["core.solve"] - fam.lpEstimate()

	svc, err := serveInstances(e, res, sp, sub)
	if err != nil {
		return err
	}
	res.Layers = append(fam.metrics(), svc.serviceMetrics()...)
	res.Work = statsWork(fam.stats, len(traced))
	K := float64(len(traced))
	res.Ladder = []rung{
		{Name: "core.New", MS: ms(tot["core.new"]) / K},
		{Name: "core.Solve self", MS: ms(self["core.solve"]) / K},
		{Name: "lp master solves (replay estimate)", MS: ms(fam.lpEstimate()) / K, Depth: 1},
		{Name: "pricer", MS: ms(tot["pricer"]) / K},
		{Name: sp.op + " self", MS: ms(self[sp.op]) / K},
	}
	res.UntracedMS, res.TracedMS = mean(ref), mean(traced)
	reconcile(res)
	return rec.write(e.tracePath())
}

// serveInstances serves the first instances through an in-process
// pncd for one epoch each (the instance's own demands, the workload's
// pricer budget on the wire), traced, to measure the service layers.
func serveInstances(e *env, res *result, sp solveSpec, insts []*experiment.Instance) (*serviceTrace, error) {
	if len(insts) > serviceCells {
		insts = insts[:serviceCells]
	}
	ssp := serviceSpec{
		cells:  len(insts),
		cfg:    sp.cfg,
		solve:  &api.Solve{PricerBudget: sp.cfg.PricerBudget},
		stream: sp.stream,
	}
	nets := make([]api.Network, len(insts))
	in := epochInput{demands: make([][]api.Demand, len(insts))}
	for c, inst := range insts {
		nets[c] = api.NetworkFromModel(inst.Network)
		for l, d := range inst.Demands {
			in.demands[c] = append(in.demands[c], api.DemandFromModel(l, d))
		}
	}
	path := strings.TrimSuffix(e.tracePath(), ".jsonl") + "-service.jsonl"
	return traceService(res, ssp, e.seed, nets, []epochInput{in}, path)
}
