package main

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"

	"mmwave/internal/cg"
	"mmwave/internal/checkpoint"
	"mmwave/internal/core"
	"mmwave/internal/experiment"
	"mmwave/internal/stats"
)

// setupReps is how many times every workload repeats its set-up; the
// reported setup_s is the median.
const setupReps = 9

// minOps is the smallest operation count a run is sized to: p90 then
// has at least ten samples beyond it.
const minOps = 110

// gapTol is the Theorem-1 gap a proof may keep: convergence stops at a
// reduced cost of −1e-7 (the solver's tolerance), so the bound meets
// the objective to within about that.
const gapTol = 1e-6

// solveSpec is a cold-solve workload: instances drawn by the experiment
// generator, one fresh solver per instance, closed loop.
type solveSpec struct {
	op       string // what one solve is called in the readings
	cfg      experiment.Config
	batch    int     // solves per timed operation
	perSec   float64 // operations per run second the run is sized to
	exact    bool    // every solve must converge with gap 0
	simulate bool    // execute every plan in sim.Run as an output check
	stream   int64   // RNG stream base, disjoint per workload
}

func runTable1Cold(e *env) (*result, error) {
	return runSolves(e, solveSpec{
		op:       "solve",
		cfg:      experiment.DefaultConfig(),
		batch:    1,
		perSec:   5.5,
		simulate: true,
		stream:   1 << 32,
	})
}

// runExactProof proves batches of small instances optimal. Proof time
// per instance spans two orders of magnitude, so one operation is a
// batch of proofs back to back (a fleet's cold epoch); that keeps the
// seed-to-seed spread of the batch latency within the bounds.
func runExactProof(e *env) (*result, error) {
	cfg := experiment.DefaultConfig()
	cfg.NumLinks = 6
	cfg.NumChannels = 2
	cfg.PricerBudget = 1 << 40 // unlimited: every round prices exactly
	return runSolves(e, solveSpec{
		op:     "proof",
		cfg:    cfg,
		batch:  16,
		perSec: 6,
		exact:  true,
		stream: 2 << 32,
	})
}

// pricer builds the workload's branch-and-bound pricer exactly as the
// experiment harness does: the configured budget and the default
// multi-column leaf pool.
func (sp solveSpec) pricer() *core.BranchBoundPricer {
	p := core.NewBranchBoundPricer(sp.cfg.PricerBudget)
	p.PoolLeaves = cg.MultiColumnPolicy{}.Columns()
	return p
}

// runSize sizes a run: ops per second times the run length, at least
// lo.
func runSize(seconds int, perSec float64, lo int) int {
	n := int(math.Round(float64(seconds) * perSec))
	if n < lo {
		n = lo
	}
	return n
}

// drawInstances draws the run's instances, a pure function of the
// seed.
func drawInstances(cfg experiment.Config, seed, stream int64, n int) ([]*experiment.Instance, error) {
	out := make([]*experiment.Instance, n)
	for i := range out {
		inst, err := experiment.NewInstance(cfg, stats.Fork(seed, stream+int64(i)))
		if err != nil {
			return nil, err
		}
		out[i] = inst
	}
	return out, nil
}

// instanceDigest fingerprints an instance set: every network and
// every demand bit.
func instanceDigest(insts []*experiment.Instance) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, in := range insts {
		word(checkpoint.NetworkFingerprint(in.Network))
		for _, d := range in.Demands {
			for _, bits := range d {
				word(math.Float64bits(bits))
			}
		}
	}
	return h.Sum64()
}

// setupInstances draws the instance set setupReps times, checking that
// every draw is identical, and returns it with the median draw's CPU
// time.
func setupInstances(res *result, sp solveSpec, seed int64, n int) ([]*experiment.Instance, float64, error) {
	var insts []*experiment.Instance
	var digest uint64
	var times []float64
	for r := 0; r < setupReps; r++ {
		c0 := processCPU()
		got, err := drawInstances(sp.cfg, seed, sp.stream, n)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, (processCPU() - c0).Seconds())
		d := instanceDigest(got)
		if r == 0 {
			insts, digest = got, d
		} else if d != digest {
			res.fail("set-up draw %d differs from draw 0", r)
		}
	}
	return insts, median(times), nil
}

// solveOutcome is one timed solve.
type solveOutcome struct {
	ms     float64 // core.New + Solve, wall time
	cpuMS  float64 // the same, process CPU time
	res    *core.Result
	solver *core.Solver
	pricer pricerStats
}

// solveOne builds a fresh solver for the instance and solves it. With
// a recording scope the pricer is decorated and every call is spanned.
func solveOne(sp solveSpec, in *experiment.Instance, sc *scope) (*solveOutcome, error) {
	var pr core.Pricer = sp.pricer()
	var tp *tracedPricer
	if sc.rec != nil {
		tp = &tracedPricer{inner: sp.pricer(), sc: sc}
		pr = tp
	}
	out := &solveOutcome{}
	var err error
	c0 := processCPU()
	d := sc.timed(sp.op, func() {
		sc.timed("core.new", func() {
			out.solver, err = core.New(in.Network, in.Demands, core.WithPricer(pr))
		})
		if err != nil {
			return
		}
		sc.timed("core.solve", func() { out.res, err = out.solver.Solve(context.Background()) })
	})
	if err != nil {
		return nil, err
	}
	out.cpuMS = ms(processCPU() - c0)
	out.ms = ms(d)
	if tp != nil {
		out.pricer = tp.stats
	}
	return out, nil
}

// checkSolve applies the workload's output checks to one solve.
func checkSolve(res *result, sp solveSpec, i int, in *experiment.Instance, out *solveOutcome) {
	r := out.res
	if sp.exact && (!r.Converged || r.Gap() > gapTol) {
		res.fail("%s %d: not proven optimal (converged=%v gap=%g)", sp.op, i, r.Converged, r.Gap())
		return
	}
	if err := checkPlan(in.Network, r.Plan, in.Demands); err != nil {
		res.fail("%s %d: %v", sp.op, i, err)
		return
	}
	if sp.simulate {
		if err := simulate(in.Network, r.Plan, in.Demands, sp.cfg.SlotDuration); err != nil {
			res.fail("%s %d: %v", sp.op, i, err)
		}
	}
}

func runSolves(e *env, sp solveSpec) (*result, error) {
	res := &result{Op: sp.op}
	ops := runSize(e.seconds, sp.perSec, minOps)
	insts, setupS, err := setupInstances(res, sp, e.seed, ops*sp.batch)
	if err != nil {
		return nil, err
	}
	if e.traced {
		return res, traceSolves(e, res, sp, insts, setupS)
	}

	var lat, opLat, opCPU, objs, gaps []float64
	var work cg.Stats
	for i, in := range insts {
		res.Attempted++
		out, err := solveOne(sp, in, &scope{})
		if err != nil {
			res.fail("%s %d: %v", sp.op, i, err)
			continue
		}
		lat = append(lat, out.ms)
		if i%sp.batch == 0 {
			opLat = append(opLat, 0)
			opCPU = append(opCPU, 0)
		}
		opLat[len(opLat)-1] += out.ms
		opCPU[len(opCPU)-1] += out.cpuMS
		objs = append(objs, out.res.Plan.Objective)
		gaps = append(gaps, out.res.Gap())
		addStats(&work, out.res.Stats)
		checkSolve(res, sp, i, in, out)
	}
	p50, p90 := percentile(opLat, 0.5), percentile(opLat, 0.9)
	c90 := percentile(opCPU, 0.9)
	if !c90.OK {
		res.fail("only %d operations: p90 needs ten beyond it", c90.N)
	}
	res.E2E = []metric{
		{"setup_s", setupS, "s"},
		{"cpu_p50_ms", percentile(opCPU, 0.5).Value, "ms"},
		{"cpu_p90_ms", c90.Value, "ms"},
		{"plan_s_mean", mean(objs), "s"},
	}
	pre, verb := sp.op, sp.op
	if sp.exact {
		verb = "prove"
	}
	res.Named = []metric{
		{pre + "_samples", float64(len(lat)), "count"},
		{pre + "_p50_ms", percentile(lat, 0.5).Value, "ms"},
		{pre + "_p90_ms", percentile(lat, 0.9).Value, "ms"},
	}
	res.Named = append(res.Named, tailMetric(pre, lat)...)
	if sp.batch > 1 {
		res.Named = append(res.Named,
			metric{"batch_p50_ms", p50.Value, "ms"},
			metric{"batch_p90_ms", p90.Value, "ms"})
	}
	res.Named = append(res.Named, []metric{
		{pre + "s_per_s", ratio(float64(len(lat)), sum(lat)/1e3), "1/s"},
		{verb + "_total_s", sum(lat) / 1e3, "s"},
		{verb + "_max_s", maxOf(lat) / 1e3, "s"},
		{"plan_s_mean", mean(objs), "s"},
		{"lb_gap_mean", mean(gaps), "ratio"},
	}...)
	res.Work = statsWork(work, len(lat))
	return res, nil
}

// addStats accumulates one solve's work counters.
func addStats(a *cg.Stats, b cg.Stats) {
	a.Rounds += b.Rounds
	a.Probes += b.Probes
	a.MasterSolves += b.MasterSolves
	a.PricerNodes += b.PricerNodes
	a.LPPivots += b.LPPivots
	a.LPRefactorizations += b.LPRefactorizations
	a.LPEtaUpdates += b.LPEtaUpdates
	a.WarmMasters += b.WarmMasters
	a.StabRounds += b.StabRounds
	a.HeuristicHits += b.HeuristicHits
	a.ExactFallbacks += b.ExactFallbacks
	a.ColumnsAdded += b.ColumnsAdded
}

// statsWork renders deterministic counters summed over n solves.
func statsWork(s cg.Stats, n int) []metric {
	return []metric{
		{"solves", float64(n), "count"},
		{"rounds", float64(s.Rounds), "count"},
		{"probes", float64(s.Probes), "count"},
		{"pricer_nodes", float64(s.PricerNodes), "count"},
		{"master_solves", float64(s.MasterSolves), "count"},
		{"lp_pivots", float64(s.LPPivots), "count"},
		{"columns_added", float64(s.ColumnsAdded), "count"},
	}
}
