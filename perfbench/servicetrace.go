package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mmwave/internal/api"
	"mmwave/internal/checkpoint"
	"mmwave/internal/core"
	"mmwave/internal/host"
	"mmwave/internal/obs"
	"mmwave/internal/video"
)

// serviceTrace is a traced pncd run: an untraced reference server, a
// traced one (every client call and server handler spanned) and an
// in-process replay of the same frames, stepping cells one at a time
// through host.Step with a decorated pricer, all three run epoch by
// epoch side by side; then standalone replays on the cells' final
// state.
type serviceTrace struct {
	sp         serviceSpec
	epochs     int
	untraced   *tally
	traced     *tally
	rec        *recorder
	fam        family
	hostStep   time.Duration
	hostSteps  int
	ckptWrites float64 // checkpoints the replay's host wrote
	ckptBytes  []float64
	ckptSave   []float64 // ms
	work       []metric
}

func traceService(res *result, sp serviceSpec, seed int64, nets []api.Network, ins []epochInput, tracePath string) (*serviceTrace, error) {
	st := &serviceTrace{sp: sp, epochs: len(ins), rec: newRecorder()}
	t0 := time.Now()
	if _, err := drawInstances(sp.cfg, seed, sp.stream, sp.cells); err != nil {
		return nil, err
	}
	st.fam.instanceMS = ms(time.Since(t0)) / float64(sp.cells)

	var passes [2]*pass
	defer func() {
		for _, p := range passes {
			if p != nil {
				p.close()
			}
		}
	}()
	for i, rec := range []*recorder{nil, st.rec} {
		p, err := openPass(sp, nets, rec)
		if err != nil {
			return nil, err
		}
		passes[i] = p
	}
	rp, err := openReplay(sp, nets, st.rec)
	if err != nil {
		return nil, err
	}
	defer rp.close()

	// Every epoch runs on the untraced server, the traced server and the
	// replay back to back, so a drift in machine speed hits all alike.
	st.untraced, st.traced = &tally{}, &tally{}
	tallies := [2]*tally{st.untraced, st.traced}
	for ep, in := range ins {
		for i, p := range passes {
			tallies[i].check(res, p, ep, in, p.epoch(ep, in))
		}
		if err := st.replayEpoch(res, rp, ep, in); err != nil {
			return nil, err
		}
	}
	var counters [2]map[string]float64
	for i, p := range passes {
		if counters[i], err = p.serverCounters(); err != nil {
			return nil, fmt.Errorf("scrape /metrics: %w", err)
		}
		p.close()
		passes[i] = nil
	}
	w0, w1 := serviceWork(st.untraced, counters[0]), serviceWork(st.traced, counters[1])
	if diff := diffWork(w0, w1); diff != "" {
		res.fail("tracing changed the work: %s", diff)
	}
	if !samePlans(st.untraced.plans, st.traced.plans) {
		res.fail("tracing changed a plan")
	}
	st.work = w1
	if err := st.finishReplay(res, rp); err != nil {
		return nil, err
	}
	if err := st.rec.write(tracePath); err != nil {
		return nil, err
	}
	return st, nil
}

func diffWork(a, b []metric) string {
	var diffs []string
	for i := range a {
		if a[i] != b[i] {
			diffs = append(diffs, fmt.Sprintf("%s %g vs %g", a[i].Name, a[i].Value, b[i].Value))
		}
	}
	return strings.Join(diffs, ", ")
}

func samePlans(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// cellFrames encodes one cell's uplink frames for an epoch in the order
// the server queues them: demand reports, then channel updates.
func cellFrames(in epochInput, c int) ([][]byte, error) {
	var frames [][]byte
	for _, d := range in.demands[c] {
		f, err := d.Frame()
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
	if in.csi != nil {
		for _, u := range in.csi[c] {
			f, err := u.Frame()
			if err != nil {
				return nil, err
			}
			frames = append(frames, f)
		}
	}
	return frames, nil
}

// servicePricer mirrors the pricer a pncd cell gets from its wire solve
// spec (the host's default when the spec carries none).
func servicePricer(sp serviceSpec) (core.Options, *core.BranchBoundPricer) {
	opts := core.Options{}
	if sp.solve != nil {
		opts = sp.solve.ToOptions()
	}
	inner, _ := opts.Pricer.(*core.BranchBoundPricer)
	if inner == nil {
		inner = core.NewBranchBoundPricer(0)
		inner.Parallel = opts.PricerWorkers
	}
	return opts, inner
}

// hostReplay is the in-process replay: the run's cells admitted to a
// host of their own, checkpointing to a state directory like the
// server's, each with its pricer decorated.
type hostReplay struct {
	h     *host.Host
	reg   *obs.Registry
	dir   string
	sc    *scope
	cells []*host.Cell
	tps   []*tracedPricer
	last  [][]video.Demand // each cell's last scheduled demand
}

func openReplay(sp serviceSpec, nets []api.Network, rec *recorder) (*hostReplay, error) {
	dir, err := stateDir("replay-")
	if err != nil {
		return nil, err
	}
	rp := &hostReplay{reg: obs.NewRegistry(), dir: dir, sc: &scope{rec: rec}, last: make([][]video.Demand, len(nets))}
	rp.h = host.New(host.WithWorkers(1), host.WithMetrics(rp.reg), host.WithCheckpointDir(dir))
	for c := range nets {
		nw, err := modelNetwork(nets[c])
		if err != nil {
			rp.close()
			return nil, err
		}
		opts, inner := servicePricer(sp)
		tp := &tracedPricer{inner: inner, sc: rp.sc}
		opts.Pricer = tp
		specOpts := []host.SpecOption{host.SpecSolve(opts)}
		if sp.policy != nil {
			specOpts = append(specOpts, host.SpecPolicy(sp.policy.ToModel()))
		}
		cell, err := rp.h.Admit(host.NewSpec(nw, specOpts...))
		if err != nil {
			rp.close()
			return nil, err
		}
		rp.cells = append(rp.cells, cell)
		rp.tps = append(rp.tps, tp)
	}
	return rp, nil
}

func (rp *hostReplay) close() { os.RemoveAll(rp.dir) }

// replayEpoch steps one epoch's frames through the replay, one cell at
// a time, then does the step handler's remaining work (wire reports,
// JSON response) in a "report.encode" span, and requires the traced
// HTTP run's plans byte for byte.
func (st *serviceTrace) replayEpoch(res *result, rp *hostReplay, ep int, in epochInput) error {
	rp.sc.op = int64(ep + 1)
	reps := make([]*host.EpochReport, len(rp.cells))
	for c, cell := range rp.cells {
		frames, err := cellFrames(in, c)
		if err != nil {
			return err
		}
		st.hostStep += rp.sc.timed("host.step", func() {
			reps[c] = rp.h.Step(context.Background(), cell, func(*host.Cell, int64) [][]byte { return frames })
		})
		st.hostSteps++
	}
	var encErr error
	rp.sc.timed("report.encode", func() {
		var out api.StepResponse
		for _, rep := range reps {
			out.Reports = append(out.Reports, api.ReportFromHost(rep))
		}
		encErr = json.NewEncoder(io.Discard).Encode(out)
	})
	if encErr != nil {
		return encErr
	}
	for c, rep := range reps {
		res.Attempted++
		if rep.Outcome != host.OutcomeOK || rep.Result == nil {
			res.fail("replay epoch %d cell %d: outcome %v: %v", ep, c, rep.Outcome, rep.Err)
			continue
		}
		rp.last[c] = rep.Result.Demands
		var want []byte
		if i := ep*len(rp.cells) + c; i < len(st.traced.plans) {
			want = st.traced.plans[i]
		}
		if want == nil {
			res.fail("replay epoch %d cell %d: the HTTP run has no plan to compare with", ep, c)
			continue
		}
		got, err := json.Marshal(api.PlanFromModel(rep.Plan))
		if err != nil || !bytes.Equal(got, want) {
			res.fail("replay epoch %d cell %d: in-process plan differs from the HTTP run's", ep, c)
		}
	}
	return nil
}

// finishReplay reads the replay's counters and runs the standalone
// replays on each cell's final state.
func (st *serviceTrace) finishReplay(res *result, rp *hostReplay) error {
	for _, tp := range rp.tps {
		st.fam.pricer.add(tp.stats)
	}
	var buf bytes.Buffer
	if err := rp.reg.WriteText(&buf); err != nil {
		return err
	}
	counters := parseExposition(buf.String())
	st.fam.stats = statsFromCounters(counters)
	st.ckptWrites = counters["host_checkpoints_written_total"]
	st.fam.ops = st.hostSteps
	st.fam.enclosing = st.hostStep

	for c, cell := range rp.cells {
		if rp.last[c] != nil {
			st.replayCell(res, cell, rp.last[c], rp.dir)
		}
	}
	st.fam.other = st.rec.selfTimes()["host.step"] - st.fam.lpEstimate() - st.ckptEstimate()
	return nil
}

// replayCell runs the standalone replays on one cell's final state.
func (st *serviceTrace) replayCell(res *result, cell *host.Cell, demands []video.Demand, dir string) {
	coord := cell.Coordinator()
	nw := coord.Network
	if s := coord.ExportState(); s.Solver != nil && len(s.Solver.Schedules) > 1 {
		st.fam.poolSum += float64(len(s.Solver.Schedules))
		st.fam.poolN++
		lr, err := replayLP(nw, s.Solver.Schedules, s.SolverDemands, perRound(st.fam.stats))
		if err != nil {
			res.fail("cell %d: %v", cell.ID(), err)
		} else {
			st.fam.addLP(lr)
		}
	}
	plan, _, ok := cell.LastPlan()
	if !ok {
		return
	}
	nr, err := replayNetmodel(nw, plan)
	if err != nil {
		res.fail("cell %d: %v", cell.ID(), err)
	}
	st.fam.net.add(nr)
	d, err := replaySim(nw, plan, demands, 1e-3)
	if err != nil {
		res.fail("cell %d: %v", cell.ID(), err)
	} else {
		st.fam.simTime += d
		st.fam.sims++
	}

	snap := checkpoint.Capture(coord, nil)
	data, err := snap.Encode()
	if err != nil {
		res.fail("cell %d: checkpoint: %v", cell.ID(), err)
		return
	}
	st.ckptBytes = append(st.ckptBytes, float64(len(data)))
	path := filepath.Join(dir, fmt.Sprintf("save%d.ckpt", cell.ID()))
	d, err = medianTime(func() (time.Duration, error) {
		return timeCall(func() error { return checkpoint.Save(path, snap) })
	})
	if err != nil {
		res.fail("cell %d: checkpoint.Save: %v", cell.ID(), err)
	} else {
		st.ckptSave = append(st.ckptSave, ms(d))
	}

	// A cold P1 solve of the cell's final demand, the solve a CSI epoch
	// pays, timed through the solver's own entry points.
	_, inner := servicePricer(st.sp)
	var s *core.Solver
	newD, err := timeCall(func() (err error) {
		s, err = core.New(nw, demands, core.WithPricer(inner))
		return err
	})
	if err != nil {
		res.fail("cell %d: core.New: %v", cell.ID(), err)
		return
	}
	var r *core.Result
	solveD, err := timeCall(func() (err error) {
		r, err = s.Solve(context.Background())
		return err
	})
	if err != nil {
		res.fail("cell %d: core.Solve: %v", cell.ID(), err)
		return
	}
	if err := checkPlan(nw, r.Plan, demands); err != nil {
		res.fail("cell %d: cold re-solve: %v", cell.ID(), err)
	}
	st.fam.newTime += newD
	st.fam.solveTime += solveD
	st.fam.solves++
}

// ckptEstimate prices the replay's checkpoint writes at the replayed
// checkpoint.Save time.
func (st *serviceTrace) ckptEstimate() time.Duration {
	return time.Duration(st.ckptWrites * mean(st.ckptSave) * float64(time.Millisecond))
}

// serviceMetrics are the per-layer readings of the service stack.
func (st *serviceTrace) serviceMetrics() []metric {
	tot, n := st.rec.totals()
	self := st.rec.selfTimes()
	per := func(name string) float64 { return ratio(ms(tot[name]), float64(n[name])) }
	var transport time.Duration
	calls := 0
	for _, name := range []string{"api.submit", "api.step", "api.plan"} {
		transport += self[name]
		calls += n[name]
	}
	t := st.traced
	return []metric{
		{"pnc.warm_solve_ratio", ratio(float64(t.warm), float64(t.ok)), "ratio"},
		{"pnc.cg_iterations", ratio(float64(t.cgIters), float64(t.ok)), "count"},
		{"pnc.truncated_ratio", ratio(float64(t.truncated), float64(t.ok)), "ratio"},
		{"pnc.shed_bits", ratio(t.shed, float64(t.cellEpochs)), "bits"},
		{"host.step_ms", ratio(ms(st.hostStep), float64(st.hostSteps)), "ms"},
		{"host.ok_ratio", ratio(float64(t.ok), float64(t.cellEpochs)), "ratio"},
		{"checkpoint.bytes", mean(st.ckptBytes), "B"},
		{"checkpoint.save_ms", mean(st.ckptSave), "ms"},
		{"pncd.handler_ms.submit", per("pncd.submit"), "ms"},
		{"pncd.handler_ms.step", per("pncd.step"), "ms"},
		{"pncd.handler_ms.plan", per("pncd.plan"), "ms"},
		{"api.submit_ms", per("api.submit"), "ms"},
		{"api.step_ms", per("api.step"), "ms"},
		{"api.plan_ms", per("api.plan"), "ms"},
		{"api.transport_ms", ratio(ms(transport), float64(calls)), "ms"},
	}
}

// report fills a pncd workload's traced result: the per-layer metrics,
// the ladder per epoch, and the work counters. The top-level rungs
// partition the traced server's epochs; the step handler is broken down
// by the replay, which ran the same frames outside the server, and
// reconcile checks that the two agree.
func (st *serviceTrace) report(res *result) {
	res.Layers = append(st.fam.metrics(), st.serviceMetrics()...)
	res.Work = st.work
	self := st.rec.selfTimes()
	tot, _ := st.rec.totals()
	per := func(d time.Duration) float64 { return ms(d) / float64(st.epochs) }
	var transport time.Duration
	for _, name := range []string{"api.submit", "api.step", "api.plan"} {
		transport += self[name]
	}
	res.Ladder = []rung{
		{Name: "client loop", MS: per(self["epoch"])},
		{Name: "api transport + codec", MS: per(transport)},
		{Name: "pncd submit + plan handlers", MS: per(tot["pncd.submit"] + tot["pncd.plan"])},
		{Name: "pncd step handler", MS: per(tot["pncd.step"]), Whole: true},
		{Name: "host.Step (replay)", MS: per(tot["host.step"]), Depth: 1},
		{Name: "checkpoint.Save (replay estimate)", MS: per(st.ckptEstimate()), Depth: 2},
		{Name: "lp master solves (replay estimate)", MS: per(st.fam.lpEstimate()), Depth: 2},
		{Name: "pricer", MS: per(tot["pricer"]), Depth: 2},
		{Name: "report encode (replay)", MS: per(tot["report.encode"]), Depth: 1},
	}
	res.UntracedMS = mean(st.untraced.epochMS)
	res.TracedMS = mean(st.traced.epochMS)
	reconcile(res)
}
