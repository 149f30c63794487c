package main

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"mmwave/internal/api"
	"mmwave/internal/core"
	"mmwave/internal/experiment"
)

func TestPercentileTenBeyondRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p := percentile(xs, 0.9)
	if p.Value != 90 || p.N != 100 || p.Beyond != 10 || !p.OK {
		t.Fatalf("p90 of 1..100 = %+v, want 90 with 10 beyond", p)
	}
	if p := percentile(xs[:99], 0.9); p.OK {
		t.Fatalf("p90 of 99 samples has %d beyond, must not satisfy the rule", p.Beyond)
	}
	if p := percentile(xs, 0.99); p.OK || p.N != 100 {
		t.Fatalf("p99 of 100 samples = %+v, must fail the rule", p)
	}
	if tail := tailPercentile(xs); tail.Q != 0.9 {
		t.Fatalf("tail of 100 samples = p%g, want p90", 100*tail.Q)
	}
	big := make([]float64, 1000)
	if tail := tailPercentile(big); tail.Q != 0.99 || tail.N != 1000 {
		t.Fatalf("tail of 1000 samples = %+v, want p99", tail)
	}
	if p := percentile(nil, 0.5); p.OK || p.N != 0 {
		t.Fatalf("empty sample = %+v", p)
	}
}

// smallSpec is a quick exact workload for tests.
func smallSpec() solveSpec {
	cfg := experiment.DefaultConfig()
	cfg.NumLinks = 5
	cfg.NumChannels = 2
	return solveSpec{op: "proof", cfg: cfg, exact: true, stream: 99}
}

func solvedInstance(t *testing.T) (*experiment.Instance, *core.Result) {
	t.Helper()
	sp := smallSpec()
	insts, err := drawInstances(sp.cfg, 1, sp.stream, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := solveOne(sp, insts[0], &scope{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPlan(insts[0].Network, out.res.Plan, insts[0].Demands); err != nil {
		t.Fatalf("solver plan fails the check: %v", err)
	}
	return insts[0], out.res
}

// clonePlan deep-copies a plan so a test can corrupt it.
func clonePlan(p core.Plan) core.Plan {
	out := core.Plan{Tau: append([]float64(nil), p.Tau...), Objective: p.Objective}
	for _, s := range p.Schedules {
		out.Schedules = append(out.Schedules, s.Clone())
	}
	return out
}

func TestCheckPlanCatchesCorruption(t *testing.T) {
	in, res := solvedInstance(t)

	hot := clonePlan(res.Plan)
	hot.Schedules[0].Assignments[0].Power = 2 * in.Network.PMax
	if err := checkPlan(in.Network, hot, in.Demands); err == nil {
		t.Fatal("a column transmitting above PMax passed the check")
	}

	short := clonePlan(res.Plan)
	short.Tau[0] /= 2
	short.Objective -= short.Tau[0]
	if err := checkPlan(in.Network, short, in.Demands); err == nil {
		t.Fatal("a plan leaving a demand row unmet passed the check")
	}

	if err := simulate(in.Network, short, in.Demands, 1e-3); err == nil {
		t.Fatal("sim.Run served every demand of a short plan")
	}
}

func TestInputsArePureFunctionOfSeed(t *testing.T) {
	sp := smallSpec()
	a, _ := drawInstances(sp.cfg, 7, sp.stream, 4)
	b, _ := drawInstances(sp.cfg, 7, sp.stream, 4)
	c, _ := drawInstances(sp.cfg, 8, sp.stream, 4)
	if instanceDigest(a) != instanceDigest(b) {
		t.Fatal("same seed drew different instances")
	}
	if instanceDigest(a) == instanceDigest(c) {
		t.Fatal("different seeds drew identical instances")
	}

	svc := serviceSpec{cells: 2, cfg: sp.cfg, csiEvery: 2, load: pncdLoad(), stream: 5}
	encode := func(seed int64) string {
		nets, ins, err := serviceInputs(svc, seed, 6)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal([]any{nets, epochsJSON(ins)})
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}
	if encode(3) != encode(3) {
		t.Fatal("same seed produced different service inputs")
	}
	if encode(3) == encode(4) {
		t.Fatal("different seeds produced identical service inputs")
	}
}

func epochsJSON(ins []epochInput) []any {
	var out []any
	for _, in := range ins {
		out = append(out, []any{in.demands, in.csi})
	}
	return out
}

func TestFailedEpochKeepsOnePlanPerCell(t *testing.T) {
	p := &pass{ids: []int{0, 1, 2}}
	in := epochInput{demands: make([][]api.Demand, 3)}
	res := &result{}
	tl := &tally{}
	tl.check(res, p, 0, in, epochOut{err: errors.New("step: connection reset")})
	if len(tl.plans) != 3 || res.Failed != 3 || res.Attempted != 3 {
		t.Fatalf("failed epoch left %d plan entries, %d/%d failed", len(tl.plans), res.Failed, res.Attempted)
	}
	for i, pl := range tl.plans {
		if pl != nil {
			t.Fatalf("plan entry %d of a failed epoch is %q, want nil", i, pl)
		}
	}
}

func TestReconcileCatchesDisagreement(t *testing.T) {
	ladder := func(step, replay, encode, pricer float64) []rung {
		return []rung{
			{Name: "client", MS: 1},
			{Name: "step handler", MS: step, Whole: true},
			{Name: "host.Step (replay)", MS: replay, Depth: 1},
			{Name: "pricer", MS: pricer, Depth: 2},
			{Name: "encode (replay)", MS: encode, Depth: 1},
		}
	}
	for _, c := range []struct {
		name     string
		ladder   []rung
		untraced float64
		fails    int
	}{
		{"agrees", ladder(9, 8.5, 0.4, 5), 10.3, 0},
		{"rungs far from untraced", ladder(9, 8.5, 0.4, 5), 12, 1},
		{"replay short of the handler", ladder(9, 6, 0.4, 5), 10, 1},
		{"replay beyond the handler", ladder(9, 10, 0.4, 5), 10, 1},
		{"estimate beyond its rung", ladder(9, 8.5, 0.4, 9.5), 10, 1},
	} {
		res := &result{Op: "epoch", Ladder: c.ladder, UntracedMS: c.untraced}
		reconcile(res)
		if res.Failed != c.fails {
			t.Errorf("%s: %d failed checks %q, want %d", c.name, res.Failed, res.Failures, c.fails)
		}
	}
}

func TestPricerDecoratorLeavesStatsIdentical(t *testing.T) {
	sp := smallSpec()
	insts, err := drawInstances(sp.cfg, 3, sp.stream, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range insts {
		plain, err := solveOne(sp, in, &scope{})
		if err != nil {
			t.Fatal(err)
		}
		traced, err := solveOne(sp, in, &scope{rec: newRecorder()})
		if err != nil {
			t.Fatal(err)
		}
		if plain.res.Stats != traced.res.Stats {
			t.Fatalf("instance %d: stats %+v decorated vs %+v plain", i, traced.res.Stats, plain.res.Stats)
		}
		if !reflect.DeepEqual(plain.res.Plan, traced.res.Plan) {
			t.Fatalf("instance %d: decorated solve returned a different plan", i)
		}
		if traced.pricer.Calls == 0 || int64(plain.res.Probes) < traced.pricer.Probes {
			t.Fatalf("instance %d: decorator saw %+v against %d solver probes", i, traced.pricer, plain.res.Probes)
		}
	}
	// The decorator must also forward a plain Price call unchanged.
	tp := &tracedPricer{inner: sp.pricer(), sc: &scope{}}
	lambda := [][]float64{make([]float64, insts[0].Network.NumLinks()), make([]float64, insts[0].Network.NumLinks())}
	for l := range lambda[0] {
		lambda[0][l] = 1e-7
	}
	got, err := tp.Price(insts[0].Network, lambda)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sp.pricer().PriceContext(context.Background(), insts[0].Network, lambda)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != want.Value || got.Probes != want.Probes || got.Nodes != want.Nodes {
		t.Fatalf("decorated price %+v, plain %+v", got, want)
	}
}
