package core

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"mmwave/internal/obs"
)

// TestTracingDoesNotChangePlan pins the obs invariant that matters
// most: attaching a tracer (and a metrics registry) must leave the
// solver's walk — plan, bounds, telemetry, counters — byte-identical
// to an untraced solve, while actually recording the per-iteration
// events.
func TestTracingDoesNotChangePlan(t *testing.T) {
	for _, nLinks := range []int{4, 6, 8} {
		rng := rand.New(rand.NewSource(int64(nLinks)))
		nw := servableNetwork(rng, nLinks, 3)
		demands := uniformDemands(nLinks, 4e6, 2e6)

		plain, err := NewSolver(nw, demands, Options{})
		if err != nil {
			t.Fatal(err)
		}
		resPlain, err := plain.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}

		var buf bytes.Buffer
		sink := obs.NewJSONLSink(&buf)
		traced, err := NewSolver(nw, demands, Options{
			Tracer:  obs.New(sink),
			Metrics: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		resTraced, err := traced.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}

		if resPlain.Plan.Objective != resTraced.Plan.Objective {
			t.Fatalf("L=%d: objectives differ with tracing: %v vs %v",
				nLinks, resPlain.Plan.Objective, resTraced.Plan.Objective)
		}
		if !reflect.DeepEqual(resPlain.Plan.Tau, resTraced.Plan.Tau) {
			t.Fatalf("L=%d: tau vectors differ with tracing", nLinks)
		}
		for i := range resPlain.Plan.Schedules {
			if !reflect.DeepEqual(resPlain.Plan.Schedules[i].Assignments, resTraced.Plan.Schedules[i].Assignments) {
				t.Fatalf("L=%d: schedule %d differs with tracing", nLinks, i)
			}
		}
		if !reflect.DeepEqual(resPlain.Iterations, resTraced.Iterations) {
			t.Fatalf("L=%d: iteration telemetry differs with tracing", nLinks)
		}
		if resPlain.Stats != resTraced.Stats {
			t.Fatalf("L=%d: stats differ with tracing: %+v vs %+v",
				nLinks, resPlain.Stats, resTraced.Stats)
		}

		// The trace must actually contain one cg.iteration event per
		// iteration, carrying the telemetry the Result records.
		events, err := obs.DecodeJSONL(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("L=%d: trace is not valid JSONL: %v", nLinks, err)
		}
		var iters []obs.Event
		for _, e := range events {
			if e.Name == "cg.iteration" {
				iters = append(iters, e)
			}
		}
		if len(iters) != len(resTraced.Iterations) {
			t.Fatalf("L=%d: %d cg.iteration events for %d iterations",
				nLinks, len(iters), len(resTraced.Iterations))
		}
		for i, e := range iters {
			st := resTraced.Iterations[i]
			if e.Iter != st.Iter || e.Phi != st.Phi || e.Upper != st.Upper ||
				e.Lower != st.Lower || e.Pool != st.PoolSize {
				t.Fatalf("L=%d: event %d = %+v does not match IterationStat %+v", nLinks, i, e, st)
			}
		}
	}
}

// TestMetricsPublished: a solve folds its Stats into the registry under
// the core prefix.
func TestMetricsPublished(t *testing.T) {
	// 6 links: large enough that the pricer's greedy seed does not prune
	// the whole search, so the probe counter is exercised too.
	rng := rand.New(rand.NewSource(7))
	nw := servableNetwork(rng, 6, 3)
	demands := uniformDemands(6, 4e6, 2e6)

	reg := obs.NewRegistry()
	// The classic exact walk (one column per round, exact pricing
	// every round) on purpose: this test checks the metric plumbing,
	// and that walk takes 16 rounds, 3 probes and 57 pivots here, so
	// probes, pivots and master solves are all nonzero.
	exact := NewBranchBoundPricer(1 << 40)
	exact.PoolLeaves = 0
	s, err := NewSolver(nw, demands, Options{Metrics: reg, Pricer: exact})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]int{
		"core_cg_rounds_total":     res.Rounds,
		"core_probes_total":        res.Probes,
		"core_master_solves_total": res.MasterSolves,
		"core_lp_pivots_total":     res.LPPivots,
		// The sparse master applies product-form eta updates between
		// refactorizations; the counter must round-trip like the rest.
		"core_lp_ft_updates_total":       res.LPEtaUpdates,
		"core_lp_refactorizations_total": res.LPRefactorizations,
	}
	for name, want := range checks {
		if got := reg.Counter(name).Value(); got != int64(want) {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if res.MasterSolves == 0 || res.Probes == 0 || res.LPPivots == 0 {
		t.Fatalf("degenerate solve left counters empty: %+v", res.Stats)
	}
}

// TestQualityTracing: QualitySolver emits cg.iteration events through
// the same path and its plan is identical with tracing on and off.
func TestQualityTracing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nw := servableNetwork(rng, 4, 3)
	demands := uniformDemands(4, 4e6, 2e6)

	plain, err := NewQualitySolver(nw, demands, 0.01, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resPlain, err := plain.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	traced, err := NewQualitySolver(nw, demands, 0.01, nil, Options{Tracer: obs.New(sink)})
	if err != nil {
		t.Fatal(err)
	}
	resTraced, err := traced.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	if resPlain.Quality != resTraced.Quality || !reflect.DeepEqual(resPlain.Plan.Tau, resTraced.Plan.Tau) {
		t.Fatalf("quality plan differs with tracing: %v vs %v", resPlain.Quality, resTraced.Quality)
	}
	events, err := obs.DecodeJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range events {
		if e.Name == "cg.iteration" {
			n++
		}
	}
	if n == 0 {
		t.Fatal("quality solve emitted no cg.iteration events")
	}
}
