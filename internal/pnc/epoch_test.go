package pnc

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"mmwave/internal/core"
	"mmwave/internal/faults"
	"mmwave/internal/video"
)

// report marshals and ingests one demand report through the lossy path.
func report(t *testing.T, c *Coordinator, link int, d video.Demand) error {
	t.Helper()
	frame, err := DemandReport{Link: uint16(link), Demand: d}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return c.IngestLossy(frame)
}

func mustInjector(t *testing.T, cfg faults.Config, numLinks int) *faults.Injector {
	t.Helper()
	in, err := faults.New(cfg, numLinks)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestRunEpochContextNoFaultIdentical: with a nil injector and the
// zero-value policy, an epoch under a live, cancelable context must
// reproduce the background-context epoch byte for byte — a context
// that never fires changes nothing.
func TestRunEpochContextNoFaultIdentical(t *testing.T) {
	demands := []video.Demand{{4e6, 2e6}, {3e6, 1e6}, {5e6, 2e6}, {2e6, 1e6}}

	run := func(ctx context.Context) *EpochResult {
		nw := testNetwork(t, 5, 4, 3)
		c, err := NewCoordinator(nw, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for l, d := range demands {
			frame, err := DemandReport{Link: uint16(l), Demand: d}.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Ingest(frame); err != nil {
				t.Fatal(err)
			}
		}
		res, err := c.RunEpoch(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	a, b := run(context.Background()), run(live)
	if a.Plan.Objective != b.Plan.Objective {
		t.Fatalf("objectives differ: %v vs %v", a.Plan.Objective, b.Plan.Objective)
	}
	if !reflect.DeepEqual(a.Grants, b.Grants) {
		t.Fatal("encoded grants differ between background and live contexts")
	}
	if a.ControlSeconds != b.ControlSeconds || a.ControlMessages != b.ControlMessages {
		t.Fatal("control accounting differs")
	}
	if a.Degraded || a.TruncatedSolve || a.DroppedGrants != 0 || a.Retries != 0 ||
		len(a.StaleLinks)+len(a.ExpiredLinks)+len(a.DeferredLinks) != 0 {
		t.Fatalf("fault-free epoch reports degradation: %+v", a)
	}
	if a.StalenessError() != nil {
		t.Fatal("fault-free epoch reports staleness")
	}
}

// TestLostReportFallsBackToLastGood: a link whose report is lost is
// scheduled from its last-known-good demand with staleness decay, and
// dropped once the fallback ages out (ErrStaleState).
func TestLostReportFallsBackToLastGood(t *testing.T) {
	nw := testNetwork(t, 5, 4, 3)
	c, err := NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Policy = DegradePolicy{MaxRetries: 2, RetryBackoff: 1e-3, StalenessLimit: 2, StalenessDecay: 0.8}

	demands := []video.Demand{{4e6, 2e6}, {3e6, 1e6}, {5e6, 2e6}, {2e6, 1e6}}

	// Epoch 1: everyone reports cleanly.
	for l, d := range demands {
		if err := report(t, c, l, d); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StaleLinks) != 0 {
		t.Fatalf("epoch 1 stale links: %v", res.StaleLinks)
	}

	// Epoch 2: link 2's report is lost for good (loss rate 1 defeats
	// every retry); the rest report fine.
	c.Faults = mustInjector(t, faults.Config{CtrlLoss: 1, Seed: 9}, nw.NumLinks())
	if err := report(t, c, 2, demands[2]); !errors.Is(err, ErrControlLoss) {
		t.Fatalf("lost report error = %v, want ErrControlLoss", err)
	}
	c.Faults = nil
	for _, l := range []int{0, 1, 3} {
		if err := report(t, c, l, demands[l]); err != nil {
			t.Fatal(err)
		}
	}
	res, err = c.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.StaleLinks, []int{2}) {
		t.Fatalf("epoch 2 stale links = %v, want [2]", res.StaleLinks)
	}
	if res.Retries != 2 || res.LostFrames != 1 {
		t.Fatalf("epoch 2 retries/lost = %d/%d, want 2/1", res.Retries, res.LostFrames)
	}
	if res.BackoffSeconds != 1e-3+2e-3 {
		t.Fatalf("epoch 2 backoff = %v, want 3ms", res.BackoffSeconds)
	}
	// One stale epoch: decayed once.
	want := demands[2].Scale(0.8)
	if math.Abs(res.Demands[2].At(0)-want.At(0)) > 1 || math.Abs(res.Demands[2].At(1)-want.At(1)) > 1 {
		t.Fatalf("epoch 2 link-2 demand = %v, want %v", res.Demands[2], want)
	}

	// Epoch 3: still silent — decayed twice.
	for _, l := range []int{0, 1, 3} {
		if err := report(t, c, l, demands[l]); err != nil {
			t.Fatal(err)
		}
	}
	res, err = c.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want = demands[2].Scale(0.8 * 0.8)
	if math.Abs(res.Demands[2].At(0)-want.At(0)) > 1 || math.Abs(res.Demands[2].At(1)-want.At(1)) > 1 {
		t.Fatalf("epoch 3 link-2 demand = %v, want %v", res.Demands[2], want)
	}

	// Epoch 4: fallback aged out — the link is dropped and flagged.
	for _, l := range []int{0, 1, 3} {
		if err := report(t, c, l, demands[l]); err != nil {
			t.Fatal(err)
		}
	}
	res, err = c.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.ExpiredLinks, []int{2}) {
		t.Fatalf("epoch 4 expired links = %v, want [2]", res.ExpiredLinks)
	}
	if res.Demands[2].Total() != 0 {
		t.Fatalf("expired link still scheduled: %v", res.Demands[2])
	}
	if err := res.StalenessError(); !errors.Is(err, ErrStaleState) {
		t.Fatalf("staleness error = %v, want ErrStaleState", err)
	}
}

// TestCorruptedReportHandled: full corruption either delivers a
// decodable-but-wrong frame or exhausts retries; the coordinator never
// panics and still produces a feasible epoch.
func TestCorruptedReportHandled(t *testing.T) {
	nw := testNetwork(t, 5, 4, 3)
	c, err := NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Policy = DefaultDegradePolicy()
	c.Faults = mustInjector(t, faults.Config{CtrlCorrupt: 1, Seed: 3}, nw.NumLinks())

	demands := []video.Demand{{4e6, 2e6}, {3e6, 1e6}, {5e6, 2e6}, {2e6, 1e6}}
	for l, d := range demands {
		if err := report(t, c, l, d); err != nil && !errors.Is(err, ErrControlLoss) {
			t.Fatalf("corrupted report error = %v, want nil or ErrControlLoss", err)
		}
	}
	c.Faults = nil
	res, err := c.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Objective < 0 {
		t.Fatalf("bad objective %v", res.Plan.Objective)
	}
}

// TestDelayedReportAppliesNextEpoch: a delayed frame misses its epoch
// but is applied at the next boundary without double-charging airtime.
func TestDelayedReportAppliesNextEpoch(t *testing.T) {
	nw := testNetwork(t, 5, 4, 3)
	c, err := NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Policy = DefaultDegradePolicy()
	c.Faults = mustInjector(t, faults.Config{CtrlDelay: 1, Seed: 4}, nw.NumLinks())

	d := video.TwoClass(4e6, 2e6)
	msgsBefore := c.Control.Messages()
	if err := report(t, c, 1, d); err != nil {
		t.Fatal(err)
	}
	if got := c.Control.Messages() - msgsBefore; got != 1 {
		t.Fatalf("delayed frame charged %d messages, want 1", got)
	}
	c.Faults = nil

	// Epoch 1: the report is in flight; link 1 has no demand and no
	// last-known-good, so it schedules nothing.
	res, err := c.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Demands[1].Total() != 0 {
		t.Fatalf("in-flight report already scheduled: %v", res.Demands[1])
	}

	// Epoch 2: the delayed frame lands at the boundary.
	res, err = c.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Demands[1].At(0) != d.At(0) || res.Demands[1].At(1) != d.At(1) {
		t.Fatalf("delayed report not applied: got %v, want %v", res.Demands[1], d)
	}
	if len(res.StaleLinks) != 0 {
		t.Fatalf("delayed delivery flagged stale: %v", res.StaleLinks)
	}
}

// TestDroppedGrants: a fully lossy downlink drops every grant after
// retries; the plan still stands but Grants is empty and counted.
func TestDroppedGrants(t *testing.T) {
	nw := testNetwork(t, 5, 4, 3)
	c, err := NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Policy = DegradePolicy{MaxRetries: 1, RetryBackoff: 1e-3}

	demands := []video.Demand{{4e6, 2e6}, {3e6, 1e6}, {5e6, 2e6}, {2e6, 1e6}}
	for l, d := range demands {
		if err := report(t, c, l, d); err != nil {
			t.Fatal(err)
		}
	}
	c.Faults = mustInjector(t, faults.Config{CtrlLoss: 1, Seed: 5}, nw.NumLinks())
	res, err := c.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Grants) != 0 {
		t.Fatalf("%d grants delivered over a dead downlink", len(res.Grants))
	}
	if res.DroppedGrants != len(res.Plan.Schedules) {
		t.Fatalf("dropped %d grants, want %d", res.DroppedGrants, len(res.Plan.Schedules))
	}
	if len(res.Plan.Schedules) == 0 || res.Plan.Objective <= 0 {
		t.Fatal("plan lost along with the grants")
	}
}

// TestShedLPBeforeHP: an epoch budget between the HP-only and full
// solve times sheds only LP; a budget below the HP-only time sheds all
// LP and scales HP down — never the other order.
func TestShedLPBeforeHP(t *testing.T) {
	nw := testNetwork(t, 5, 4, 3)
	demands := []video.Demand{{4e6, 4e6}, {3e6, 3e6}, {5e6, 5e6}, {2e6, 2e6}}

	// Reference solves for the two pivot objectives.
	solveFor := func(ds []video.Demand) float64 {
		s, err := core.NewSolver(nw, ds, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Plan.Objective
	}
	full := solveFor(demands)
	hpOnly := make([]video.Demand, len(demands))
	for l, d := range demands {
		hpOnly[l] = video.TwoClass(d.At(0), 0)
	}
	hpTime := solveFor(hpOnly)
	if hpTime >= full {
		t.Fatalf("degenerate instance: hp %v >= full %v", hpTime, full)
	}

	runWithBudget := func(budget float64) *EpochResult {
		c, err := NewCoordinator(nw, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		c.Policy = DegradePolicy{EpochBudget: budget}
		for l, d := range demands {
			if err := report(t, c, l, d); err != nil {
				t.Fatal(err)
			}
		}
		res, err := c.RunEpoch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Budget between the pivots: LP shed, HP untouched.
	res := runWithBudget((hpTime + full) / 2)
	if !res.Degraded {
		t.Fatal("over-budget epoch not flagged degraded")
	}
	if res.ShedLPBits <= 0 || res.ShedHPBits != 0 {
		t.Fatalf("mid-budget shed LP=%v HP=%v, want LP>0 HP=0", res.ShedLPBits, res.ShedHPBits)
	}
	for l := range demands {
		if res.Demands[l].At(0) != demands[l].At(0) {
			t.Fatalf("link %d HP reduced to %v while LP remained sheddable", l, res.Demands[l].At(0))
		}
		if res.Demands[l].At(1) >= demands[l].At(1) {
			t.Fatalf("link %d LP not shed: %v", l, res.Demands[l].At(1))
		}
	}
	if res.Plan.Objective > (hpTime+full)/2*(1+1e-6) {
		t.Fatalf("shed plan %v still over budget %v", res.Plan.Objective, (hpTime+full)/2)
	}

	// Budget below even HP-only: all LP gone, HP scaled.
	res = runWithBudget(hpTime * 0.7)
	if res.ShedHPBits <= 0 {
		t.Fatal("sub-HP budget shed no HP")
	}
	var lpLeft float64
	for l := range demands {
		lpLeft += res.Demands[l].At(1)
		if res.Demands[l].At(0) >= demands[l].At(0) {
			t.Fatalf("link %d HP not scaled: %v", l, res.Demands[l].At(0))
		}
	}
	if lpLeft != 0 {
		t.Fatalf("HP was scaled while %v LP bits survived", lpLeft)
	}
}

// TestEpochSolveBudgetTruncates: a tiny solve budget yields an anytime
// plan flagged TruncatedSolve, not an error.
func TestEpochSolveBudgetTruncates(t *testing.T) {
	nw := testNetwork(t, 5, 6, 3)
	c, err := NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Policy = DegradePolicy{SolveBudget: 1} // 1 ns: cancels immediately
	for l := 0; l < nw.NumLinks(); l++ {
		if err := report(t, c, l, video.TwoClass(4e6, 2e6)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.RunEpoch(context.Background())
	if err != nil {
		t.Fatalf("budgeted epoch returned error %v, want anytime plan", err)
	}
	if !res.TruncatedSolve {
		t.Fatal("1ns solve budget did not truncate")
	}
	if res.Plan.Objective <= 0 || len(res.Grants) == 0 {
		t.Fatal("truncated epoch produced no usable plan")
	}
}

// TestDegradePolicyValidate: Validate refuses each hostile field and
// accepts the zero, default and capped policies.
func TestDegradePolicyValidate(t *testing.T) {
	for name, p := range map[string]DegradePolicy{
		"zero":    {},
		"default": DefaultDegradePolicy(),
		"capped":  {MaxRetries: MaxRetriesCap, RetryBackoff: 1, StalenessDecay: 1, StalenessDecayByClass: []float64{0, 1}},
		"budgets": {EpochBudget: 0.5, SolveBudget: time.Second},
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s policy refused: %v", name, err)
		}
	}
	for name, p := range map[string]DegradePolicy{
		"negative retries":      {MaxRetries: -1},
		"retries over the cap":  {MaxRetries: MaxRetriesCap + 1},
		"huge retries":          {MaxRetries: 1 << 40},
		"negative staleness":    {StalenessLimit: -1},
		"negative backoff":      {RetryBackoff: -1e-3},
		"NaN backoff":           {RetryBackoff: math.NaN()},
		"infinite backoff":      {RetryBackoff: math.Inf(1)},
		"negative epoch budget": {EpochBudget: -1},
		"infinite epoch budget": {EpochBudget: math.Inf(1)},
		"negative solve budget": {SolveBudget: -time.Millisecond},
		"negative decay":        {StalenessDecay: -1},
		"decay above one":       {StalenessDecay: 1.5},
		"NaN decay":             {StalenessDecay: math.NaN()},
		"negative class decay":  {StalenessDecayByClass: []float64{1, -0.5}},
		"class decay above one": {StalenessDecayByClass: []float64{2}},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: %+v accepted", name, p)
		}
	}
}
