package sim

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"mmwave/internal/channel"
	"mmwave/internal/faults"
	"mmwave/internal/geom"
	"mmwave/internal/netmodel"
	"mmwave/internal/schedule"
	"mmwave/internal/video"
)

// testNetwork builds an interference-free network: unit direct gains,
// zero cross gains, so any set of single-link schedules is feasible.
func testNetwork(nLinks, nChannels int) *netmodel.Network {
	g := &channel.Gains{
		Direct: make([][]float64, nLinks),
		Cross:  make([][][]float64, nLinks),
	}
	for i := 0; i < nLinks; i++ {
		g.Direct[i] = make([]float64, nChannels)
		for k := 0; k < nChannels; k++ {
			g.Direct[i][k] = 1
		}
		g.Cross[i] = make([][]float64, nLinks)
		for j := 0; j < nLinks; j++ {
			g.Cross[i][j] = make([]float64, nChannels)
		}
	}
	links := make([]netmodel.Link, nLinks)
	noise := make([]float64, nLinks)
	for i := range links {
		links[i] = netmodel.Link{TXNode: 2 * i, RXNode: 2*i + 1}
		noise[i] = 0.1
	}
	return &netmodel.Network{
		Links:       links,
		NumChannels: nChannels,
		Gains:       g,
		Noise:       noise,
		PMax:        1,
		Rates:       netmodel.NewShannonRateTable(1e6, []float64{0.1, 0.5}), // rates ≈ 137.5k, 585k bits/s
		BandwidthHz: 1e6,
	}
}

// fixedPolicy always returns the same schedule.
type fixedPolicy struct {
	s *schedule.Schedule
}

func (p fixedPolicy) Name() string { return "fixed" }
func (p fixedPolicy) Decide(*netmodel.Network, *Remaining, int) (*schedule.Schedule, error) {
	return p.s, nil
}

func TestRunSingleLink(t *testing.T) {
	nw := testNetwork(1, 1)
	rate := nw.Rates.Rates[1]
	demands := []video.Demand{{rate * 0.01, 0}} // exactly 10 slots at 1 ms
	s := &schedule.Schedule{Assignments: []schedule.Assignment{
		{Link: 0, Channel: 0, Level: 1, Layer: schedule.HP, Power: 0.1},
	}}
	exec, err := Run(nw, demands, fixedPolicy{s}, Options{SlotDuration: 1e-3, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Slots != 10 {
		t.Errorf("slots = %d, want 10", exec.Slots)
	}
	if math.Abs(exec.TotalTime-0.010) > 1e-12 {
		t.Errorf("total time = %v, want 0.01", exec.TotalTime)
	}
	if math.Abs(exec.Completion[0]-0.010) > 1e-12 {
		t.Errorf("completion = %v, want 0.01", exec.Completion[0])
	}
	if math.Abs(exec.ServedAt(0, 0)-demands[0].At(0)) > 1e-6 {
		t.Errorf("served %v, want %v", exec.ServedAt(0, 0), demands[0].At(0))
	}
}

func TestRunZeroDemand(t *testing.T) {
	nw := testNetwork(2, 1)
	demands := []video.Demand{{}, {}}
	exec, err := Run(nw, demands, fixedPolicy{nil}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Slots != 0 || exec.TotalTime != 0 {
		t.Errorf("zero-demand run consumed %d slots", exec.Slots)
	}
	if exec.Completion[0] != 0 || exec.Completion[1] != 0 {
		t.Error("zero-demand links should complete at t=0")
	}
}

func TestRunStalledPolicy(t *testing.T) {
	nw := testNetwork(1, 1)
	demands := []video.Demand{{1e6, 0}}
	_, err := Run(nw, demands, fixedPolicy{nil}, Options{})
	if !errors.Is(err, ErrStalled) {
		t.Errorf("err = %v, want ErrStalled", err)
	}
}

func TestRunSlotLimit(t *testing.T) {
	nw := testNetwork(2, 1)
	// Policy serves only link 0; link 1's demand never drains.
	s := &schedule.Schedule{Assignments: []schedule.Assignment{
		{Link: 0, Channel: 0, Level: 0, Layer: schedule.HP, Power: 0.1},
	}}
	demands := []video.Demand{{1e3, 0}, {1e12, 0}}
	_, err := Run(nw, demands, fixedPolicy{s}, Options{MaxSlots: 50})
	if !errors.Is(err, ErrSlotLimit) {
		t.Errorf("err = %v, want ErrSlotLimit", err)
	}
}

func TestRunValidateRejectsBadSchedule(t *testing.T) {
	nw := testNetwork(1, 1)
	demands := []video.Demand{{1e6, 0}}
	bad := &schedule.Schedule{Assignments: []schedule.Assignment{
		{Link: 0, Channel: 0, Level: 1, Layer: schedule.HP, Power: 1e-9}, // SINR below γ
	}}
	_, err := Run(nw, demands, fixedPolicy{bad}, Options{Validate: true})
	if err == nil {
		t.Error("invalid schedule accepted under Validate")
	}
}

func TestRunDemandCountMismatch(t *testing.T) {
	nw := testNetwork(2, 1)
	if _, err := Run(nw, []video.Demand{{}}, fixedPolicy{nil}, Options{}); err == nil {
		t.Error("want error for demand count mismatch")
	}
}

func TestPlanPolicyReplay(t *testing.T) {
	nw := testNetwork(2, 2)
	rate := nw.Rates.Rates[1]
	// Two plan entries: a 2-link parallel schedule for 5 ms, then a
	// single-link schedule for 3 ms.
	wide := &schedule.Schedule{Assignments: []schedule.Assignment{
		{Link: 0, Channel: 0, Level: 1, Layer: schedule.HP, Power: 0.1},
		{Link: 1, Channel: 1, Level: 1, Layer: schedule.HP, Power: 0.1},
	}}
	narrow := &schedule.Schedule{Assignments: []schedule.Assignment{
		{Link: 1, Channel: 1, Level: 1, Layer: schedule.HP, Power: 0.1},
	}}
	demands := []video.Demand{
		{rate * 0.005, 0},
		{rate * 0.008, 0},
	}
	// Deliberately pass the narrow schedule first: the policy must
	// reorder to run the widest first.
	policy, err := NewPlanPolicy(
		[]*schedule.Schedule{narrow, wide},
		[]float64{0.003, 0.005},
		1e-3,
	)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := Run(nw, demands, policy, Options{SlotDuration: 1e-3, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Slots != 8 {
		t.Errorf("slots = %d, want 8 (5 wide + 3 narrow)", exec.Slots)
	}
	if math.Abs(exec.Completion[0]-0.005) > 1e-12 {
		t.Errorf("link0 completion = %v, want 0.005 (finished during wide phase)", exec.Completion[0])
	}
	if math.Abs(exec.Completion[1]-0.008) > 1e-12 {
		t.Errorf("link1 completion = %v, want 0.008", exec.Completion[1])
	}
}

func TestPlanPolicySkipsUselessEntries(t *testing.T) {
	nw := testNetwork(1, 1)
	rate := nw.Rates.Rates[1]
	s := &schedule.Schedule{Assignments: []schedule.Assignment{
		{Link: 0, Channel: 0, Level: 1, Layer: schedule.LP, Power: 0.1},
	}}
	// Plan allots far more time than the demand needs; the executor
	// must stop at demand completion, not plan exhaustion.
	policy, err := NewPlanPolicy([]*schedule.Schedule{s}, []float64{1.0}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	demands := []video.Demand{{0, rate * 0.002}}
	exec, err := Run(nw, demands, policy, Options{SlotDuration: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Slots != 2 {
		t.Errorf("slots = %d, want 2", exec.Slots)
	}
}

func TestPlanPolicyErrors(t *testing.T) {
	if _, err := NewPlanPolicy(make([]*schedule.Schedule, 2), []float64{1}, 1e-3); err == nil {
		t.Error("want error for length mismatch")
	}
	if _, err := NewPlanPolicy(nil, nil, 0); err == nil {
		t.Error("want error for zero slot duration")
	}
}

func TestPlanPolicyName(t *testing.T) {
	p := &PlanPolicy{}
	if p.Name() != "proposed" {
		t.Errorf("default name = %q", p.Name())
	}
	p.Label = "custom"
	if p.Name() != "custom" {
		t.Errorf("labeled name = %q", p.Name())
	}
}

func TestRemaining(t *testing.T) {
	r := &Remaining{ByClass: [][]float64{{0, 5}, {0, 0}}}
	if !r.Done(0) || r.Done(1) {
		t.Error("Done mismatch")
	}
	if r.AllDone() {
		t.Error("AllDone should be false")
	}
	if r.Total() != 5 {
		t.Errorf("Total = %v, want 5", r.Total())
	}
	r.ByClass[0][1] = -1 // overshoot counts as done, not negative work
	if !r.AllDone() || r.Total() != 0 {
		t.Error("overshoot handling wrong")
	}
}

func TestAverageDelay(t *testing.T) {
	e := &Execution{Completion: []float64{1, 2, 3}}
	if d := e.AverageDelay(); math.Abs(d-2) > 1e-12 {
		t.Errorf("AverageDelay = %v, want 2", d)
	}
	var empty Execution
	if empty.AverageDelay() != 0 {
		t.Error("empty execution delay should be 0")
	}
}

func TestLayerAccounting(t *testing.T) {
	// A link with HP and LP demand served by two plan entries, one per
	// layer: the executor must account layers separately.
	nw := testNetwork(1, 1)
	rate := nw.Rates.Rates[0]
	hpS := &schedule.Schedule{Assignments: []schedule.Assignment{
		{Link: 0, Channel: 0, Level: 0, Layer: schedule.HP, Power: 0.05},
	}}
	lpS := &schedule.Schedule{Assignments: []schedule.Assignment{
		{Link: 0, Channel: 0, Level: 0, Layer: schedule.LP, Power: 0.05},
	}}
	demands := []video.Demand{{rate * 0.004, rate * 0.002}}
	policy, err := NewPlanPolicy([]*schedule.Schedule{hpS, lpS}, []float64{0.004, 0.002}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := Run(nw, demands, policy, Options{SlotDuration: 1e-3, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Slots != 6 {
		t.Errorf("slots = %d, want 6", exec.Slots)
	}
	if math.Abs(exec.ServedAt(0, 0)-demands[0].At(0)) > 1 || math.Abs(exec.ServedAt(1, 0)-demands[0].At(1)) > 1 {
		t.Errorf("served HP/LP = %v/%v, want %v/%v",
			exec.ServedAt(0, 0), exec.ServedAt(1, 0), demands[0].At(0), demands[0].At(1))
	}
}

// randomNetwork for integration-style randomized policy tests.
func randomNetwork(rng *rand.Rand, nLinks, nChannels int) *netmodel.Network {
	room := geom.Room{Width: 20, Height: 20}
	segs := room.PlaceLinks(rng, nLinks, 1, 5)
	gains := channel.TableI{}.Generate(rng, segs, nChannels)
	links := make([]netmodel.Link, nLinks)
	noise := make([]float64, nLinks)
	for i := range links {
		links[i] = netmodel.Link{TXNode: 2 * i, RXNode: 2*i + 1, Seg: segs[i]}
		noise[i] = 0.1
	}
	return &netmodel.Network{
		Links:       links,
		NumChannels: nChannels,
		Gains:       gains,
		Noise:       noise,
		PMax:        1,
		Rates:       netmodel.NewShannonRateTable(200e6, []float64{0.1, 0.2, 0.3, 0.4, 0.5}),
		BandwidthHz: 200e6,
	}
}

func TestCeilDiv(t *testing.T) {
	tests := []struct {
		a, b float64
		want float64
	}{
		{1, 1, 1},
		{1.0000000001, 1, 1}, // roundoff tolerance
		{1.5, 1, 2},
		{0, 1, 0},
		{0.003, 0.001, 3},
	}
	for _, tc := range tests {
		if got := ceilDiv(tc.a, tc.b); got != tc.want {
			t.Errorf("ceilDiv(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestRandomNetworkSmoke(t *testing.T) {
	// Keep the randomized fixture honest: it must validate.
	nw := randomNetwork(rand.New(rand.NewSource(1)), 5, 2)
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlineTruncatesRun(t *testing.T) {
	nw := testNetwork(1, 1)
	rate := nw.Rates.Rates[1]
	s := &schedule.Schedule{Assignments: []schedule.Assignment{
		{Link: 0, Channel: 0, Level: 1, Layer: schedule.HP, Power: 0.1},
	}}
	demands := []video.Demand{{rate * 0.020, 0}} // needs 20 ms
	exec, err := Run(nw, demands, fixedPolicy{s}, Options{
		SlotDuration: 1e-3,
		Deadline:     0.005, // but only 5 ms of air time
	})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Slots != 5 {
		t.Errorf("slots = %d, want 5", exec.Slots)
	}
	want := rate * 0.005
	if math.Abs(exec.ServedAt(0, 0)-want) > 1 {
		t.Errorf("served %v, want %v", exec.ServedAt(0, 0), want)
	}
	// Unfinished link's completion clamps to the deadline boundary.
	if math.Abs(exec.Completion[0]-0.005) > 1e-12 {
		t.Errorf("completion = %v, want 0.005", exec.Completion[0])
	}
}

func TestDeadlineToleratesPlanExhaustion(t *testing.T) {
	// A plan that ends before the deadline with demand remaining is a
	// graceful stop (quality-mode semantics), not ErrStalled.
	nw := testNetwork(1, 1)
	rate := nw.Rates.Rates[1]
	s := &schedule.Schedule{Assignments: []schedule.Assignment{
		{Link: 0, Channel: 0, Level: 1, Layer: schedule.HP, Power: 0.1},
	}}
	policy, err := NewPlanPolicy([]*schedule.Schedule{s}, []float64{0.002}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	demands := []video.Demand{{rate * 0.010, 0}}
	exec, err := Run(nw, demands, policy, Options{SlotDuration: 1e-3, Deadline: 0.008})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Slots != 2 {
		t.Errorf("slots = %d, want 2 (plan length)", exec.Slots)
	}
}

func TestDeadlineEarlyFinishUnaffected(t *testing.T) {
	nw := testNetwork(1, 1)
	rate := nw.Rates.Rates[1]
	s := &schedule.Schedule{Assignments: []schedule.Assignment{
		{Link: 0, Channel: 0, Level: 1, Layer: schedule.HP, Power: 0.1},
	}}
	demands := []video.Demand{{rate * 0.003, 0}}
	exec, err := Run(nw, demands, fixedPolicy{s}, Options{SlotDuration: 1e-3, Deadline: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Slots != 3 {
		t.Errorf("slots = %d, want 3 (demand completes first)", exec.Slots)
	}
}

// TestShedLinkServedDegraded: a link whose demand was load-shed to
// zero upstream is reported degraded, not silently complete, and its
// epsilon derives from the original demand.
func TestShedLinkServedDegraded(t *testing.T) {
	nw := testNetwork(2, 1)
	rate := nw.Rates.Rates[1]
	original := []video.Demand{{rate * 0.01, 0}, {rate * 0.01, rate * 0.005}}
	shed := []video.Demand{{rate * 0.01, 0}, {}} // link 1 shed to zero
	s := &schedule.Schedule{Assignments: []schedule.Assignment{
		{Link: 0, Channel: 0, Level: 1, Layer: schedule.HP, Power: 0.1},
	}}
	exec, err := Run(nw, shed, fixedPolicy{s}, Options{SlotDuration: 1e-3, Original: original})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Degraded[0] {
		t.Error("fully served link flagged degraded")
	}
	if !exec.Degraded[1] {
		t.Error("shed-to-zero link reported complete, want degraded")
	}
	if exec.DegradedCount() != 1 {
		t.Errorf("degraded count = %d, want 1", exec.DegradedCount())
	}
	if exec.ShedAt(0, 1) != original[1].At(0) || exec.ShedAt(1, 1) != original[1].At(1) {
		t.Errorf("shed accounting = %v/%v, want %v/%v", exec.ShedAt(0, 1), exec.ShedAt(1, 1), original[1].At(0), original[1].At(1))
	}
}

// TestPartialShedDegraded: shedding only LP still marks the link
// degraded even though its scheduled demand completes.
func TestPartialShedDegraded(t *testing.T) {
	nw := testNetwork(1, 1)
	rate := nw.Rates.Rates[1]
	original := []video.Demand{{rate * 0.01, rate * 0.01}}
	shed := []video.Demand{{rate * 0.01, 0}}
	s := &schedule.Schedule{Assignments: []schedule.Assignment{
		{Link: 0, Channel: 0, Level: 1, Layer: schedule.HP, Power: 0.1},
	}}
	exec, err := Run(nw, shed, fixedPolicy{s}, Options{SlotDuration: 1e-3, Original: original})
	if err != nil {
		t.Fatal(err)
	}
	if !exec.Degraded[0] {
		t.Error("LP-shed link not flagged degraded")
	}
	if exec.ServedAt(0, 0) < original[0].At(0)*(1-1e-6) {
		t.Errorf("HP under-served: %v of %v", exec.ServedAt(0, 0), original[0].At(0))
	}
}

// TestLinkFailureSuppressesDelivery: during an injected outage the
// failed link's slots deliver nothing, stretching its completion.
func TestLinkFailureSuppressesDelivery(t *testing.T) {
	nw := testNetwork(1, 1)
	rate := nw.Rates.Rates[1]
	demands := []video.Demand{{rate * 0.01, 0}} // 10 clean slots
	s := &schedule.Schedule{Assignments: []schedule.Assignment{
		{Link: 0, Channel: 0, Level: 1, Layer: schedule.HP, Power: 0.1},
	}}
	exec, err := Run(nw, demands, fixedPolicy{s}, Options{
		SlotDuration: 1e-3,
		Failures:     []faults.LinkFailure{{Slot: 2, Link: 0, Duration: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Slots != 15 {
		t.Errorf("slots = %d, want 15 (10 useful + 5 failed)", exec.Slots)
	}
	if exec.FailedSlots != 5 {
		t.Errorf("failed slots = %d, want 5", exec.FailedSlots)
	}
	if exec.Degraded[0] {
		t.Error("link that eventually completed flagged degraded")
	}
}

// TestFailureBeyondLinksRejected: malformed failure events error out
// instead of panicking.
func TestFailureBeyondLinksRejected(t *testing.T) {
	nw := testNetwork(1, 1)
	demands := []video.Demand{{1, 0}}
	_, err := Run(nw, demands, fixedPolicy{nil}, Options{
		Failures: []faults.LinkFailure{{Slot: 0, Link: 9, Duration: 1}},
	})
	if err == nil {
		t.Fatal("out-of-range failure link accepted")
	}
}
