package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"mmwave/internal/checkpoint"
	"mmwave/internal/core"
	"mmwave/internal/experiment"
	"mmwave/internal/host"
	"mmwave/internal/pnc"
	"mmwave/internal/stats"
	"mmwave/internal/video"
)

// TestNetworkRoundTrip proves the wire form is lossless where it
// matters: the checkpoint fingerprint — which hashes topology, every
// gain, noise, rate table, and model flags — survives the
// model→wire→JSON→wire→model round trip bit-exactly.
func TestNetworkRoundTrip(t *testing.T) {
	cfg := experiment.DefaultConfig()
	cfg.NumLinks = 6
	cfg.NumChannels = 3
	inst, err := experiment.NewInstance(cfg, stats.Fork(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := checkpoint.NetworkFingerprint(inst.Network)

	wire := NetworkFromModel(inst.Network)
	data, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Network
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := decoded.ToModel()
	if err != nil {
		t.Fatal(err)
	}
	if got := checkpoint.NetworkFingerprint(back); got != want {
		t.Fatalf("fingerprint changed across the wire: %#x → %#x", want, got)
	}
}

func TestNetworkToModelValidates(t *testing.T) {
	if _, err := (Network{}).ToModel(); err == nil {
		t.Fatal("empty network validated")
	}
	var apiErr *Error
	_, err := (Network{Interference: "psychic"}).ToModel()
	if !errors.As(err, &apiErr) || apiErr.Code != CodeBadRequest {
		t.Fatalf("bad interference model: got %v, want bad-request", err)
	}
}

// TestDemandFrame pins the wire demand to the binary uplink frame an
// in-process node would send — the byte-identity anchor.
func TestDemandFrame(t *testing.T) {
	d := Demand{Link: 3, HPBits: 1.5e6, LPBits: 4.25e6}
	got, err := d.Frame()
	if err != nil {
		t.Fatal(err)
	}
	want, err := pnc.DemandReport{Link: 3, Demand: video.TwoClass(1.5e6, 4.25e6)}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("wire demand encodes differently from pnc.DemandReport")
	}
	if _, err := (Demand{Link: -1}).Frame(); err == nil {
		t.Fatal("negative link encoded")
	}
	if _, err := (Demand{Link: 0, HPBits: -1}).Frame(); err == nil {
		t.Fatal("invalid demand encoded")
	}
}

func TestCSIFrame(t *testing.T) {
	u := CSI{Link: 1, Gains: []float64{0.25, 0.5}}
	got, err := u.Frame()
	if err != nil {
		t.Fatal(err)
	}
	want, err := pnc.ChannelUpdate{Link: 1, Gains: []float64{0.25, 0.5}}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("wire CSI encodes differently from pnc.ChannelUpdate")
	}
}

func TestPlanRoundTrip(t *testing.T) {
	cfg := experiment.DefaultConfig()
	cfg.NumLinks = 4
	cfg.NumChannels = 2
	inst, err := experiment.NewInstance(cfg, stats.Fork(8, 0))
	if err != nil {
		t.Fatal(err)
	}
	solver, err := core.New(inst.Network, inst.Demands)
	if err != nil {
		t.Fatal(err)
	}
	res, err := solver.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wire := PlanFromModel(res.Plan)
	data, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Plan
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	back := decoded.ToModel()
	again, err := json.Marshal(PlanFromModel(back))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("plan JSON not stable across round trip:\n%s\n%s", data, again)
	}
	if back.Objective != res.Plan.Objective {
		t.Fatalf("objective changed: %v → %v", res.Plan.Objective, back.Objective)
	}
}

// TestErrorEnvelope checks WriteError/DecodeError are inverses and the
// decoded error still unwraps to its taxonomy sentinel.
func TestErrorEnvelope(t *testing.T) {
	rr := httptest.NewRecorder()
	WriteError(rr, &Error{Code: CodeInfeasible, Message: "no feasible point"})
	if rr.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", rr.Code)
	}
	resp := rr.Result()
	defer resp.Body.Close()
	err := DecodeError(resp)
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.Code != CodeInfeasible {
		t.Fatalf("decoded %v, want infeasible", err)
	}
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatal("decoded error lost its sentinel")
	}

	// Raw (non-envelope) bodies degrade to internal, not a panic.
	rr2 := httptest.NewRecorder()
	rr2.WriteHeader(http.StatusBadGateway)
	rr2.WriteString("upstream exploded")
	resp2 := rr2.Result()
	defer resp2.Body.Close()
	if code := CodeForError(DecodeError(resp2)); code != CodeInternal {
		t.Fatalf("raw body mapped to %q, want internal", code)
	}
}

// TestWriteErrorClassifies checks bare taxonomy errors are classified
// on the way out.
func TestWriteErrorClassifies(t *testing.T) {
	rr := httptest.NewRecorder()
	WriteError(rr, host.ErrAdmission)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("admission error wrote %d, want 429", rr.Code)
	}
	resp := rr.Result()
	defer resp.Body.Close()
	if !errors.Is(DecodeError(resp), host.ErrAdmission) {
		t.Fatal("round-tripped admission error lost errors.Is")
	}
}

// TestCodeStability pins every code string and status — these are the
// wire contract and must never drift within v1.
func TestCodeStability(t *testing.T) {
	want := map[Code]int{
		CodeBadRequest:             400,
		CodeNotFound:               404,
		CodeStaleState:             409,
		CodeCheckpointIncompatible: 409,
		CodeUnservable:             422,
		CodeInfeasible:             422,
		CodeAdmission:              429,
		CodeInternal:               500,
		CodeCheckpointCorrupt:      500,
		CodeControlLoss:            502,
		CodeDraining:               503,
		CodeBudgetExceeded:         504,
	}
	for code, status := range want {
		if got := code.HTTPStatus(); got != status {
			t.Errorf("%q → %d, want %d", code, got, status)
		}
	}
	if CodeForError(checkpoint.ErrCorrupt) != CodeCheckpointCorrupt {
		t.Error("checkpoint.ErrCorrupt mapping drifted")
	}
	if CodeForError(errors.New("mystery")) != CodeInternal {
		t.Error("unknown errors must map to internal")
	}
}

// TestSolvePricerWorkersIgnored: a v1 request still carrying the
// retired pricer_workers key decodes, and lowers to exactly the
// options of a spec without it (the pricer is serial).
func TestSolvePricerWorkersIgnored(t *testing.T) {
	var s Solve
	if err := json.Unmarshal([]byte(`{"max_iterations":7,"pricer_workers":4}`), &s); err != nil {
		t.Fatal(err)
	}
	if got, want := s.ToOptions(), (Solve{MaxIterations: 7}).ToOptions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ToOptions() = %+v, want %+v", got, want)
	}
}

// TestSolveToOptionsDefaults: zero and negative solve knobs keep core's
// defaults, and positive ones pass through unchanged.
func TestSolveToOptionsDefaults(t *testing.T) {
	for _, tc := range []struct {
		body string
		want core.Options
	}{
		{`{}`, core.Options{}},
		{`{"max_iterations":0,"tolerance":0,"gap_target":0,"pricer_budget":0}`, core.Options{}},
		{`{"max_iterations":-3,"tolerance":-1e-6,"gap_target":-0.1,"pricer_budget":-5}`, core.Options{}},
		{`{"tolerance":-0,"gap_target":-0}`, core.Options{}},
		{`{"max_iterations":7,"tolerance":1e-6,"gap_target":0.01}`,
			core.Options{MaxIterations: 7, Tolerance: 1e-6, GapTarget: 0.01}},
	} {
		var s Solve
		if err := json.Unmarshal([]byte(tc.body), &s); err != nil {
			t.Fatal(err)
		}
		got := s.ToOptions()
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: ToOptions() = %+v, want %+v", tc.body, got, tc.want)
		}
		if math.Signbit(got.Tolerance) || math.Signbit(got.GapTarget) {
			t.Errorf("%s: ToOptions() kept a negative zero: %+v", tc.body, got)
		}
	}
}

// TestSolvePricerBudgetPools: a spec that sets pricer_budget gets the
// default pricer at that budget, leaf pool included.
func TestSolvePricerBudgetPools(t *testing.T) {
	p, ok := Solve{PricerBudget: 5000}.ToOptions().Pricer.(*core.BranchBoundPricer)
	if !ok {
		t.Fatal("pricer_budget did not yield a *core.BranchBoundPricer")
	}
	if p.String() != "branch-bound(budget=5000)" {
		t.Errorf("pricer = %s, want budget 5000", p)
	}
	if p.PoolLeaves != 32 {
		t.Errorf("PoolLeaves = %d, want 32", p.PoolLeaves)
	}
}
