package faults

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config must validate: %v", err)
	}
	bad := []Config{
		{CtrlLoss: -0.1},
		{CtrlCorrupt: 1.5},
		{NodeDropout: math.NaN()},
		{BlockageSlots: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should not validate: %+v", i, c)
		}
	}
	if (Config{}).Enabled() {
		t.Error("zero config reports Enabled")
	}
	if !(Config{CtrlLoss: 0.1}).Enabled() {
		t.Error("lossy config reports disabled")
	}
}

// TestDeterminism: two injectors from the same config replay identical
// fault sequences across every stream.
func TestDeterminism(t *testing.T) {
	cfg := Config{
		CtrlLoss: 0.2, CtrlCorrupt: 0.1, CtrlDelay: 0.05,
		StaleCSI: 0.3, NodeDropout: 0.2, BlockageRate: 0.5, Seed: 42,
	}
	a, err := New(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if fa, fb := a.FrameFate(), b.FrameFate(); fa != fb {
			t.Fatalf("frame fate %d diverged: %v vs %v", i, fa, fb)
		}
		if da, db := a.DropCSI(), b.DropCSI(); da != db {
			t.Fatalf("CSI drop %d diverged", i)
		}
	}
	for e := 0; e < 20; e++ {
		if na, nb := a.StepEpoch(), b.StepEpoch(); na != nb {
			t.Fatalf("epoch %d dropout diverged: %d vs %d", e, na, nb)
		}
		for l := 0; l < 8; l++ {
			if a.LinkDown(l) != b.LinkDown(l) {
				t.Fatalf("epoch %d link %d state diverged", e, l)
			}
		}
	}
	fa := a.DrawFailures(8, 1000)
	fb := b.DrawFailures(8, 1000)
	if !reflect.DeepEqual(fa, fb) {
		t.Fatalf("failure draws diverged: %v vs %v", fa, fb)
	}
}

// TestStreamIndependence: changing the control-loss rate must not
// perturb the dropout or blockage streams.
func TestStreamIndependence(t *testing.T) {
	base := Config{NodeDropout: 0.3, BlockageRate: 0.4, Seed: 7}
	lossy := base
	lossy.CtrlLoss = 0.5
	a, _ := New(base, 10)
	b, _ := New(lossy, 10)
	for i := 0; i < 100; i++ {
		b.FrameFate() // consume the frame stream only on b
	}
	for e := 0; e < 10; e++ {
		if a.StepEpoch() != b.StepEpoch() {
			t.Fatalf("dropout stream perturbed by frame faults at epoch %d", e)
		}
	}
	if !reflect.DeepEqual(a.DrawFailures(10, 500), b.DrawFailures(10, 500)) {
		t.Fatal("blockage stream perturbed by frame faults")
	}
}

func TestFrameFateRates(t *testing.T) {
	cfg := Config{CtrlLoss: 0.25, Seed: 3}
	in, _ := New(cfg, 0)
	const n = 20000
	lost := 0
	for i := 0; i < n; i++ {
		if in.FrameFate() == FrameLost {
			lost++
		}
	}
	got := float64(lost) / n
	if math.Abs(got-0.25) > 0.02 {
		t.Fatalf("empirical loss rate %.3f, want ≈ 0.25", got)
	}
	delivered, lostC, _, _ := in.Stats()
	if delivered+lostC != n {
		t.Fatalf("counters %d+%d ≠ %d trials", delivered, lostC, n)
	}
}

func TestCorruptChangesFrame(t *testing.T) {
	in, _ := New(Config{CtrlCorrupt: 1, Seed: 1}, 0)
	frame := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < 50; i++ {
		out := in.Corrupt(frame)
		if len(out) != len(frame) {
			t.Fatalf("corruption changed length: %d vs %d", len(out), len(frame))
		}
		if string(out) == string(frame) {
			t.Fatal("corruption returned identical bytes")
		}
	}
	if got := in.Corrupt(nil); len(got) != 0 {
		t.Fatalf("corrupting empty frame yielded %v", got)
	}
}

func TestParseFailures(t *testing.T) {
	evs, err := ParseFailures(" 400@7+25, 100@3+50 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []LinkFailure{{Slot: 100, Link: 3, Duration: 50}, {Slot: 400, Link: 7, Duration: 25}}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("parsed %v, want %v (sorted by slot)", evs, want)
	}
	if got := FormatFailures(evs); got != "100@3+50,400@7+25" {
		t.Fatalf("FormatFailures = %q", got)
	}
	if evs, err := ParseFailures(""); err != nil || evs != nil {
		t.Fatalf("empty spec: %v, %v", evs, err)
	}
	for _, bad := range []string{"5", "a@1+2", "1@b+2", "1@2+c", "1@2+0", "-1@2+3"} {
		if _, err := ParseFailures(bad); !errors.Is(err, ErrBadEncoding) {
			t.Errorf("spec %q error = %v, want ErrBadEncoding", bad, err)
		}
	}
}

func TestDrawFailures(t *testing.T) {
	in, _ := New(Config{BlockageRate: 1, BlockageSlots: 10, Seed: 9}, 0)
	evs := in.DrawFailures(5, 200)
	if len(evs) != 5 {
		t.Fatalf("rate-1 draw produced %d events for 5 links", len(evs))
	}
	for i, e := range evs {
		if !e.Valid() || e.Slot >= 200 || e.Duration != 10 {
			t.Fatalf("event %d malformed: %+v", i, e)
		}
		if i > 0 && evs[i-1].Slot > e.Slot {
			t.Fatal("events not sorted by slot")
		}
	}
	if evs := in.DrawFailures(5, 0); evs != nil {
		t.Fatalf("zero horizon produced %v", evs)
	}
}
