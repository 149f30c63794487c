package faults

import (
	"bytes"
	"reflect"
	"testing"
)

func procConfig(seed int64) Config {
	return Config{
		CtrlLoss:    0.1,
		CtrlCorrupt: 0.05,
		StaleCSI:    0.2,
		NodeDropout: 0.02,
		CellPanic:   0.1,
		SolveHang:   0.1,
		KillRestore: 0.2,
		CkptCorrupt: 0.3,
		Seed:        seed,
	}
}

// drainMixed exercises every stream a realistic amount, including
// high-level methods with rejection loops (Intn), so draw counts and
// generator positions can diverge if counting were done per method
// instead of per source advance.
func drainMixed(t *testing.T, in *Injector, rounds int) []ProcFaults {
	t.Helper()
	var out []ProcFaults
	for i := 0; i < rounds; i++ {
		in.FrameFate()
		if i%3 == 0 {
			in.Corrupt([]byte{1, 2, 3, 4, 5, 6, 7})
		}
		in.DropCSI()
		in.StepEpoch()
		pf := in.DrawProcFaults()
		out = append(out, pf)
		if pf.Corrupt {
			in.CorruptCheckpoint(bytes.Repeat([]byte{0xAB}, 64))
		}
	}
	return out
}

func TestDrawProcFaultsDeterministic(t *testing.T) {
	a, err := New(procConfig(42), 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(procConfig(42), 8)
	if err != nil {
		t.Fatal(err)
	}
	fa := drainMixed(t, a, 200)
	fb := drainMixed(t, b, 200)
	if !reflect.DeepEqual(fa, fb) {
		t.Fatal("equal-seed injectors diverged on process faults")
	}
	any := false
	for _, f := range fa {
		any = any || f.Any()
	}
	if !any {
		t.Fatal("no process fault fired in 200 epochs at these rates")
	}
}

// TestProcDrawsIndependentOfEnactment is the shadow-cell property: an
// injector whose checkpoint-corruption verdicts are never enacted (no
// CorruptCheckpoint calls) must still draw the same process-fault
// timeline, because corruption bytes come from a dedicated stream.
func TestProcDrawsIndependentOfEnactment(t *testing.T) {
	live, _ := New(procConfig(7), 4)
	shadow, _ := New(procConfig(7), 4)
	for i := 0; i < 300; i++ {
		lf := live.DrawProcFaults()
		sf := shadow.DrawProcFaults()
		if lf != sf {
			t.Fatalf("epoch %d: live %+v != shadow %+v", i, lf, sf)
		}
		if lf.Corrupt {
			// Only the live cell writes (and corrupts) checkpoints.
			live.CorruptCheckpoint(make([]byte, 128))
		}
	}
}

func TestCorruptCheckpointNeverNoop(t *testing.T) {
	in, _ := New(Config{CkptCorrupt: 1, Seed: 3}, 0)
	orig := bytes.Repeat([]byte{0x5A}, 97)
	for i := 0; i < 500; i++ {
		got := in.CorruptCheckpoint(orig)
		if bytes.Equal(got, orig) {
			t.Fatalf("iteration %d: corruption was a no-op", i)
		}
	}
	if got := in.CorruptCheckpoint(nil); len(got) != 0 {
		t.Fatalf("corrupting empty image produced %d bytes", len(got))
	}
}

// TestInjectorCheckpointRestore is the RNG-exactness property: restore
// an injector mid-run and its entire future — frame fates, corruption
// bytes, dropout walks, stale-CSI drops, process faults — must match
// the uninterrupted original draw for draw.
func TestInjectorCheckpointRestore(t *testing.T) {
	cfg := procConfig(1234)
	cfg.CtrlDelay = 0.05
	orig, err := New(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	drainMixed(t, orig, 137) // advance to an arbitrary mid-run position

	st := orig.Checkpoint()
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreInjector(cfg, st)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := restored.LinkDown(0), orig.LinkDown(0); got != want {
		t.Fatalf("dropout state not restored: got %v want %v", got, want)
	}
	d1, l1, c1, y1 := orig.Stats()
	d2, l2, c2, y2 := restored.Stats()
	if d1 != d2 || l1 != l2 || c1 != c2 || y1 != y2 {
		t.Fatal("telemetry counters not restored")
	}

	// Futures must be identical across every stream.
	for i := 0; i < 300; i++ {
		if a, b := orig.FrameFate(), restored.FrameFate(); a != b {
			t.Fatalf("draw %d: frame fate %v != %v", i, a, b)
		}
		fa := orig.Corrupt([]byte{9, 8, 7, 6, 5})
		fb := restored.Corrupt([]byte{9, 8, 7, 6, 5})
		if !bytes.Equal(fa, fb) {
			t.Fatalf("draw %d: corruption bytes diverged", i)
		}
		if a, b := orig.DropCSI(), restored.DropCSI(); a != b {
			t.Fatalf("draw %d: CSI drop %v != %v", i, a, b)
		}
		if a, b := orig.StepEpoch(), restored.StepEpoch(); a != b {
			t.Fatalf("draw %d: dropout count %d != %d", i, a, b)
		}
		if a, b := orig.DrawProcFaults(), restored.DrawProcFaults(); a != b {
			t.Fatalf("draw %d: process faults %+v != %+v", i, a, b)
		}
		ca := orig.CorruptCheckpoint(bytes.Repeat([]byte{1}, 33))
		cb := restored.CorruptCheckpoint(bytes.Repeat([]byte{1}, 33))
		if !bytes.Equal(ca, cb) {
			t.Fatalf("draw %d: checkpoint corruption diverged", i)
		}
	}
}

func TestInjectorStateValidate(t *testing.T) {
	bad := InjectorState{}
	bad.Draws[2] = 1 << 40
	if err := bad.Validate(); err == nil {
		t.Fatal("oversized draw count accepted")
	}
	neg := InjectorState{Lost: -1}
	if err := neg.Validate(); err == nil {
		t.Fatal("negative counter accepted")
	}
}

func TestProcConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{CellPanic: -0.1}, {SolveHang: 1.5}, {KillRestore: 2}, {CkptCorrupt: -1},
	} {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	if !(Config{KillRestore: 0.1}).Enabled() {
		t.Fatal("process faults alone should enable the injector")
	}
	if (Config{CtrlLoss: 0.1}).ProcEnabled() {
		t.Fatal("control faults alone should not report ProcEnabled")
	}
}
