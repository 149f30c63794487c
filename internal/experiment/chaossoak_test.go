package experiment

import (
	"testing"
	"time"
)

// soakScale shrinks the acceptance config for sub-second unit runs.
func soakScale(cells, epochs int) ChaosSoakConfig {
	cc := DefaultChaosSoakConfig()
	cc.Cells = cells
	cc.Epochs = epochs
	return cc
}

// TestChaosSoakDeterministic: the soak is a pure function of its
// config — two runs must agree on every counter and on the digest.
func TestChaosSoakDeterministic(t *testing.T) {
	cc := soakScale(3, 12)
	a, err := ChaosSoak(cc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChaosSoak(cc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("digest %016x != %016x: soak is not deterministic", a.Digest, b.Digest)
	}
	if a.OK != b.OK || a.Failed != b.Failed || a.Restores != b.Restores ||
		a.ColdRestarts != b.ColdRestarts || a.ShedEpochs != b.ShedEpochs ||
		a.HangsInjected != b.HangsInjected || a.Truncations != b.Truncations {
		t.Fatalf("counters differ between identical runs: %+v vs %+v", a, b)
	}
	if len(a.Violations) != 0 {
		t.Fatalf("violations: %v", a.Violations)
	}
}

// TestChaosSoakDigest pins the chaos walk: every fault class enabled,
// hangs included, at fixed scales and seed. A change that moves a
// digest moves the soak's timeline and must say why.
func TestChaosSoakDigest(t *testing.T) {
	for _, tc := range []struct {
		cells, epochs int
		want          uint64
		long          bool
	}{
		{4, 60, 0x88ad86690735b28e, false},
		{4, 30, 0xb15164d162114b86, false},
		{8, 200, 0xa31330dcaeea9b0c, true},
	} {
		if tc.long && testing.Short() {
			continue
		}
		cc := soakScale(tc.cells, tc.epochs)
		cc.Watchdog = 600 * time.Millisecond
		res, err := ChaosSoak(cc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Digest != tc.want {
			t.Errorf("%d×%d soak: digest %016x, want %016x", tc.cells, tc.epochs, res.Digest, tc.want)
		}
		if res.HangsInjected == 0 {
			t.Errorf("%d×%d soak injected no hangs", tc.cells, tc.epochs)
		}
		for _, v := range res.Violations {
			t.Errorf("%d×%d soak violation: %s", tc.cells, tc.epochs, v)
		}
	}
}

// TestChaosSoakRestoreOnly: with kill-restore as the only enacted
// process fault, every cell must stay byte-identical to the shadow
// fleet for the entire run — every epoch of every cell is compared,
// and every restore is a timeline no-op.
func TestChaosSoakRestoreOnly(t *testing.T) {
	cc := soakScale(4, 20)
	cc.Faults.CellPanic = 0
	cc.Faults.SolveHang = 0
	cc.Faults.CkptCorrupt = 0
	cc.Faults.KillRestore = 0.5
	res, err := ChaosSoak(cc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.CleanCells != cc.Cells {
		t.Fatalf("only %d/%d cells stayed on the shadow timeline", res.CleanCells, cc.Cells)
	}
	if want := cc.Cells * cc.Epochs; res.MatchedEpochs != want {
		t.Fatalf("compared %d cell-epochs, want %d", res.MatchedEpochs, want)
	}
	if res.Restores == 0 {
		t.Fatal("no kill-restore cycles enacted")
	}
	if res.ColdRestarts != 0 {
		t.Fatalf("%d cold restarts without checkpoint corruption", res.ColdRestarts)
	}
}

// TestChaosSoak is the acceptance soak: every fault class enabled on a
// supervised multi-cell fleet, zero invariant violations. Full scale
// (8 cells × 200 epochs) runs in the default mode; -short trims the
// epochs but keeps every fault class active.
func TestChaosSoak(t *testing.T) {
	cc := DefaultChaosSoakConfig()
	// Headroom over an honest solve even on a loaded CI machine, so no
	// honest solve is clipped. Injected hangs do not wait for it.
	cc.Watchdog = 600 * time.Millisecond
	if testing.Short() {
		cc.Epochs = 40
	}
	res, err := ChaosSoak(cc)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.OK == 0 {
		t.Fatal("no successful epochs")
	}
	for name, n := range map[string]int{
		"recovered panics":      res.PanicsRecovered,
		"injected hangs":        res.HangsInjected,
		"watchdog truncations":  res.Truncations,
		"restores":              res.Restores,
		"cold restarts":         res.ColdRestarts,
		"corrupted checkpoints": res.CorruptedCkpts,
		"shed epochs":           res.ShedEpochs,
		"HP-shed epochs":        res.HPShedEpochs,
		"compared cell-epochs":  res.MatchedEpochs,
	} {
		if n == 0 {
			t.Errorf("soak exercised no %s — the chaos classes must all fire", name)
		}
	}
	t.Logf("soak: %d ok, %d failed, %d restores (%d cold), %d hangs, digest %016x",
		res.OK, res.Failed, res.Restores, res.ColdRestarts, res.HangsInjected, res.Digest)
}
