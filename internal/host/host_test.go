package host

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mmwave/internal/channel"
	"mmwave/internal/checkpoint"
	"mmwave/internal/core"
	"mmwave/internal/faults"
	"mmwave/internal/geom"
	"mmwave/internal/netmodel"
	"mmwave/internal/obs"
	"mmwave/internal/pnc"
	"mmwave/internal/video"
)

func testNetwork(t testing.TB, seed int64, nLinks, nChannels int) *netmodel.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for {
		room := geom.Room{Width: 20, Height: 20}
		segs := room.PlaceLinks(rng, nLinks, 1, 5)
		gains := channel.TableI{}.Generate(rng, segs, nChannels)
		links := make([]netmodel.Link, nLinks)
		noise := make([]float64, nLinks)
		for i := range links {
			links[i] = netmodel.Link{TXNode: 2 * i, RXNode: 2*i + 1, Seg: segs[i]}
			noise[i] = 0.1
		}
		nw := &netmodel.Network{
			Links:        links,
			NumChannels:  nChannels,
			Gains:        gains,
			Noise:        noise,
			PMax:         1,
			Rates:        netmodel.NewShannonRateTable(200e6, []float64{0.1, 0.2, 0.3, 0.4, 0.5}),
			BandwidthHz:  200e6,
			Interference: netmodel.Global,
		}
		ok := true
		for l := 0; l < nLinks && ok; l++ {
			_, sinr := nw.BestSingleLinkChannel(l)
			ok = nw.Rates.BestLevel(sinr) >= 0
		}
		if ok {
			return nw
		}
		seed += 1000
		rng = rand.New(rand.NewSource(seed))
	}
}

// demandFeed returns a FeedFunc reporting the same demand on every
// link each epoch.
func demandFeed(t testing.TB, d video.Demand) FeedFunc {
	t.Helper()
	return func(cell *Cell, epoch int64) [][]byte {
		n := cell.spec.Network.NumLinks()
		frames := make([][]byte, 0, n)
		for l := 0; l < n; l++ {
			frame, err := pnc.DemandReport{Link: uint16(l), Demand: d}.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, frame)
		}
		return frames
	}
}

// sameServedPlan asserts two reports served byte-identical plans with
// identical solver work.
func sameServedPlan(t *testing.T, a, b *EpochReport, label string) {
	t.Helper()
	if a.Plan.Objective != b.Plan.Objective {
		t.Errorf("%s: objective %v != %v", label, a.Plan.Objective, b.Plan.Objective)
	}
	if !reflect.DeepEqual(a.Plan.Tau, b.Plan.Tau) {
		t.Errorf("%s: tau %v != %v", label, a.Plan.Tau, b.Plan.Tau)
	}
	if len(a.Plan.Schedules) != len(b.Plan.Schedules) {
		t.Fatalf("%s: %d schedules != %d", label, len(a.Plan.Schedules), len(b.Plan.Schedules))
	}
	for i := range a.Plan.Schedules {
		if !reflect.DeepEqual(a.Plan.Schedules[i].Assignments, b.Plan.Schedules[i].Assignments) {
			t.Errorf("%s: schedule %d differs", label, i)
		}
	}
	if a.Result != nil && b.Result != nil {
		if a.Result.Solver.LPPivots != b.Result.Solver.LPPivots {
			t.Errorf("%s: pivots %d != %d", label, a.Result.Solver.LPPivots, b.Result.Solver.LPPivots)
		}
		if len(a.Result.Solver.Iterations) != len(b.Result.Solver.Iterations) {
			t.Errorf("%s: iterations %d != %d", label, len(a.Result.Solver.Iterations), len(b.Result.Solver.Iterations))
		}
	}
}

// TestHostMatchesStandalone: a supervised fault-free cell must be
// byte-identical to a bare coordinator — the supervision machinery
// adds nothing to the healthy path.
func TestHostMatchesStandalone(t *testing.T) {
	nw := testNetwork(t, 7, 5, 2)
	d := video.TwoClass(4e6, 8e6)

	h := New()
	cell, err := h.Admit(CellSpec{Network: nw})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := pnc.NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed := demandFeed(t, d)
	for epoch := 0; epoch < 3; epoch++ {
		rep := h.Step(context.Background(), cell, feed)
		if rep.Outcome != OutcomeOK {
			t.Fatalf("epoch %d: outcome %v err %v", epoch, rep.Outcome, rep.Err)
		}
		for l := 0; l < nw.NumLinks(); l++ {
			frame, _ := (pnc.DemandReport{Link: uint16(l), Demand: d}).MarshalBinary()
			if err := bare.Ingest(frame); err != nil {
				t.Fatal(err)
			}
		}
		want, err := bare.RunEpoch(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Plan.Objective != want.Plan.Objective ||
			!reflect.DeepEqual(rep.Plan.Tau, want.Plan.Tau) {
			t.Fatalf("epoch %d: supervised plan differs from standalone", epoch)
		}
		if rep.Result.Solver.LPPivots != want.Solver.LPPivots {
			t.Fatalf("epoch %d: pivots %d != %d", epoch, rep.Result.Solver.LPPivots, want.Solver.LPPivots)
		}
	}
}

// TestAdmitDefaultPricerPools: a cell admitted without a pricer gets
// the default branch-and-bound pricer, leaf pool included.
func TestAdmitDefaultPricerPools(t *testing.T) {
	cell, err := New().Admit(CellSpec{Network: testNetwork(t, 7, 5, 2)})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := cell.spec.Solve.Pricer.(*core.BranchBoundPricer)
	if !ok {
		t.Fatalf("default cell pricer is %T, want *core.BranchBoundPricer", cell.spec.Solve.Pricer)
	}
	if p.PoolLeaves != 32 {
		t.Errorf("PoolLeaves = %d, want 32", p.PoolLeaves)
	}
}

func TestAdmissionControl(t *testing.T) {
	nw := testNetwork(t, 3, 4, 2)

	t.Run("no network", func(t *testing.T) {
		if _, err := New().Admit(CellSpec{}); err == nil {
			t.Fatal("admitted a cell with no network")
		}
	})
	t.Run("hang without watchdog truncates", func(t *testing.T) {
		h := New()
		cell, err := h.Admit(CellSpec{
			Network: nw,
			Faults:  &faults.Config{SolveHang: 1, Seed: 1},
		})
		if err != nil {
			t.Fatalf("refused hang injection without a watchdog: %v", err)
		}
		rep := h.Step(context.Background(), cell, demandFeed(t, video.TwoClass(3e6, 6e6)))
		if rep.Outcome != OutcomeOK || !rep.Result.TruncatedSolve {
			t.Fatalf("hang epoch: outcome %v err %v, want an OK truncated epoch", rep.Outcome, rep.Err)
		}
		if lb := rep.Result.Solver.LowerBound; lb <= 0 || lb > rep.Plan.Objective+1e-9 {
			t.Errorf("truncated solve bound %v invalid against objective %v", lb, rep.Plan.Objective)
		}
	})
	t.Run("cell cap", func(t *testing.T) {
		h := New(WithAdmission(1, 0))
		if _, err := h.Admit(CellSpec{Network: nw}); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Admit(CellSpec{Network: nw}); err == nil {
			t.Fatal("admitted past the cell cap")
		}
	})
	t.Run("link budget", func(t *testing.T) {
		h := New(WithAdmission(0, 6))
		if _, err := h.Admit(CellSpec{Network: nw}); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Admit(CellSpec{Network: nw}); err == nil {
			t.Fatal("admitted past the link budget")
		}
		if len(h.Cells()) != 1 {
			t.Fatalf("got %d cells, want 1", len(h.Cells()))
		}
	})
	t.Run("bad fault config", func(t *testing.T) {
		_, err := New().Admit(CellSpec{
			Network: nw,
			Faults:  &faults.Config{CellPanic: 1.5},
		})
		if err == nil {
			t.Fatal("admitted an invalid fault config")
		}
	})
}

// TestPanicSupervision drives a cell that panics every epoch through
// the whole restart policy: recover → backoff → breaker → permanent
// disable, with the first-epoch failure leaving nothing to serve.
func TestPanicSupervision(t *testing.T) {
	nw := testNetwork(t, 9, 4, 2)
	reg := obs.NewRegistry()
	h := New(WithMaxRestarts(5), WithMetrics(reg))
	cell, err := h.Admit(CellSpec{
		Network: nw,
		Faults:  &faults.Config{CellPanic: 1, Seed: 42},
	})
	if err != nil {
		t.Fatal(err)
	}
	feed := demandFeed(t, video.TwoClass(2e6, 4e6))

	// With CellPanic=1 every attempted epoch fails. The policy above
	// and the fixed breaker (3 failures, 4-epoch cooldown) yield this
	// exact outcome timeline.
	want := []Outcome{
		OutcomeFailed,      // e0: consec 1, restarts 1, backoff 0
		OutcomeFailed,      // e1: consec 2, restarts 2, backoff 1
		OutcomeBackoff,     // e2
		OutcomeFailed,      // e3: consec 3 -> breaker opens (cooldown 4)
		OutcomeBreakerOpen, // e4
		OutcomeBreakerOpen, // e5
		OutcomeBreakerOpen, // e6
		OutcomeBreakerOpen, // e7
		OutcomeFailed,      // e8: consec 4 -> breaker reopens
		OutcomeBreakerOpen, // e9
		OutcomeBreakerOpen, // e10
		OutcomeBreakerOpen, // e11
		OutcomeBreakerOpen, // e12
		OutcomeFailed,      // e13: restarts 5 -> disabled
		OutcomeDisabled,    // e14
		OutcomeDisabled,    // e15
	}
	for i, w := range want {
		rep := h.Step(context.Background(), cell, feed)
		if rep.Outcome != w {
			t.Fatalf("epoch %d: outcome %v, want %v", i, rep.Outcome, w)
		}
		if !rep.NoPlan {
			t.Errorf("epoch %d: a cell that never succeeded should have no plan", i)
		}
		if w == OutcomeFailed && !rep.Panicked {
			t.Errorf("epoch %d: failure not marked as a panic", i)
		}
	}
	if !cell.Disabled() || !cell.Degraded() {
		t.Error("cell should be permanently disabled")
	}
	if cell.Restarts() != 5 {
		t.Errorf("restarts = %d, want 5", cell.Restarts())
	}
	if got := reg.Counter("host_panics_recovered_total").Value(); got != 5 {
		t.Errorf("host_panics_recovered_total = %d, want 5", got)
	}
	if got := reg.Counter("host_cells_disabled_total").Value(); got != 1 {
		t.Errorf("host_cells_disabled_total = %d, want 1", got)
	}
	if got := reg.Counter("host_no_plan_epochs_total").Value(); got != int64(len(want)) {
		t.Errorf("host_no_plan_epochs_total = %d, want %d", got, len(want))
	}
}

// TestLastGoodServedThroughFailures: once a cell has a good plan,
// failed epochs and the backoff epoch after them serve it, with
// PlanAge counting the completed epochs since it was produced.
func TestLastGoodServedThroughFailures(t *testing.T) {
	nw := testNetwork(t, 13, 4, 2)
	reg := obs.NewRegistry()
	h := New(WithMetrics(reg))
	cell, err := h.Admit(CellSpec{Network: nw})
	if err != nil {
		t.Fatal(err)
	}
	feed := demandFeed(t, video.TwoClass(3e6, 6e6))

	ok := h.Step(context.Background(), cell, feed)
	if ok.Outcome != OutcomeOK {
		t.Fatalf("healthy epoch failed: %v", ok.Err)
	}

	// Break the network behind the host's back: its fingerprint moves,
	// so the next epoch re-solves cold, and the cold solver rejects the
	// non-positive power budget.
	nw.PMax = 0

	// Backoff skips 0, 1, 3, … epochs after the 1st, 2nd, 3rd …
	// consecutive failure, so two failures precede the first backoff.
	for i, want := range []Outcome{OutcomeFailed, OutcomeFailed, OutcomeBackoff} {
		rep := h.Step(context.Background(), cell, feed)
		if rep.Outcome != want {
			t.Fatalf("epoch %d: outcome %v (err %v), want %v", i+1, rep.Outcome, rep.Err, want)
		}
		if want == OutcomeFailed && (rep.Err == nil || rep.Panicked) {
			t.Fatalf("epoch %d: failed without a solve error (err %v, panicked %v)", i+1, rep.Err, rep.Panicked)
		}
		if rep.NoPlan || rep.PlanAge != int64(i+1) {
			t.Fatalf("epoch %d: NoPlan %v PlanAge %d, want the last-good plan at age %d", i+1, rep.NoPlan, rep.PlanAge, i+1)
		}
		sameServedPlan(t, ok, rep, fmt.Sprintf("epoch %d", i+1))
	}
	if got := reg.Counter("host_lastgood_served_total").Value(); got != 3 {
		t.Errorf("host_lastgood_served_total = %d, want 3", got)
	}
	if got := reg.Counter("host_epoch_failures_total").Value(); got != 2 {
		t.Errorf("host_epoch_failures_total = %d, want 2", got)
	}
}

// TestWatchdogHang: an injected solver hang must come back as a
// truncated-but-valid anytime plan — an OK outcome, not a failure —
// and the result must not depend on the watchdog's wall-clock
// duration.
func TestWatchdogHang(t *testing.T) {
	nw := testNetwork(t, 17, 4, 2)
	d := video.TwoClass(3e6, 6e6)

	run := func(watchdog time.Duration) []*EpochReport {
		reg := obs.NewRegistry()
		h := New(WithWatchdog(watchdog), WithMetrics(reg))
		cell, err := h.Admit(CellSpec{
			Network: nw,
			Faults:  &faults.Config{SolveHang: 1, Seed: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		feed := demandFeed(t, d)
		reps := make([]*EpochReport, 0, 3)
		for i := 0; i < 3; i++ {
			reps = append(reps, h.Step(context.Background(), cell, feed))
		}
		if got := reg.Counter("host_hangs_injected_total").Value(); got != 3 {
			t.Errorf("host_hangs_injected_total = %d, want 3", got)
		}
		if got := reg.Counter("host_watchdog_truncations_total").Value(); got != 3 {
			t.Errorf("host_watchdog_truncations_total = %d, want 3", got)
		}
		return reps
	}

	short := run(30 * time.Millisecond)
	long := run(150 * time.Millisecond)
	for i := range short {
		a, b := short[i], long[i]
		if a.Outcome != OutcomeOK || b.Outcome != OutcomeOK {
			t.Fatalf("epoch %d: hang produced outcome %v/%v (err %v/%v)", i, a.Outcome, b.Outcome, a.Err, b.Err)
		}
		if !a.Result.TruncatedSolve || !b.Result.TruncatedSolve {
			t.Fatalf("epoch %d: hang did not truncate the solve", i)
		}
		if a.Result.Solver.LowerBound <= 0 || a.Result.Solver.LowerBound > a.Plan.Objective+1e-9 {
			t.Errorf("epoch %d: truncated solve bound %v invalid against objective %v",
				i, a.Result.Solver.LowerBound, a.Plan.Objective)
		}
		sameServedPlan(t, a, b, "watchdog independence")
	}
}

// TestKillRestoreByteIdentical: a cell that is killed and restored
// from its checkpoint after every epoch must trace exactly the same
// plan/solver timeline as an untouched shadow cell.
func TestKillRestoreByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		dir  bool
	}{{"in-memory", false}, {"on-disk", true}} {
		t.Run(tc.name, func(t *testing.T) {
			nw := testNetwork(t, 23, 5, 2)
			d := video.TwoClass(4e6, 9e6)

			reg := obs.NewRegistry()
			opts := []Option{WithMetrics(reg)}
			if tc.dir {
				opts = append(opts, WithCheckpointDir(t.TempDir()))
			}
			chaos := New(opts...)
			victim, err := chaos.Admit(CellSpec{
				Network: nw,
				Faults:  &faults.Config{KillRestore: 1, Seed: 77},
			})
			if err != nil {
				t.Fatal(err)
			}
			calm := New()
			shadow, err := calm.Admit(CellSpec{
				Network: nw,
				Faults:  &faults.Config{KillRestore: 0.0000001, Seed: 77}, // same streams, never enacted
			})
			if err != nil {
				t.Fatal(err)
			}

			feed := demandFeed(t, d)
			for epoch := 0; epoch < 5; epoch++ {
				a := chaos.Step(context.Background(), victim, feed)
				b := calm.Step(context.Background(), shadow, feed)
				if a.Outcome != OutcomeOK || b.Outcome != OutcomeOK {
					t.Fatalf("epoch %d: outcomes %v/%v (err %v/%v)", epoch, a.Outcome, b.Outcome, a.Err, b.Err)
				}
				if !a.Restored {
					t.Fatalf("epoch %d: kill-restore not enacted", epoch)
				}
				sameServedPlan(t, a, b, tc.name)
				if epoch > 0 && !a.Result.WarmSolve {
					t.Errorf("epoch %d: restored cell lost its warm solver state", epoch)
				}
				// The coordinator's epoch numbering must survive the kill.
				if got, want := victim.Coordinator().Epoch(), shadow.Coordinator().Epoch(); got != want {
					t.Fatalf("epoch %d: coordinator epoch %d != shadow %d", epoch, got, want)
				}
			}
			if got := reg.Counter("host_restores_total").Value(); got != 5 {
				t.Errorf("host_restores_total = %d, want 5", got)
			}
			if got := reg.Counter("host_cold_restarts_total").Value(); got != 0 {
				t.Errorf("host_cold_restarts_total = %d, want 0", got)
			}
		})
	}
}

// TestCorruptCheckpointColdRestart: when every checkpoint is corrupted
// before the kill, the restore path must detect it and fall back to a
// cold rebuild — and the cell must keep scheduling.
func TestCorruptCheckpointColdRestart(t *testing.T) {
	nw := testNetwork(t, 29, 4, 2)
	reg := obs.NewRegistry()
	h := New(WithMetrics(reg))
	cell, err := h.Admit(CellSpec{
		Network: nw,
		Faults:  &faults.Config{KillRestore: 1, CkptCorrupt: 1, Seed: 31},
	})
	if err != nil {
		t.Fatal(err)
	}
	feed := demandFeed(t, video.TwoClass(2e6, 5e6))
	for epoch := 0; epoch < 4; epoch++ {
		rep := h.Step(context.Background(), cell, feed)
		if rep.Outcome != OutcomeOK {
			t.Fatalf("epoch %d: outcome %v err %v", epoch, rep.Outcome, rep.Err)
		}
		if !rep.ColdRestarted || rep.Restored {
			t.Fatalf("epoch %d: corrupt checkpoint should cold-restart (cold %v restored %v)",
				epoch, rep.ColdRestarted, rep.Restored)
		}
		if rep.Plan.Objective <= 0 {
			t.Fatalf("epoch %d: cold-restarted cell served an empty plan", epoch)
		}
	}
	if got := reg.Counter("host_cold_restarts_total").Value(); got != 4 {
		t.Errorf("host_cold_restarts_total = %d, want 4", got)
	}
	if got := reg.Counter("host_checkpoint_corruptions_total").Value(); got != 4 {
		t.Errorf("host_checkpoint_corruptions_total = %d, want 4", got)
	}
	if cell.Disabled() {
		t.Error("cold restarts must not consume the restart budget")
	}
}

// TestRecoverOtherVersionColdRestart: a checkpoint written in another
// image format version (here a well-formed image re-stamped as version
// 7, CRC recomputed, and stored as the newest slot) is not decoded. Recover returns ErrIncompatible,
// counts one cold restart and leaves the cold cell Admit built, which
// still schedules; Evict then removes the host's checkpoint file.
func TestRecoverOtherVersionColdRestart(t *testing.T) {
	dir := t.TempDir()
	feed := demandFeed(t, video.TwoClass(2e6, 5e6))
	first := New(WithCheckpointDir(dir))
	cell, err := first.Admit(CellSpec{Network: testNetwork(t, 33, 4, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if rep := first.Step(context.Background(), cell, feed); rep.Outcome != OutcomeOK {
		t.Fatalf("outcome %v err %v", rep.Outcome, rep.Err)
	}
	path := filepath.Join(dir, "cell0.ckpt")
	data, err := checkpoint.LoadImage(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(data[4:6], 7)
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(body):], crc32.ChecksumIEEE(body))
	if err := checkpoint.StoreImage(path, data); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	h := New(WithCheckpointDir(dir), WithMetrics(reg))
	cell, err = h.AdmitAt(0, CellSpec{Network: testNetwork(t, 33, 4, 2)})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := h.Recover(cell)
	if restored || !errors.Is(err, checkpoint.ErrIncompatible) {
		t.Fatalf("Recover = (%v, %v), want (false, ErrIncompatible)", restored, err)
	}
	if got := reg.Counter("host_cold_restarts_total").Value(); got != 1 {
		t.Errorf("host_cold_restarts_total = %d, want 1", got)
	}
	if got := reg.Counter("host_restores_total").Value(); got != 0 {
		t.Errorf("host_restores_total = %d, want 0", got)
	}
	rep := h.Step(context.Background(), cell, feed)
	if rep.Outcome != OutcomeOK || rep.Result.WarmSolve || rep.Plan.Objective <= 0 {
		t.Fatalf("cold cell: outcome %v err %v warm %v objective %v",
			rep.Outcome, rep.Err, rep.Result.WarmSolve, rep.Plan.Objective)
	}
	if rep.Epoch != 0 {
		t.Errorf("cold cell stepped epoch %d, want 0", rep.Epoch)
	}

	if err := h.Evict(0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("evicted cell's checkpoint still on disk (stat: %v)", err)
	}
}

// TestStepAll: multiple cells step concurrently under a bounded worker
// pool and report in admission order.
func TestStepAll(t *testing.T) {
	h := New(WithWorkers(2))
	for i := 0; i < 4; i++ {
		if _, err := h.Admit(CellSpec{Network: testNetwork(t, 40+int64(i), 3+i%2, 2)}); err != nil {
			t.Fatal(err)
		}
	}
	feed := demandFeed(t, video.TwoClass(2e6, 4e6))
	for epoch := 0; epoch < 2; epoch++ {
		reps := h.StepAll(context.Background(), feed)
		if len(reps) != 4 {
			t.Fatalf("got %d reports, want 4", len(reps))
		}
		for i, rep := range reps {
			if rep == nil || rep.Cell != i {
				t.Fatalf("report %d missing or misordered", i)
			}
			if rep.Outcome != OutcomeOK {
				t.Fatalf("cell %d epoch %d: outcome %v err %v", i, epoch, rep.Outcome, rep.Err)
			}
			if rep.Epoch != int64(epoch) {
				t.Fatalf("cell %d: epoch %d, want %d", i, rep.Epoch, epoch)
			}
		}
	}
}

// goroutineID parses the running goroutine's ID from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf), "goroutine "), " ")
	return id
}

// TestStepAllSingleWorkerInline: with one worker, StepAll steps every
// cell on the calling goroutine, in cell order.
func TestStepAllSingleWorkerInline(t *testing.T) {
	h := New(WithWorkers(1))
	for i := 0; i < 3; i++ {
		if _, err := h.Admit(CellSpec{Network: testNetwork(t, 50+int64(i), 3, 2)}); err != nil {
			t.Fatal(err)
		}
	}
	caller := goroutineID()
	frames := demandFeed(t, video.TwoClass(2e6, 4e6))
	var order []int
	reps := h.StepAll(context.Background(), func(c *Cell, epoch int64) [][]byte {
		if g := goroutineID(); g != caller {
			t.Errorf("cell %d stepped on goroutine %s, caller is %s", c.ID(), g, caller)
		}
		order = append(order, c.ID())
		return frames(c, epoch)
	})
	if !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Fatalf("cells stepped in order %v, want [0 1 2]", order)
	}
	for i, rep := range reps {
		if rep == nil || rep.Outcome != OutcomeOK {
			t.Fatalf("cell %d: report %+v", i, rep)
		}
	}
}
