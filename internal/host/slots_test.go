package host

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mmwave/internal/checkpoint"
	"mmwave/internal/faults"
	"mmwave/internal/obs"
	"mmwave/internal/video"
)

// slotHeaderLen is the slot header of the checkpoint file layout
// (magic, seq, len, CRC), so a test can reach into a slot's image.
const slotHeaderLen = 20

// steppedCheckpoint runs a fresh on-disk host's cell 0 for epochs
// epochs and returns the checkpoint path and the slot capacity.
func steppedCheckpoint(t *testing.T, dir string, seed int64, epochs int) (string, int64) {
	t.Helper()
	h := New(WithCheckpointDir(dir))
	cell, err := h.Admit(CellSpec{Network: testNetwork(t, seed, 4, 2)})
	if err != nil {
		t.Fatal(err)
	}
	feed := demandFeed(t, video.TwoClass(2e6, 5e6))
	for i := 0; i < epochs; i++ {
		if rep := h.Step(context.Background(), cell, feed); rep.Outcome != OutcomeOK {
			t.Fatalf("epoch %d: outcome %v err %v", i, rep.Outcome, rep.Err)
		}
	}
	path := filepath.Join(dir, "cell0.ckpt")
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, st.Size() / 2
}

// tear overwrites part of a slot's image, as a write cut short by a
// crash would leave it.
func tear(t *testing.T, path string, slot int, capacity int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte("torn write"), int64(slot)*capacity+slotHeaderLen+100); err != nil {
		t.Fatal(err)
	}
}

// recoverCell admits cell 0 of a fresh host over dir and recovers it.
func recoverCell(t *testing.T, dir string, seed int64) (*Host, *Cell, *obs.Registry, bool, error) {
	t.Helper()
	reg := obs.NewRegistry()
	h := New(WithCheckpointDir(dir), WithMetrics(reg))
	cell, err := h.AdmitAt(0, CellSpec{Network: testNetwork(t, seed, 4, 2)})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := h.Recover(cell)
	return h, cell, reg, restored, err
}

// coldButScheduling asserts a recovered-cold cell counted one cold
// restart, still schedules from epoch 0, and that Evict then removes
// its checkpoint file.
func coldButScheduling(t *testing.T, h *Host, cell *Cell, reg *obs.Registry, path string) {
	t.Helper()
	if got := reg.Counter("host_cold_restarts_total").Value(); got != 1 {
		t.Errorf("host_cold_restarts_total = %d, want 1", got)
	}
	if got := reg.Counter("host_restores_total").Value(); got != 0 {
		t.Errorf("host_restores_total = %d, want 0", got)
	}
	rep := h.Step(context.Background(), cell, demandFeed(t, video.TwoClass(2e6, 5e6)))
	if rep.Outcome != OutcomeOK || rep.Result.WarmSolve || rep.Plan.Objective <= 0 || rep.Epoch != 0 {
		t.Fatalf("cold cell: outcome %v err %v warm %v objective %v epoch %d",
			rep.Outcome, rep.Err, rep.Result.WarmSolve, rep.Plan.Objective, rep.Epoch)
	}
	// The cell's first checkpoint replaced the unreadable file.
	if _, err := checkpoint.Load(path); err != nil {
		t.Fatalf("checkpoint after the cold epoch: %v", err)
	}
	if err := h.Evict(cell.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("evicted cell's checkpoint still on disk (stat: %v)", err)
	}
}

// TestRecoverTornTargetSlot: a crash while writing the third epoch's
// checkpoint tears the older slot; Recover restores the second
// epoch's image, which the other slot still holds.
func TestRecoverTornTargetSlot(t *testing.T) {
	dir := t.TempDir()
	path, capacity := steppedCheckpoint(t, dir, 37, 2)
	tear(t, path, 0, capacity)
	h, cell, reg, restored, err := recoverCell(t, dir, 37)
	if !restored || err != nil {
		t.Fatalf("Recover = (%v, %v), want (true, nil)", restored, err)
	}
	if got := reg.Counter("host_restores_total").Value(); got != 1 {
		t.Errorf("host_restores_total = %d, want 1", got)
	}
	if cell.Epoch() != 2 {
		t.Errorf("recovered at epoch %d, want 2", cell.Epoch())
	}
	rep := h.Step(context.Background(), cell, demandFeed(t, video.TwoClass(2e6, 5e6)))
	if rep.Outcome != OutcomeOK || !rep.Result.WarmSolve {
		t.Fatalf("recovered cell: outcome %v err %v warm %v", rep.Outcome, rep.Err, rep.Result.WarmSolve)
	}
}

// TestRecoverBothSlotsTornColdRestart: with both slots torn the file
// holds no intact image. Recover returns ErrCorrupt and counts a cold
// restart; the cold cell still schedules.
func TestRecoverBothSlotsTornColdRestart(t *testing.T) {
	dir := t.TempDir()
	path, capacity := steppedCheckpoint(t, dir, 41, 2)
	tear(t, path, 0, capacity)
	tear(t, path, 1, capacity)
	h, cell, reg, restored, err := recoverCell(t, dir, 41)
	if restored || !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("Recover = (%v, %v), want (false, ErrCorrupt)", restored, err)
	}
	coldButScheduling(t, h, cell, reg, path)
}

// TestRecoverBareImageColdRestart: a checkpoint file holding a bare
// image, as builds before the slot file wrote it, is ErrIncompatible:
// a counted cold restart, and the cell still schedules.
func TestRecoverBareImageColdRestart(t *testing.T) {
	dir := t.TempDir()
	path, _ := steppedCheckpoint(t, dir, 43, 1)
	image, err := checkpoint.LoadImage(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Decode(image); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	h, cell, reg, restored, err := recoverCell(t, dir, 43)
	if restored || !errors.Is(err, checkpoint.ErrIncompatible) {
		t.Fatalf("Recover = (%v, %v), want (false, ErrIncompatible)", restored, err)
	}
	coldButScheduling(t, h, cell, reg, path)
}

// TestOnDiskCorruptionNotMasked: an injected checkpoint corruption is
// stored as the newest slot, so the kill-restore that follows finds
// it, fails to decode it and cold-restarts; the older, good slot never
// stands in for it. Epochs whose image was not corrupted restore.
func TestOnDiskCorruptionNotMasked(t *testing.T) {
	reg := obs.NewRegistry()
	h := New(WithCheckpointDir(t.TempDir()), WithMetrics(reg))
	cell, err := h.Admit(CellSpec{
		Network: testNetwork(t, 47, 4, 2),
		Faults:  &faults.Config{KillRestore: 1, CkptCorrupt: 0.5, Seed: 13},
	})
	if err != nil {
		t.Fatal(err)
	}
	feed := demandFeed(t, video.TwoClass(2e6, 5e6))
	var corrupted, clean int
	for epoch := 0; epoch < 12; epoch++ {
		rep := h.Step(context.Background(), cell, feed)
		if rep.Outcome != OutcomeOK {
			t.Fatalf("epoch %d: outcome %v err %v", epoch, rep.Outcome, rep.Err)
		}
		if rep.Injected.Corrupt {
			corrupted++
			if !rep.ColdRestarted || rep.Restored {
				t.Fatalf("epoch %d: corrupted image restored (cold %v restored %v)", epoch, rep.ColdRestarted, rep.Restored)
			}
		} else {
			clean++
			if !rep.Restored || rep.ColdRestarted {
				t.Fatalf("epoch %d: clean image not restored (cold %v restored %v)", epoch, rep.ColdRestarted, rep.Restored)
			}
		}
	}
	if corrupted == 0 || clean == 0 {
		t.Fatalf("seed drew %d corrupted and %d clean epochs; the test needs both", corrupted, clean)
	}
	if got := reg.Counter("host_cold_restarts_total").Value(); got != int64(corrupted) {
		t.Errorf("host_cold_restarts_total = %d, want %d", got, corrupted)
	}
}
