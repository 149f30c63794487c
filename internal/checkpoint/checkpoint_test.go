package checkpoint

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mmwave/internal/channel"
	"mmwave/internal/core"
	"mmwave/internal/faults"
	"mmwave/internal/geom"
	"mmwave/internal/netmodel"
	"mmwave/internal/pnc"
	"mmwave/internal/video"
)

// testNetwork builds a servable Table-I instance (the pnc test idiom).
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
	}
}

func reportAll(t testing.TB, c *pnc.Coordinator, n int, d video.Demand) {
	t.Helper()
	for l := 0; l < n; l++ {
		frame, err := pnc.DemandReport{Link: uint16(l), Demand: d}.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Ingest(frame); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRoundTripProperty is the acceptance-criteria property test:
// across ≥ 50 seeded instances, snapshot → encode → decode → restore →
// solve is byte-identical (plan bytes, CG iteration and pivot counts)
// to the uninterrupted coordinator.
func TestRoundTripProperty(t *testing.T) {
	const instances = 50
	for seed := int64(0); seed < instances; seed++ {
		nLinks := 3 + int(seed%4)
		nChannels := 2 + int(seed%2)
		nw := testNetwork(t, 100+seed, nLinks, nChannels)
		live, err := pnc.NewCoordinator(nw, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		d := video.TwoClass(3e6+1e6*float64(seed%3), 5e6)
		reportAll(t, live, nLinks, d)
		if _, err := live.RunEpoch(context.Background()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// Checkpoint through the full binary path.
		data, err := Capture(live, nil).Encode()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		snap, err := Decode(data)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		restored, err := pnc.NewCoordinator(nw, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := snap.Restore(restored); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}

		// Both continue with the same next-epoch demands.
		d2 := video.TwoClass(d.At(0)*1.2, d.At(1)*0.8)
		reportAll(t, live, nLinks, d2)
		reportAll(t, restored, nLinks, d2)
		a, err := live.RunEpoch(context.Background())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := restored.RunEpoch(context.Background())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// Byte-identical plans: compare the encoded grants themselves.
		if len(a.Grants) != len(b.Grants) {
			t.Fatalf("seed %d: %d grants != %d", seed, len(a.Grants), len(b.Grants))
		}
		for i := range a.Grants {
			if !bytes.Equal(a.Grants[i], b.Grants[i]) {
				t.Fatalf("seed %d: grant %d bytes differ", seed, i)
			}
		}
		if a.Plan.Objective != b.Plan.Objective {
			t.Fatalf("seed %d: objective %v != %v", seed, a.Plan.Objective, b.Plan.Objective)
		}
		// Identical solver work: same CG iterations, same pivots.
		if len(a.Solver.Iterations) != len(b.Solver.Iterations) {
			t.Fatalf("seed %d: iterations %d != %d", seed, len(a.Solver.Iterations), len(b.Solver.Iterations))
		}
		if a.Solver.LPPivots != b.Solver.LPPivots {
			t.Fatalf("seed %d: pivots %d != %d", seed, a.Solver.LPPivots, b.Solver.LPPivots)
		}
		if !b.WarmSolve {
			t.Fatalf("seed %d: restored epoch did not warm-start", seed)
		}
	}
}

// TestCorruptionDetected: every bit flip and truncation of a valid
// image must be detected (ErrCorrupt or ErrIncompatible, for flips
// landing in the version field) — never a successful decode, never a
// panic — and the caller's cold-start fallback must work.
func TestCorruptionDetected(t *testing.T) {
	nw := testNetwork(t, 3, 4, 2)
	coord, err := pnc.NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reportAll(t, coord, 4, video.TwoClass(2e6, 4e6))
	if _, err := coord.RunEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	inj, err := faults.New(faults.Config{CtrlLoss: 0.1, CellPanic: 0.05, Seed: 9}, 4)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Capture(coord, inj).Encode()
	if err != nil {
		t.Fatal(err)
	}

	// Single-byte flips at every offset.
	for off := 0; off < len(data); off++ {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x41
		if _, err := Decode(bad); err == nil {
			t.Fatalf("flip at offset %d decoded successfully", off)
		} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrIncompatible) {
			t.Fatalf("flip at offset %d: unexpected error %v", off, err)
		}
	}
	// Truncations at every length.
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrCorrupt", n, err)
		}
	}
	// Injector-driven corruption (the chaos-soak path).
	chaos, err := faults.New(faults.Config{CkptCorrupt: 1, Seed: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := Decode(chaos.CorruptCheckpoint(data)); err == nil {
			t.Fatalf("iteration %d: corrupted image decoded successfully", i)
		}
	}

	// Cold-start fallback: a fresh coordinator on the same network
	// still schedules after the checkpoint is lost.
	cold, err := pnc.NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reportAll(t, cold, 4, video.TwoClass(2e6, 4e6))
	if _, err := cold.RunEpoch(context.Background()); err != nil {
		t.Fatalf("cold-start fallback failed: %v", err)
	}
}

// TestFingerprintIncompatible: restoring onto a different problem
// instance is refused.
func TestFingerprintIncompatible(t *testing.T) {
	nw := testNetwork(t, 5, 4, 2)
	coord, err := pnc.NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reportAll(t, coord, 4, video.TwoClass(2e6, 2e6))
	if _, err := coord.RunEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := Capture(coord, nil)

	other := testNetwork(t, 6, 4, 2)
	target, err := pnc.NewCoordinator(other, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Restore(target); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("restore onto different network: got %v, want ErrIncompatible", err)
	}
	if NetworkFingerprint(nw) == NetworkFingerprint(other) {
		t.Fatal("distinct networks share a fingerprint")
	}
	if NetworkFingerprint(nw) != NetworkFingerprint(nw) {
		t.Fatal("fingerprint not deterministic")
	}
}

// restamp returns a copy of a valid image relabelled as format version
// v, with its CRC recomputed so only the version is wrong.
func restamp(data []byte, v uint16) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(out[4:6], v)
	body := out[:len(out)-trailerLen]
	binary.LittleEndian.PutUint32(out[len(body):], crc32.ChecksumIEEE(body))
	return out
}

// TestOtherVersionsIncompatible: the decoder reads exactly one format.
// A well-formed image of any other version — a retired one or a future
// one — is ErrIncompatible, never decoded and never ErrCorrupt.
func TestOtherVersionsIncompatible(t *testing.T) {
	nw := testNetwork(t, 9, 4, 2)
	coord, err := pnc.NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reportAll(t, coord, 4, video.TwoClass(2e6, 4e6))
	if _, err := coord.RunEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	data, err := Capture(coord, nil).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(restamp(data, version)); err != nil {
		t.Fatalf("restamping at the current version broke the image: %v", err)
	}
	for _, v := range []uint16{0, 2, 3, 6, 7, 8, version + 1} {
		if _, err := Decode(restamp(data, v)); !errors.Is(err, ErrIncompatible) {
			t.Errorf("version %d image: got %v, want ErrIncompatible", v, err)
		}
	}
}

// TestSaveLoadAtomic: Save overwrites the older of the file's two
// slots in place — a reload sees the newest intact image, which is
// the previous one until the new slot is whole — no temp file is left
// behind, and Load round-trips exactly.
func TestSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cell0.ckpt")

	nw := testNetwork(t, 7, 4, 2)
	coord, err := pnc.NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reportAll(t, coord, 4, video.TwoClass(2e6, 3e6))
	if _, err := coord.RunEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	inj, err := faults.New(faults.Config{SolveHang: 0.1, Seed: 11}, 4)
	if err != nil {
		t.Fatal(err)
	}
	snap := Capture(coord, inj)
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatal("loaded snapshot differs from saved")
	}

	// Overwrite with a later epoch; reload sees the new state.
	reportAll(t, coord, 4, video.TwoClass(2e6, 3e6))
	if _, err := coord.RunEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, Capture(coord, inj)); err != nil {
		t.Fatal(err)
	}
	got2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Coord.Epoch != snap.Coord.Epoch+1 {
		t.Fatalf("reloaded epoch %d, want %d", got2.Coord.Epoch, snap.Coord.Epoch+1)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}

	if _, err := Load(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

// TestEncodeDecodeExact: decode ∘ encode is the identity on the wire
// image (the format is canonical), and the injector config/state
// round-trip exactly.
func TestEncodeDecodeExact(t *testing.T) {
	nw := testNetwork(t, 8, 5, 3)
	coord, err := pnc.NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reportAll(t, coord, 5, video.TwoClass(4e6, 6e6))
	if _, err := coord.RunEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	cfg := faults.Config{
		CtrlLoss: 0.1, CtrlCorrupt: 0.02, CtrlDelay: 0.03, StaleCSI: 0.2,
		NodeDropout: 0.01, NodeRecover: 0.6,
		CellPanic: 0.02, SolveHang: 0.02, KillRestore: 0.1, CkptCorrupt: 0.3,
		Seed: 77,
	}
	inj, err := faults.New(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		inj.FrameFate()
		inj.StepEpoch()
		inj.DrawProcFaults()
	}
	snap := Capture(coord, inj)
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatal("decoded snapshot differs from original")
	}
	data2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-encoding is not canonical")
	}

	// The restored injector must continue the original's stream.
	rinj, err := got.RestoreInjector()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if a, b := inj.DrawProcFaults(), rinj.DrawProcFaults(); a != b {
			t.Fatalf("draw %d: %+v != %+v", i, a, b)
		}
		if a, b := inj.FrameFate(), rinj.FrameFate(); a != b {
			t.Fatalf("draw %d: frame fate %v != %v", i, a, b)
		}
	}
}
