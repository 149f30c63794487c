package checkpoint

import (
	"hash/crc32"
	"reflect"
	"testing"

	"mmwave/internal/cg"
	"mmwave/internal/core"
	"mmwave/internal/faults"
	"mmwave/internal/pnc"
	"mmwave/internal/video"
)

// legacyDuals is the engine dual state v2–v6 images carried and the
// current decoder reads and discards: the previous run's final dual
// vectors, the stabilization center (v5, v6) and the stabilized-rounds
// counter (v5, v6).
type legacyDuals struct {
	last, center [][]float64
	stabRounds   int
}

// epochDuals is the dual state a pre-v7 build wrote after res: the
// run's final duals, which were also its stabilization center (a run
// recentered on the duals it ended on), and a nonzero stabilized-rounds
// count. The reference writers put it in every legacy image, so the
// tests prove the decoder discards all of it.
func epochDuals(t testing.TB, res *pnc.EpochResult) legacyDuals {
	t.Helper()
	if res.Solver == nil || len(res.Solver.Duals.ByClass) == 0 {
		t.Fatal("reference epoch produced no duals")
	}
	d := res.Solver.Duals.ByClass
	return legacyDuals{last: d, center: d, stabRounds: 3}
}

// encodeV3 serializes a two-class snapshot in the version-3 layout:
// fixed HP/LP demand pairs and exactly two engine dual vectors. It is
// the reference writer for the decoder's backward-compatibility path
// (and the fuzz corpus's v3 seed); a snapshot that is not two-class
// cannot be expressed in it.
func encodeV3(t testing.TB, s *Snapshot, d legacyDuals) []byte {
	t.Helper()
	w := &writer{buf: make([]byte, 0, 4096)}
	w.buf = append(w.buf, magic...)
	w.u16(3)
	w.u64(s.Fingerprint)
	encodeCoordV3(t, w, s.Coord, d)
	if s.Injector != nil {
		w.u8(1)
		encodeInjector(w, s.InjectorCfg, s.Injector)
	} else {
		w.u8(0)
	}
	if s.Plan != nil {
		w.u8(1)
		encodeSchedules(w, s.Plan.Schedules)
		encodeFloats(w, s.Plan.Tau)
		w.f64(s.Plan.Objective)
		w.i64(s.PlanEpoch)
	} else {
		w.u8(0)
	}
	w.u32(crc32.ChecksumIEEE(w.buf))
	return w.buf
}

func encodeDemandsV3(t testing.TB, w *writer, ds []video.Demand) {
	t.Helper()
	w.u32(uint32(len(ds)))
	for _, d := range ds {
		if d.NumClasses() > 2 {
			t.Fatalf("v3 cannot encode a %d-class demand", d.NumClasses())
		}
		w.f64(d.At(0))
		w.f64(d.At(1))
	}
}

func encodeCoordV3(t testing.TB, w *writer, st *pnc.CoordState, d legacyDuals) {
	t.Helper()
	w.i64(st.Epoch)
	encodeDemandsV3(t, w, st.Demands)
	w.u32(uint32(len(st.Seen)))
	for _, s := range st.Seen {
		w.boolean(s)
	}
	encodeDemandsV3(t, w, st.LastGood)
	w.u32(uint32(len(st.LastAge)))
	for _, a := range st.LastAge {
		w.i64(int64(a))
	}
	w.u32(uint32(len(st.Delayed)))
	for _, f := range st.Delayed {
		w.bytes(f)
	}
	w.i64(st.Retries)
	w.i64(st.LostFrames)
	w.f64(st.BackoffSec)
	w.i64(st.Control.BitsSent)
	w.i64(st.Control.MsgsSent)
	w.f64(st.Control.Airtime)
	w.f64(st.EpochAirStart)
	w.i64(st.EpochMsgStart)
	w.u64(st.SolverFP)
	if st.Solver == nil {
		w.u8(0)
		return
	}
	w.u8(1)
	encodeEngineV3(t, w, st.Solver, d)
	encodeDemandsV3(t, w, st.SolverDemands)
}

func encodeEngineV3(t testing.TB, w *writer, s *cg.StateSnapshot, d legacyDuals) {
	t.Helper()
	encodeSchedules(w, s.Schedules)
	w.i64(int64(s.SeedLen))
	w.u32(uint32(len(s.WarmBasis)))
	for _, b := range s.WarmBasis {
		w.u8(uint8(b.Kind))
		w.i64(int64(b.Index))
	}
	w.u32(uint32(len(s.LastBasic)))
	for _, v := range s.LastBasic {
		w.i64(int64(v))
	}
	w.i64(int64(s.Runs))
	// v3 wrote exactly two dual vectors, HP then LP (both empty when no
	// run had happened yet).
	var hp, lpd []float64
	switch len(d.last) {
	case 0:
	case 2:
		hp, lpd = d.last[0], d.last[1]
	default:
		t.Fatalf("v3 cannot encode %d dual vectors", len(d.last))
	}
	encodeFloats(w, hp)
	encodeFloats(w, lpd)
	encodeLegacyStats(w, s.Stats, 3, d)
}

// Nonzero values the reference writers put in the retired probe cache
// counter slots of pre-v6 images, so the tests prove the decoder
// discards whatever those slots hold.
const retiredHits, retiredMisses = 17, 23

// encodeLegacyStats writes the engine stats block of the v2–v6 layouts:
// the probe cache hit and miss slots sit after MasterSolves up to v5,
// and v5 and v6 append the stabilized-rounds slot and the three
// acceleration counters.
func encodeLegacyStats(w *writer, st cg.Stats, ver uint16, d legacyDuals) {
	vals := []int{st.Rounds, st.Probes, st.MasterSolves}
	if ver <= 5 {
		vals = append(vals, retiredHits, retiredMisses)
	}
	vals = append(vals, st.PricerNodes,
		st.LPPivots, st.LPRefactorizations, st.LPEtaUpdates,
		st.WarmMasters, st.EvictedColumns)
	if ver >= 5 {
		vals = append(vals, d.stabRounds, st.HeuristicHits, st.ExactFallbacks, st.ColumnsAdded)
	}
	for _, v := range vals {
		w.i64(int64(v))
	}
}

// v3Snapshot builds a realistic two-class snapshot (with solver state,
// injector, and last-known-good plan) plus its v3 image.
func v3Snapshot(t testing.TB) (*Snapshot, []byte) {
	t.Helper()
	nw := testNetwork(t, 31, 4, 2)
	coord, err := pnc.NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reportAll(t, coord, 4, video.TwoClass(2e6, 4e6))
	res, err := coord.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.New(faults.Config{CtrlLoss: 0.1, CellPanic: 0.05, Seed: 7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := Capture(coord, inj)
	s.Plan = &res.Plan
	s.PlanEpoch = 1
	return s, encodeV3(t, s, epochDuals(t, res))
}

// clearAccelState strips the engine state the pre-v5 formats cannot
// express: legacy images decode with zero acceleration counters.
func clearAccelState(s *Snapshot) {
	e := s.Coord.Solver
	if e == nil {
		return
	}
	e.Stats.HeuristicHits = 0
	e.Stats.ExactFallbacks = 0
	e.Stats.ColumnsAdded = 0
}

// TestDecodeV3Image: a version-3 image must decode to exactly the
// snapshot a current-format round trip of the same state produces —
// the two-class demand pairs land in the class-indexed fields
// unchanged and the HP/LP dual vectors are discarded — modulo the
// acceleration counters v3 never carried.
func TestDecodeV3Image(t *testing.T) {
	s, v3 := v3Snapshot(t)
	checkLegacyUpgrade(t, s, v3, clearAccelState)
}

// TestDecodeV3EmptyDuals: the "never solved" special case — a v3 image
// of a coordinator that has not solved yet decodes cleanly, with no
// engine state.
func TestDecodeV3EmptyDuals(t *testing.T) {
	nw := testNetwork(t, 32, 3, 2)
	coord, err := pnc.NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := Capture(coord, nil)
	if s.Coord.Solver != nil {
		t.Skip("fresh coordinator unexpectedly exported solver state")
	}
	got, err := Decode(encodeV3(t, s, legacyDuals{}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Coord.Solver != nil {
		t.Fatal("v3 image without engine state decoded to a solver snapshot")
	}
}

// encodeClassAware serializes a snapshot in the version-4, -5 or -6
// layout: class-count-aware demands and dual vectors. Version 4 has no
// stabilization center and only the eleven pre-acceleration work
// counters; version 5 adds the center, the stabilized-rounds slot and
// the three acceleration counters; version 6 drops the probe cache
// counter slots. It is the reference writer for the v4–v6
// backward-compatibility paths (and the fuzz corpus's v4–v6 seeds).
func encodeClassAware(t testing.TB, s *Snapshot, ver uint16, d legacyDuals) []byte {
	t.Helper()
	if ver < 4 || ver > 6 {
		t.Fatalf("encodeClassAware: version %d is not 4, 5 or 6", ver)
	}
	w := &writer{buf: make([]byte, 0, 4096)}
	w.buf = append(w.buf, magic...)
	w.u16(ver)
	w.u64(s.Fingerprint)
	encodeCoordClassAware(w, s.Coord, ver, d)
	if s.Injector != nil {
		w.u8(1)
		encodeInjector(w, s.InjectorCfg, s.Injector)
	} else {
		w.u8(0)
	}
	if s.Plan != nil {
		w.u8(1)
		encodeSchedules(w, s.Plan.Schedules)
		encodeFloats(w, s.Plan.Tau)
		w.f64(s.Plan.Objective)
		w.i64(s.PlanEpoch)
	} else {
		w.u8(0)
	}
	w.u32(crc32.ChecksumIEEE(w.buf))
	return w.buf
}

func encodeCoordClassAware(w *writer, st *pnc.CoordState, ver uint16, d legacyDuals) {
	w.i64(st.Epoch)
	encodeDemands(w, st.Demands)
	w.u32(uint32(len(st.Seen)))
	for _, s := range st.Seen {
		w.boolean(s)
	}
	encodeDemands(w, st.LastGood)
	w.u32(uint32(len(st.LastAge)))
	for _, a := range st.LastAge {
		w.i64(int64(a))
	}
	w.u32(uint32(len(st.Delayed)))
	for _, f := range st.Delayed {
		w.bytes(f)
	}
	w.i64(st.Retries)
	w.i64(st.LostFrames)
	w.f64(st.BackoffSec)
	w.i64(st.Control.BitsSent)
	w.i64(st.Control.MsgsSent)
	w.f64(st.Control.Airtime)
	w.f64(st.EpochAirStart)
	w.i64(st.EpochMsgStart)
	w.u64(st.SolverFP)
	if st.Solver == nil {
		w.u8(0)
		return
	}
	w.u8(1)
	encodeEngineClassAware(w, st.Solver, ver, d)
	encodeDemands(w, st.SolverDemands)
}

func encodeEngineClassAware(w *writer, s *cg.StateSnapshot, ver uint16, d legacyDuals) {
	encodeSchedules(w, s.Schedules)
	w.i64(int64(s.SeedLen))
	w.u32(uint32(len(s.WarmBasis)))
	for _, b := range s.WarmBasis {
		w.u8(uint8(b.Kind))
		w.i64(int64(b.Index))
	}
	w.u32(uint32(len(s.LastBasic)))
	for _, v := range s.LastBasic {
		w.i64(int64(v))
	}
	w.i64(int64(s.Runs))
	w.u16(uint16(len(d.last)))
	for _, v := range d.last {
		encodeFloats(w, v)
	}
	if ver >= 5 {
		w.u16(uint16(len(d.center)))
		for _, v := range d.center {
			encodeFloats(w, v)
		}
	}
	encodeLegacyStats(w, s.Stats, ver, d)
}

// classAwareSnapshot builds a realistic snapshot (with solver state,
// injector, and last-known-good plan) plus its image in the given
// legacy version (4, 5 or 6).
func classAwareSnapshot(t testing.TB, ver uint16, seed int64) (*Snapshot, []byte) {
	t.Helper()
	nw := testNetwork(t, 41, 4, 2)
	coord, err := pnc.NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reportAll(t, coord, 4, video.TwoClass(3e6, 5e6))
	res, err := coord.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.New(faults.Config{CtrlLoss: 0.1, CellPanic: 0.05, Seed: seed}, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := Capture(coord, inj)
	s.Plan = &res.Plan
	s.PlanEpoch = 1
	return s, encodeClassAware(t, s, ver, epochDuals(t, res))
}

// v4Snapshot builds a realistic snapshot plus its v4 image.
func v4Snapshot(t testing.TB) (*Snapshot, []byte) { return classAwareSnapshot(t, 4, 11) }

// v5Snapshot builds a realistic snapshot plus its v5 image.
func v5Snapshot(t testing.TB) (*Snapshot, []byte) { return classAwareSnapshot(t, 5, 13) }

// v6Snapshot builds a realistic snapshot plus its v6 image.
func v6Snapshot(t testing.TB) (*Snapshot, []byte) { return classAwareSnapshot(t, 6, 17) }

// checkLegacyUpgrade requires a legacy image to decode to exactly the
// snapshot a current-format round trip of s produces — after strip
// removes the state the legacy format cannot express — and to
// re-encode to the canonical current-format image of that state.
func checkLegacyUpgrade(t *testing.T, s *Snapshot, legacy []byte, strip func(*Snapshot)) {
	t.Helper()
	cur, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(cur)
	if err != nil {
		t.Fatal(err)
	}
	strip(want)
	got, err := Decode(legacy)
	if err != nil {
		t.Fatalf("legacy image rejected: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy decode differs from current round trip:\nlegacy: %+v\ncur: %+v", got.Coord, want.Coord)
	}
	up, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	canon, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(up, canon) {
		t.Fatal("re-encoded legacy snapshot is not the canonical current-format image")
	}
}

// TestDecodeV4Image: a version-4 image must decode to exactly the
// snapshot a current-format round trip produces, modulo the
// acceleration counters v4 never carried, and re-encode canonically.
// Its dual vectors are discarded.
func TestDecodeV4Image(t *testing.T) {
	s, v4 := v4Snapshot(t)
	checkLegacyUpgrade(t, s, v4, clearAccelState)
}

// TestDecodeV5Image: version-5 and -6 images carry everything the
// current format does plus the retired dual state — the last dual
// vectors, a non-nil stabilization center and the stabilized-rounds
// slot — and, in v5, the two retired probe cache counter slots. The
// decoder must discard all of it: each image decodes to exactly the
// current round trip and re-encodes to the canonical v7 image.
func TestDecodeV5Image(t *testing.T) {
	for _, build := range []func(testing.TB) (*Snapshot, []byte){v5Snapshot, v6Snapshot} {
		s, legacy := build(t)
		if e := s.Coord.Solver; e == nil || e.Stats.ColumnsAdded == 0 {
			t.Fatal("reference snapshot lacks the acceleration counters it must round-trip")
		}
		checkLegacyUpgrade(t, s, legacy, func(*Snapshot) {})
	}
}
