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

// encodeV3 serializes a two-class snapshot in the version-3 layout:
// fixed HP/LP demand pairs and exactly two engine dual vectors. It is
// the reference writer for the decoder's backward-compatibility path
// (and the fuzz corpus's v3 seed); a snapshot that is not two-class
// cannot be expressed in it.
func encodeV3(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	w := &writer{buf: make([]byte, 0, 4096)}
	w.buf = append(w.buf, magic...)
	w.u16(3)
	w.u64(s.Fingerprint)
	encodeCoordV3(t, w, s.Coord)
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

func encodeCoordV3(t testing.TB, w *writer, st *pnc.CoordState) {
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
	encodeEngineV3(t, w, st.Solver)
	encodeDemandsV3(t, w, st.SolverDemands)
}

func encodeEngineV3(t testing.TB, w *writer, s *cg.StateSnapshot) {
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
	switch len(s.LastDuals) {
	case 0:
	case 2:
		hp, lpd = s.LastDuals[0], s.LastDuals[1]
	default:
		t.Fatalf("v3 cannot encode %d dual vectors", len(s.LastDuals))
	}
	encodeFloats(w, hp)
	encodeFloats(w, lpd)
	encodeStatsPreV6(w, s.Stats, false)
}

// Nonzero values the reference writers put in the retired probe cache
// counter slots of pre-v6 images, so the tests prove the decoder
// discards whatever those slots hold.
const retiredHits, retiredMisses = 17, 23

// encodeStatsPreV6 writes the engine stats block of the v2–v5 layouts:
// the probe cache hit and miss slots sit after MasterSolves, and accel
// (v5) appends the four acceleration counters.
func encodeStatsPreV6(w *writer, st cg.Stats, accel bool) {
	vals := []int{
		st.Rounds, st.Probes, st.MasterSolves,
		retiredHits, retiredMisses, st.PricerNodes,
		st.LPPivots, st.LPRefactorizations, st.LPEtaUpdates,
		st.WarmMasters, st.EvictedColumns,
	}
	if accel {
		vals = append(vals, st.StabRounds, st.HeuristicHits, st.ExactFallbacks, st.ColumnsAdded)
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
	return s, encodeV3(t, s)
}

// clearAccelState strips the engine state the pre-v5 formats cannot
// express: legacy images decode with a cold dual-stabilization center
// and zero acceleration counters.
func clearAccelState(s *Snapshot) {
	e := s.Coord.Solver
	if e == nil {
		return
	}
	e.StabCenter = nil
	e.Stats.StabRounds = 0
	e.Stats.HeuristicHits = 0
	e.Stats.ExactFallbacks = 0
	e.Stats.ColumnsAdded = 0
}

// TestDecodeV3Image: a version-3 image must decode to exactly the
// snapshot a current-format round trip of the same state produces —
// the two-class demand pairs and HP/LP dual vectors land in the
// class-indexed fields unchanged — modulo the acceleration state v3
// never carried (cold center, zero counters).
func TestDecodeV3Image(t *testing.T) {
	s, v3 := v3Snapshot(t)
	checkLegacyUpgrade(t, s, v3, clearAccelState)
}

// TestDecodeV3Empty: the "never solved" special case — a pair of empty
// dual vectors in a v3 engine block must decode to nil LastDuals, not
// a two-empty-vector slice.
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
	got, err := Decode(encodeV3(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Coord.Solver != nil && got.Coord.Solver.LastDuals != nil {
		t.Fatal("empty v3 dual pair decoded to non-nil LastDuals")
	}
}

// encodeClassAware serializes a snapshot in the version-4 or -5
// layout: class-count-aware demands and duals, and the probe cache
// counter slots v6 dropped. Version 4 has no stabilization center and
// only the eleven pre-acceleration work counters; version 5 adds both.
// It is the reference writer for the v4/v5 backward-compatibility
// paths (and the fuzz corpus's v4 and v5 seeds).
func encodeClassAware(t testing.TB, s *Snapshot, ver uint16) []byte {
	t.Helper()
	if ver != 4 && ver != 5 {
		t.Fatalf("encodeClassAware: version %d is not 4 or 5", ver)
	}
	w := &writer{buf: make([]byte, 0, 4096)}
	w.buf = append(w.buf, magic...)
	w.u16(ver)
	w.u64(s.Fingerprint)
	encodeCoordClassAware(w, s.Coord, ver == 5)
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

func encodeCoordClassAware(w *writer, st *pnc.CoordState, accel bool) {
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
	encodeEngineClassAware(w, st.Solver, accel)
	encodeDemands(w, st.SolverDemands)
}

func encodeEngineClassAware(w *writer, s *cg.StateSnapshot, accel bool) {
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
	w.u16(uint16(len(s.LastDuals)))
	for _, d := range s.LastDuals {
		encodeFloats(w, d)
	}
	if accel {
		w.u16(uint16(len(s.StabCenter)))
		for _, d := range s.StabCenter {
			encodeFloats(w, d)
		}
	}
	encodeStatsPreV6(w, s.Stats, accel)
}

// classAwareSnapshot builds a realistic snapshot (with solver state,
// injector, and last-known-good plan) plus its image in the given
// legacy version (4 or 5).
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
	return s, encodeClassAware(t, s, ver)
}

// v4Snapshot builds a realistic snapshot plus its v4 image.
func v4Snapshot(t testing.TB) (*Snapshot, []byte) { return classAwareSnapshot(t, 4, 11) }

// v5Snapshot builds a realistic snapshot plus its v5 image.
func v5Snapshot(t testing.TB) (*Snapshot, []byte) { return classAwareSnapshot(t, 5, 13) }

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
// acceleration state v4 never carried, and re-encode canonically.
func TestDecodeV4Image(t *testing.T) {
	s, v4 := v4Snapshot(t)
	checkLegacyUpgrade(t, s, v4, clearAccelState)
}

// TestDecodeV5Image: a version-5 image carries everything the current
// format does plus the two retired probe cache counter slots, which
// the decoder must discard. It decodes to exactly the current round
// trip and re-encodes canonically.
func TestDecodeV5Image(t *testing.T) {
	s, v5 := v5Snapshot(t)
	if e := s.Coord.Solver; e == nil || e.StabCenter == nil || e.Stats.ColumnsAdded == 0 {
		t.Fatal("v5 reference snapshot lacks the acceleration state it must round-trip")
	}
	checkLegacyUpgrade(t, s, v5, func(*Snapshot) {})
}
