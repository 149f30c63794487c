// Package checkpoint persists a coordinator's durable state — the
// pnc.CoordState (demand fallbacks, control accounting, epoch counter,
// and the cg engine snapshot: schedule pool, warm basis, GC stamps)
// plus the fault injector's RNG position — as a CRC-guarded binary
// image, persisted in place in a two-slot file (see StoreImage). A
// restored coordinator re-solves byte-identically to the one that wrote
// the snapshot (see internal/pnc.ImportState and the chaos soak in
// internal/host), which is what makes a supervised restart invisible
// to the data plane.
//
// Image layout (little-endian):
//
//	magic "MWCK" | version u16 | problem fingerprint u64 | payload | CRC32(IEEE) u32
//
// The CRC covers every byte before it; any flip or truncation yields
// ErrCorrupt, never a panic or a silently wrong restore. There is one
// format, read only by the build that writes it: an image of any other
// version yields ErrIncompatible, and the caller restarts cold. The
// problem fingerprint is netmodel.Network.Fingerprint of the network
// the coordinator schedules; restoring onto a network with a different
// fingerprint yields ErrIncompatible too, so a snapshot can never leak
// schedules across problem instances.
//
// Slot file layout (little-endian), two slots of capacity C each:
//
//	slot: magic "MWSL" | seq u64 | len u32 | CRC32(IEEE) u32 | image
//
// The file is 2C bytes and C is a power of two of at least 4096, so a
// torn write reaches only the slot being written. The slot CRC covers
// seq, len and the image bytes exactly as stored. StoreImage overwrites
// the older slot in place with the next seq and fsyncs; LoadImage
// returns the intact slot with the highest seq. The slot layer only
// proves the bytes reached the disk whole: an image corrupted before
// it was stored is stored whole, returned as the newest, and fails
// Decode, so the older slot never stands in for it.
package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"

	"mmwave/internal/cg"
	"mmwave/internal/core"
	"mmwave/internal/faults"
	"mmwave/internal/lp"
	"mmwave/internal/netmodel"
	"mmwave/internal/pnc"
	"mmwave/internal/schedule"
	"mmwave/internal/video"
)

// Sentinel errors callers branch on with errors.Is.
var (
	// ErrCorrupt reports an image that failed structural validation:
	// bad magic, bad CRC, truncation, or an internally inconsistent
	// payload. The caller's recovery is a cold start.
	ErrCorrupt = errors.New("checkpoint: corrupt snapshot")

	// ErrIncompatible reports a well-formed image that cannot be
	// restored here: a format version other than this build's, or a
	// problem fingerprint that no longer matches the target network.
	ErrIncompatible = errors.New("checkpoint: incompatible snapshot")
)

const (
	magic = "MWCK"
	// version is the one image format this build writes and reads.
	// Any other version — older or newer — is ErrIncompatible, and the
	// caller restarts the cell cold, exactly as for a corrupt image.
	// Version 8 is the first whose CoordState.SolverFP holds the whole-
	// network fingerprint (netmodel.Network.Fingerprint); version 9
	// drops the retired blockage fault class from the injector image
	// (its two config fields and its stream's draw count); version 10
	// drops the two always-zero heuristic-pricing counters from the
	// engine stats.
	version = 10
	// headerLen is magic + version + fingerprint; trailerLen the CRC.
	headerLen  = 4 + 2 + 8
	trailerLen = 4
)

// Snapshot is one coordinator checkpoint: the durable coordinator
// state, the fault injector's position (nil when the cell runs without
// injection), and the problem fingerprint both were captured under.
type Snapshot struct {
	Fingerprint uint64
	Coord       *pnc.CoordState
	// InjectorCfg/Injector restore the injector RNG-exactly; Injector
	// is nil when no injector was captured.
	InjectorCfg faults.Config
	Injector    *faults.InjectorState
	// Plan/PlanEpoch carry the supervisor's last-known-good plan (nil
	// when the cell had none), so a restarted host serves the data
	// plane immediately instead of waiting for its first fresh solve.
	Plan      *core.Plan
	PlanEpoch int64
}

// NetworkFingerprint is nw.Fingerprint(): the problem-instance hash
// a snapshot is captured under and checked against on restore.
func NetworkFingerprint(nw *netmodel.Network) uint64 { return nw.Fingerprint() }

// Capture snapshots a coordinator (and optionally its fault injector)
// at an epoch boundary. The coordinator keeps running; the snapshot
// shares no mutable memory with it.
func Capture(coord *pnc.Coordinator, inj *faults.Injector) *Snapshot {
	s := &Snapshot{
		Fingerprint: NetworkFingerprint(coord.Network),
		Coord:       coord.ExportState(),
	}
	if inj != nil {
		s.InjectorCfg = inj.Config()
		st := inj.Checkpoint()
		s.Injector = &st
	}
	return s
}

// Restore loads the snapshot into a coordinator built over the same
// problem instance. A fingerprint mismatch is ErrIncompatible and
// leaves the coordinator unchanged.
func (s *Snapshot) Restore(coord *pnc.Coordinator) error {
	if fp := NetworkFingerprint(coord.Network); fp != s.Fingerprint {
		return fmt.Errorf("%w: snapshot fingerprint %#x, network %#x", ErrIncompatible, s.Fingerprint, fp)
	}
	return coord.ImportState(s.Coord)
}

// RestoreInjector rebuilds the captured fault injector, or returns nil
// when the snapshot carries none.
func (s *Snapshot) RestoreInjector() (*faults.Injector, error) {
	if s.Injector == nil {
		return nil, nil
	}
	return faults.RestoreInjector(s.InjectorCfg, *s.Injector)
}

// Encode serializes the snapshot.
func (s *Snapshot) Encode() ([]byte, error) {
	if s.Coord == nil {
		return nil, errors.New("checkpoint: snapshot has no coordinator state")
	}
	w := &writer{buf: make([]byte, 0, 4096)}
	w.buf = append(w.buf, magic...)
	w.u16(version)
	w.u64(s.Fingerprint)
	encodeCoord(w, s.Coord)
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
	return w.buf, nil
}

// Decode parses and structurally validates an encoded snapshot. Every
// corruption — flipped bytes, truncation, forged lengths — surfaces as
// ErrCorrupt; any format version but this build's as ErrIncompatible.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < headerLen+1+trailerLen || string(data[:4]) != magic {
		return nil, fmt.Errorf("%w: missing header", ErrCorrupt)
	}
	body, sum := data[:len(data)-trailerLen], data[len(data)-trailerLen:]
	if crc32.ChecksumIEEE(body) != uint32(sum[0])|uint32(sum[1])<<8|uint32(sum[2])<<16|uint32(sum[3])<<24 {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	r := &reader{buf: body, off: 4}
	v := r.u16()
	if v != version {
		return nil, fmt.Errorf("%w: format version %d, this build reads %d", ErrIncompatible, v, version)
	}
	s := &Snapshot{Fingerprint: r.u64()}
	s.Coord = decodeCoord(r)
	if r.err == nil && r.boolean() {
		s.InjectorCfg, s.Injector = decodeInjector(r)
	}
	if r.err == nil && r.boolean() {
		s.Plan = &core.Plan{
			Schedules: decodeSchedules(r),
			Tau:       decodeFloats(r),
			Objective: r.f64(),
		}
		s.PlanEpoch = r.i64()
	}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// Semantic validation on top of the structural pass: the CRC proves
	// the bytes survived the disk, not that they were sane when written.
	if err := s.Coord.Validate(len(s.Coord.Demands)); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if s.Injector != nil {
		if err := s.InjectorCfg.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if err := s.Injector.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	if s.Plan != nil && len(s.Plan.Tau) != len(s.Plan.Schedules) {
		return nil, fmt.Errorf("%w: plan carries %d schedules but %d shares",
			ErrCorrupt, len(s.Plan.Schedules), len(s.Plan.Tau))
	}
	return s, nil
}

// --- payload codecs ---

func encodeDemands(w *writer, ds []video.Demand) {
	w.u32(uint32(len(ds)))
	for _, d := range ds {
		w.u16(uint16(len(d)))
		for _, v := range d {
			w.f64(v)
		}
	}
}

func decodeDemands(r *reader) []video.Demand {
	n := r.count()
	if r.err != nil {
		return nil
	}
	ds := make([]video.Demand, n)
	for i := range ds {
		nc := int(r.u16())
		if nc == 0 {
			continue // nil demand round-trips as nil
		}
		d := make(video.Demand, nc)
		for c := range d {
			d[c] = r.f64()
		}
		ds[i] = d
	}
	return ds
}

func encodeCoord(w *writer, st *pnc.CoordState) {
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
	encodeEngine(w, st.Solver)
	encodeDemands(w, st.SolverDemands)
}

func decodeCoord(r *reader) *pnc.CoordState {
	st := &pnc.CoordState{}
	st.Epoch = r.i64()
	st.Demands = decodeDemands(r)
	n := r.count()
	if r.err != nil {
		return st
	}
	st.Seen = make([]bool, n)
	for i := range st.Seen {
		st.Seen[i] = r.boolean()
	}
	st.LastGood = decodeDemands(r)
	n = r.count()
	if r.err != nil {
		return st
	}
	st.LastAge = make([]int, n)
	for i := range st.LastAge {
		st.LastAge[i] = int(r.i64())
	}
	n = r.count()
	if r.err != nil {
		return st
	}
	for i := 0; i < n; i++ {
		st.Delayed = append(st.Delayed, r.bytes())
	}
	st.Retries = r.i64()
	st.LostFrames = r.i64()
	st.BackoffSec = r.f64()
	st.Control = pnc.ControlState{BitsSent: r.i64(), MsgsSent: r.i64(), Airtime: r.f64()}
	st.EpochAirStart = r.f64()
	st.EpochMsgStart = r.i64()
	st.SolverFP = r.u64()
	if r.err == nil && r.boolean() {
		st.Solver = decodeEngine(r)
		st.SolverDemands = decodeDemands(r)
	}
	return st
}

func encodeSchedules(w *writer, schedules []*schedule.Schedule) {
	w.u32(uint32(len(schedules)))
	for _, sc := range schedules {
		w.u32(uint32(len(sc.Assignments)))
		for _, a := range sc.Assignments {
			w.i64(int64(a.Link))
			w.i64(int64(a.Channel))
			w.i64(int64(a.Level))
			w.u8(uint8(a.Layer))
			w.f64(a.Power)
		}
	}
}

func decodeSchedules(r *reader) []*schedule.Schedule {
	n := r.count()
	if r.err != nil {
		return nil
	}
	schedules := make([]*schedule.Schedule, n)
	for i := range schedules {
		m := r.count()
		if r.err != nil {
			return schedules
		}
		sc := &schedule.Schedule{Assignments: make([]schedule.Assignment, m)}
		for j := range sc.Assignments {
			sc.Assignments[j] = schedule.Assignment{
				Link:    int(r.i64()),
				Channel: int(r.i64()),
				Level:   int(r.i64()),
				Layer:   schedule.Layer(r.u8()),
				Power:   r.f64(),
			}
		}
		schedules[i] = sc
	}
	return schedules
}

func encodeEngine(w *writer, s *cg.StateSnapshot) {
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
	for _, v := range []int{
		s.Stats.Rounds, s.Stats.Probes, s.Stats.MasterSolves, s.Stats.PricerNodes,
		s.Stats.LPPivots, s.Stats.LPRefactorizations, s.Stats.LPEtaUpdates,
		s.Stats.WarmMasters, s.Stats.EvictedColumns, s.Stats.ColumnsAdded,
	} {
		w.i64(int64(v))
	}
}

func decodeEngine(r *reader) *cg.StateSnapshot {
	s := &cg.StateSnapshot{}
	s.Schedules = decodeSchedules(r)
	s.SeedLen = int(r.i64())
	n := r.count()
	if r.err != nil {
		return s
	}
	s.WarmBasis = make([]lp.BasisVar, n)
	for i := range s.WarmBasis {
		s.WarmBasis[i] = lp.BasisVar{Kind: lp.BasisVarKind(r.u8()), Index: int(r.i64())}
	}
	n = r.count()
	if r.err != nil {
		return s
	}
	s.LastBasic = make([]int, n)
	for i := range s.LastBasic {
		s.LastBasic[i] = int(r.i64())
	}
	s.Runs = int(r.i64())
	for _, p := range []*int{
		&s.Stats.Rounds, &s.Stats.Probes, &s.Stats.MasterSolves, &s.Stats.PricerNodes,
		&s.Stats.LPPivots, &s.Stats.LPRefactorizations, &s.Stats.LPEtaUpdates,
		&s.Stats.WarmMasters, &s.Stats.EvictedColumns, &s.Stats.ColumnsAdded,
	} {
		*p = int(r.i64())
	}
	return s
}

func encodeFloats(w *writer, fs []float64) {
	w.u32(uint32(len(fs)))
	for _, f := range fs {
		w.f64(f)
	}
}

func decodeFloats(r *reader) []float64 {
	n := r.count()
	if r.err != nil {
		return nil
	}
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = r.f64()
	}
	return fs
}

func encodeInjector(w *writer, cfg faults.Config, st *faults.InjectorState) {
	for _, v := range []float64{
		cfg.CtrlLoss, cfg.CtrlCorrupt, cfg.CtrlDelay, cfg.StaleCSI,
		cfg.NodeDropout, cfg.NodeRecover,
		cfg.CellPanic, cfg.SolveHang, cfg.KillRestore, cfg.CkptCorrupt,
	} {
		w.f64(v)
	}
	w.i64(cfg.Seed)
	for _, n := range st.Draws {
		w.u64(n)
	}
	w.u32(uint32(len(st.Down)))
	for _, d := range st.Down {
		w.boolean(d)
	}
	w.i64(st.Delivered)
	w.i64(st.Lost)
	w.i64(st.Corrupted)
	w.i64(st.Delayed)
}

func decodeInjector(r *reader) (faults.Config, *faults.InjectorState) {
	var cfg faults.Config
	for _, p := range []*float64{
		&cfg.CtrlLoss, &cfg.CtrlCorrupt, &cfg.CtrlDelay, &cfg.StaleCSI,
		&cfg.NodeDropout, &cfg.NodeRecover,
		&cfg.CellPanic, &cfg.SolveHang, &cfg.KillRestore, &cfg.CkptCorrupt,
	} {
		*p = r.f64()
	}
	cfg.Seed = r.i64()
	st := &faults.InjectorState{}
	for i := range st.Draws {
		st.Draws[i] = r.u64()
	}
	n := r.count()
	if r.err != nil {
		return cfg, st
	}
	st.Down = make([]bool, n)
	for i := range st.Down {
		st.Down[i] = r.boolean()
	}
	st.Delivered = r.i64()
	st.Lost = r.i64()
	st.Corrupted = r.i64()
	st.Delayed = r.i64()
	return cfg, st
}
