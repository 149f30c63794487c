// Package checkpoint persists a coordinator's durable state — the
// pnc.CoordState (demand fallbacks, control accounting, epoch counter,
// and the cg engine snapshot: schedule pool, warm basis, GC stamps)
// plus the fault injector's RNG position — as a versioned, CRC-guarded
// binary image with atomic write-rename persistence. A restored
// coordinator re-solves byte-identically to the one that wrote the
// snapshot (see internal/pnc.ImportState and the chaos soak in
// internal/host), which is what makes a supervised restart invisible
// to the data plane.
//
// Image layout (little-endian):
//
//	magic "MWCK" | version u16 | problem fingerprint u64 | payload | CRC32(IEEE) u32
//
// The CRC covers every byte before it; any flip or truncation yields
// ErrCorrupt, never a panic or a silently wrong restore. The problem
// fingerprint hashes the network the coordinator schedules (topology,
// gains, noise, rate table, interference flags); restoring onto a
// network with a different fingerprint yields ErrIncompatible, so a
// snapshot can never leak schedules across problem instances.
package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

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
	// restored here: a future format version or a problem fingerprint
	// that no longer matches the target network.
	ErrIncompatible = errors.New("checkpoint: incompatible snapshot")
)

const (
	magic = "MWCK"
	// version 2 added the LPEtaUpdates counter to the engine stats
	// block when the master LP moved to the sparse revised simplex.
	// version 3 appended the host's last-known-good plan (and its
	// epoch) so a restarted pncd can serve plans before its first
	// post-restore step. Version 4 made demands and engine duals
	// class-count-aware when the two-class HP/LP pair generalized to N
	// traffic classes; version-2/-3 images still decode, with their
	// fixed-width demand pairs and HP/LP dual vectors read back as the
	// two-class special case. Version 5 appended the engine's dual-
	// stabilization center and the acceleration work counters
	// (stabilized rounds, heuristic hits, exact fallbacks, columns
	// added); older images decode with a cold center and zero counters.
	// Version 6 dropped the two retired probe cache counter slots (hits,
	// misses) from the engine stats block; older images still decode,
	// with those slots read and discarded. Version 7 dropped the engine's
	// dual vectors, its stabilization center and the stabilized-rounds
	// counter slot, since the engine keeps no duals between runs; v2–v6
	// images still decode, with whichever of them they carry read and
	// discarded.
	version = 7
	// minVersion is the oldest format this build still decodes.
	minVersion = 2
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
	// when the cell had none, and on images older than version 3), so
	// a restarted host serves the data plane immediately instead of
	// waiting for its first fresh solve.
	Plan      *core.Plan
	PlanEpoch int64
}

// NetworkFingerprint hashes the problem instance a coordinator
// schedules: link topology, channel count, every direct and cross
// gain, noise, power budget, rate table, and the model flags. Two
// networks with equal fingerprints define the same P1, so a snapshot's
// pooled schedules and warm basis are valid on either. FNV-1a, the
// repo's fingerprint idiom (see pnc.gainsFingerprint).
func NetworkFingerprint(nw *netmodel.Network) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	f := func(v float64) { word(math.Float64bits(v)) }
	word(uint64(len(nw.Links)))
	for _, l := range nw.Links {
		word(uint64(int64(l.TXNode)))
		word(uint64(int64(l.RXNode)))
	}
	word(uint64(nw.NumChannels))
	for _, row := range nw.Gains.Direct {
		for _, g := range row {
			f(g)
		}
	}
	for _, m := range nw.Gains.Cross {
		for _, row := range m {
			for _, g := range row {
				f(g)
			}
		}
	}
	for _, n := range nw.Noise {
		f(n)
	}
	f(nw.PMax)
	word(uint64(len(nw.Rates.Gammas)))
	for i := range nw.Rates.Gammas {
		f(nw.Rates.Gammas[i])
		f(nw.Rates.Rates[i])
	}
	word(uint64(nw.Interference))
	if nw.MultiChannel {
		word(1)
	} else {
		word(0)
	}
	// The traffic-class count joined the fingerprint with format v4.
	// Two-class networks hash exactly as they always did, so every
	// pre-v4 snapshot still matches its network; any other class count
	// perturbs the hash, so an N-class snapshot can never restore onto
	// a differently-classed instance.
	if c := nw.TrafficClasses(); c != 2 {
		word(uint64(c))
	}
	return h
}

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
// ErrCorrupt; a future version as ErrIncompatible.
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
	if v < minVersion || v > version {
		return nil, fmt.Errorf("%w: format version %d, this build reads %d–%d", ErrIncompatible, v, minVersion, version)
	}
	r.ver = v
	s := &Snapshot{Fingerprint: r.u64()}
	s.Coord = decodeCoord(r)
	if r.err == nil && r.boolean() {
		s.InjectorCfg, s.Injector = decodeInjector(r)
	}
	if v >= 3 && r.err == nil && r.boolean() {
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

// Save writes the snapshot atomically (Encode, then WriteFile). A
// crash mid-save leaves either the previous checkpoint or none — never
// a torn image.
func Save(path string, s *Snapshot) error {
	data, err := s.Encode()
	if err != nil {
		return err
	}
	if err := WriteFile(path, data); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// WriteFile stores data at path atomically: it writes a temp file in
// the target directory (named path's base plus ".tmp" and a random
// suffix), fsyncs and closes it, then renames it over path. The temp
// file is removed only when a step fails; after a successful rename it
// no longer exists under its temp name. Callers that persist exact
// bytes, such as a host storing a checkpoint image it may later
// restore from, use it directly.
func WriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Load reads and decodes a snapshot from disk.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return Decode(data)
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
		if r.ver < 4 {
			// v2/v3 images carry the fixed two-field HP/LP pair.
			ds[i] = video.TwoClass(r.f64(), r.f64())
			continue
		}
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
		s.Stats.WarmMasters, s.Stats.EvictedColumns,
		s.Stats.HeuristicHits, s.Stats.ExactFallbacks, s.Stats.ColumnsAdded,
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
	if r.ver <= 6 {
		// The retired dual vectors: exactly two (HP then LP) before v4,
		// a counted set from v4, plus the counted stabilization center
		// from v5.
		nd := 2
		if r.ver >= 4 {
			nd = int(r.u16())
		}
		for i := 0; i < nd; i++ {
			decodeFloats(r)
		}
		if r.ver >= 5 {
			for nc := int(r.u16()); nc > 0; nc-- {
				decodeFloats(r)
			}
		}
	}
	var retired int // slots of retired counters, read and discarded
	ints := []*int{&s.Stats.Rounds, &s.Stats.Probes, &s.Stats.MasterSolves}
	if r.ver <= 5 {
		// The probe cache hit and miss counters.
		ints = append(ints, &retired, &retired)
	}
	ints = append(ints,
		&s.Stats.PricerNodes,
		&s.Stats.LPPivots, &s.Stats.LPRefactorizations, &s.Stats.LPEtaUpdates,
		&s.Stats.WarmMasters, &s.Stats.EvictedColumns)
	if r.ver >= 5 {
		if r.ver <= 6 {
			// The stabilized-rounds counter.
			ints = append(ints, &retired)
		}
		ints = append(ints,
			&s.Stats.HeuristicHits, &s.Stats.ExactFallbacks, &s.Stats.ColumnsAdded)
	}
	for _, p := range ints {
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
		cfg.NodeDropout, cfg.NodeRecover, cfg.BlockageRate,
		cfg.CellPanic, cfg.SolveHang, cfg.KillRestore, cfg.CkptCorrupt,
	} {
		w.f64(v)
	}
	w.i64(int64(cfg.BlockageSlots))
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
		&cfg.NodeDropout, &cfg.NodeRecover, &cfg.BlockageRate,
		&cfg.CellPanic, &cfg.SolveHang, &cfg.KillRestore, &cfg.CkptCorrupt,
	} {
		*p = r.f64()
	}
	cfg.BlockageSlots = int(r.i64())
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
