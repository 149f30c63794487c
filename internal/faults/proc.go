package faults

import (
	"fmt"
	"math/rand"
)

// countingSource wraps a rand.Source64 and counts state advances. Both
// Int63 and Uint64 step the underlying generator exactly once, so the
// count is the generator's position regardless of which high-level
// method (Float64, Intn, ...) consumed the draw — including rejection
// loops, which show up as extra advances. Replaying count draws on a
// fresh source of the same seed restores the exact state.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// streamRNG is one per-class fault stream: a *rand.Rand whose draw
// count is observable, so an Injector can be checkpointed and restored
// RNG-exactly. It embeds *rand.Rand so call sites keep the plain
// Float64()/Intn() idiom.
type streamRNG struct {
	*rand.Rand
	src *countingSource
}

// newStream builds the stream for class id under the injector seed.
func newStream(seed, id int64) *streamRNG {
	cs := &countingSource{src: rand.NewSource(mix(seed, id)).(rand.Source64)}
	return &streamRNG{Rand: rand.New(cs), src: cs}
}

// advanceTo replays draws until the stream has consumed n of them.
func (s *streamRNG) advanceTo(n uint64) {
	for s.src.n < n {
		s.src.Int63()
	}
}

// ProcFaults is the injector's per-epoch verdict on the process-level
// fault classes for one cell.
type ProcFaults struct {
	// Panic: the cell worker panics mid-epoch.
	Panic bool
	// Hang: the epoch's solve overruns its deadline (the host runs the
	// epoch under an already-expired one).
	Hang bool
	// Kill: the cell is killed after the epoch and restored from its
	// latest checkpoint.
	Kill bool
	// Corrupt: any checkpoint written this epoch is corrupted on disk.
	Corrupt bool
}

// Any reports whether any process fault fires.
func (p ProcFaults) Any() bool { return p.Panic || p.Hang || p.Kill || p.Corrupt }

// DrawProcFaults draws the epoch's process-fault verdict. It consumes
// exactly four draws from the process stream in a fixed order,
// unconditionally — even for classes with zero rate — so two injectors
// with equal seeds stay draw-for-draw aligned regardless of which
// classes are enabled or enacted. That alignment is what lets a shadow
// cell (same seed, kill/restore not enacted) replay an identical fault
// timeline for the byte-identical-restore invariant.
func (in *Injector) DrawProcFaults() ProcFaults {
	return ProcFaults{
		Panic:   in.procRNG.Float64() < in.cfg.CellPanic,
		Hang:    in.procRNG.Float64() < in.cfg.SolveHang,
		Kill:    in.procRNG.Float64() < in.cfg.KillRestore,
		Corrupt: in.procRNG.Float64() < in.cfg.CkptCorrupt,
	}
}

// CorruptCheckpoint damages a checkpoint image the way a bad disk
// would: either truncates it or flips one to four random bytes (never
// a no-op for non-empty images). It draws only from the dedicated
// checkpoint stream, so cells that never write checkpoints — shadow
// replicas — consume nothing here and stay aligned with cells that do.
func (in *Injector) CorruptCheckpoint(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) == 0 {
		return out
	}
	if in.ckptRNG.Float64() < 0.5 {
		// Truncation, possibly to nothing.
		return out[:in.ckptRNG.Intn(len(out))]
	}
	flips := 1 + in.ckptRNG.Intn(4)
	for i := 0; i < flips; i++ {
		pos := in.ckptRNG.Intn(len(out))
		out[pos] ^= byte(1 + in.ckptRNG.Intn(255))
	}
	return out
}

// InjectorState is the serializable image of an Injector: per-stream
// draw counts, the dropout state machine, and the telemetry counters.
// Together with the Config (persisted separately, since it is what the
// counts replay against) it restores the injector RNG-exactly: a
// restored injector's future draws are identical to the original's.
type InjectorState struct {
	// Draws holds the per-stream advance counts, indexed by stream
	// order (frame, node, csi, proc, ckpt).
	Draws [5]uint64
	// Down is the per-link dropout state.
	Down []bool
	// Telemetry counters (delivered, lost, corrupted, delayed).
	Delivered, Lost, Corrupted, Delayed int64
}

// Checkpoint exports the injector's state. The injector remains
// usable; the state shares no memory with it.
func (in *Injector) Checkpoint() InjectorState {
	st := InjectorState{
		Down:      append([]bool(nil), in.down...),
		Delivered: in.delivered,
		Lost:      in.lost,
		Corrupted: in.corrupted,
		Delayed:   in.delayed,
	}
	for i, s := range in.streams() {
		st.Draws[i] = s.src.n
	}
	return st
}

// streams lists the injector's RNG streams in InjectorState.Draws order.
func (in *Injector) streams() [5]*streamRNG {
	return [5]*streamRNG{in.frameRNG, in.nodeRNG, in.csiRNG, in.procRNG, in.ckptRNG}
}

// RestoreInjector rebuilds an injector from a checkpointed state by
// replaying each stream to its recorded draw count. The config must be
// the one the injector was built with (the checkpoint layer persists
// it alongside the state); the restored injector's subsequent draws
// match the original's exactly.
func RestoreInjector(cfg Config, st InjectorState) (*Injector, error) {
	in, err := New(cfg, len(st.Down))
	if err != nil {
		return nil, err
	}
	for i, s := range in.streams() {
		s.advanceTo(st.Draws[i])
	}
	copy(in.down, st.Down)
	in.delivered, in.lost, in.corrupted, in.delayed =
		st.Delivered, st.Lost, st.Corrupted, st.Delayed
	return in, nil
}

// Validate reports structural problems in a checkpointed state.
func (st InjectorState) Validate() error {
	const maxReplay = 1 << 32 // replay cost guard against forged counts
	for i, n := range st.Draws {
		if n > maxReplay {
			return fmt.Errorf("faults: stream %d draw count %d exceeds replay limit", i, n)
		}
	}
	if st.Delivered < 0 || st.Lost < 0 || st.Corrupted < 0 || st.Delayed < 0 {
		return fmt.Errorf("faults: negative telemetry counter in state")
	}
	return nil
}
