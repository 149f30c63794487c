// Package faults is a deterministic, seeded fault-injection layer for
// the control plane and data plane of the reproduction. It models the
// failure modes a deployed PicoNet Coordinator faces at production
// scale — control frames lost, corrupted, or delayed on the shared
// WiFi channel; channel-state reports arriving stale; nodes dropping
// out mid-session; and, for the supervised host, cell panics, hung
// solves, kill-restores and corrupt checkpoints — each with a
// configurable rate and its own reproducible RNG stream, so a failing
// fault-sweep point can be replayed bit for bit from its seed.
//
// The package only *decides* faults; the consumers enact them:
// pnc.Coordinator routes control frames through an Injector and
// degrades gracefully (bounded retry, last-known-good fallback, load
// shedding), and internal/host enacts the process faults. Data-plane
// outages are not drawn here: a LinkFailure window is given
// explicitly (ParseFailures, the -fail flag) and sim.Run cuts the
// link for its duration. Blockage as a channel phenomenon lives in
// internal/blockage.
package faults

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Config sets the rate of every fault class. All probabilities are per
// trial in [0, 1]; the zero value injects nothing.
type Config struct {
	// CtrlLoss is the probability a control frame transmission is lost
	// outright (no receive, no decode).
	CtrlLoss float64
	// CtrlCorrupt is the probability a control frame arrives with
	// flipped bytes; the wire decoders reject it and the sender must
	// retry.
	CtrlCorrupt float64
	// CtrlDelay is the probability a control frame is delayed past the
	// epoch boundary: it is delivered, but only at the start of the
	// next scheduling epoch.
	CtrlDelay float64

	// StaleCSI is the probability a channel update is silently dropped
	// while its sender believes it delivered — the coordinator keeps
	// scheduling on epoch-old gains.
	StaleCSI float64

	// NodeDropout is the per-epoch probability an up node goes down
	// (stops reporting and receiving grants).
	NodeDropout float64
	// NodeRecover is the per-epoch probability a down node comes back;
	// zero means a default of 0.5.
	NodeRecover float64

	// Process-level faults (the chaos-soak classes; see internal/host).
	// The injector only decides these — the host enacts them.

	// CellPanic is the per-epoch probability the cell's worker panics
	// mid-epoch (after demand ingestion, before the solve).
	CellPanic float64
	// SolveHang is the per-epoch probability the epoch's P1 solve hangs
	// past its deadline; the host runs that epoch under an
	// already-expired deadline, so the solve takes the anytime path.
	SolveHang float64
	// KillRestore is the per-epoch probability the cell is killed after
	// a completed epoch and restored from its latest checkpoint.
	KillRestore float64
	// CkptCorrupt is the per-epoch probability a checkpoint written
	// that epoch is corrupted on disk (flipped bytes or truncation).
	CkptCorrupt float64

	// Seed anchors every RNG stream. Two injectors built from equal
	// configs produce identical fault sequences.
	Seed int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"CtrlLoss", c.CtrlLoss}, {"CtrlCorrupt", c.CtrlCorrupt}, {"CtrlDelay", c.CtrlDelay},
		{"StaleCSI", c.StaleCSI}, {"NodeDropout", c.NodeDropout}, {"NodeRecover", c.NodeRecover},
		{"CellPanic", c.CellPanic}, {"SolveHang", c.SolveHang},
		{"KillRestore", c.KillRestore}, {"CkptCorrupt", c.CkptCorrupt},
	} {
		if p.v < 0 || p.v > 1 || math.IsNaN(p.v) {
			return fmt.Errorf("faults: %s = %g, want a probability in [0, 1]", p.name, p.v)
		}
	}
	return nil
}

// Enabled reports whether any fault class has a positive rate.
func (c Config) Enabled() bool {
	return c.CtrlLoss > 0 || c.CtrlCorrupt > 0 || c.CtrlDelay > 0 ||
		c.StaleCSI > 0 || c.NodeDropout > 0 ||
		c.ProcEnabled()
}

// ProcEnabled reports whether any process-level fault class has a
// positive rate.
func (c Config) ProcEnabled() bool {
	return c.CellPanic > 0 || c.SolveHang > 0 || c.KillRestore > 0 || c.CkptCorrupt > 0
}

// FrameFate is the injector's verdict on one control-frame
// transmission attempt.
type FrameFate uint8

// Frame fates.
const (
	FrameDelivered FrameFate = iota // arrives intact
	FrameLost                       // vanishes; sender may retry
	FrameCorrupted                  // arrives with flipped bytes; decoder rejects
	FrameDelayed                    // arrives, but only next epoch
)

// String implements fmt.Stringer.
func (f FrameFate) String() string {
	switch f {
	case FrameDelivered:
		return "delivered"
	case FrameLost:
		return "lost"
	case FrameCorrupted:
		return "corrupted"
	case FrameDelayed:
		return "delayed"
	default:
		return fmt.Sprintf("FrameFate(%d)", uint8(f))
	}
}

// Injector draws faults from independent seeded streams, one per fault
// class, so e.g. raising the control-loss rate never perturbs the
// dropout sequence.
type Injector struct {
	cfg Config

	frameRNG *streamRNG
	nodeRNG  *streamRNG
	csiRNG   *streamRNG
	procRNG  *streamRNG
	ckptRNG  *streamRNG

	down []bool // per-link dropout state

	// Telemetry counters.
	lost, corrupted, delayed, delivered int64
}

// Per-class stream offsets mixed into the seed. Id 3 belonged to the
// retired blockage-burst class and stays reserved, so every other
// stream keeps its id and draws exactly as before.
const (
	streamFrame = iota + 1
	streamNode
	_
	streamCSI
	streamProc
	streamCkpt
)

// New builds an injector over numLinks links.
func New(cfg Config, numLinks int) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numLinks < 0 {
		return nil, fmt.Errorf("faults: numLinks = %d, want ≥ 0", numLinks)
	}
	return &Injector{
		cfg:      cfg,
		frameRNG: newStream(cfg.Seed, streamFrame),
		nodeRNG:  newStream(cfg.Seed, streamNode),
		csiRNG:   newStream(cfg.Seed, streamCSI),
		procRNG:  newStream(cfg.Seed, streamProc),
		ckptRNG:  newStream(cfg.Seed, streamCkpt),
		down:     make([]bool, numLinks),
	}, nil
}

// mix derives a per-stream seed (splitmix64 finalizer).
func mix(seed, stream int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Config returns the injector's configuration.
func (in *Injector) Config() Config { return in.cfg }

// FrameFate draws the fate of one control-frame transmission attempt.
// Loss, corruption, and delay are mutually exclusive per attempt.
func (in *Injector) FrameFate() FrameFate {
	u := in.frameRNG.Float64()
	switch {
	case u < in.cfg.CtrlLoss:
		in.lost++
		return FrameLost
	case u < in.cfg.CtrlLoss+in.cfg.CtrlCorrupt:
		in.corrupted++
		return FrameCorrupted
	case u < in.cfg.CtrlLoss+in.cfg.CtrlCorrupt+in.cfg.CtrlDelay:
		in.delayed++
		return FrameDelayed
	default:
		in.delivered++
		return FrameDelivered
	}
}

// Corrupt returns a copy of the frame with one to three random bytes
// flipped (never a no-op for non-empty frames).
func (in *Injector) Corrupt(frame []byte) []byte {
	out := append([]byte(nil), frame...)
	if len(out) == 0 {
		return out
	}
	flips := 1 + in.frameRNG.Intn(3)
	for i := 0; i < flips; i++ {
		pos := in.frameRNG.Intn(len(out))
		out[pos] ^= byte(1 + in.frameRNG.Intn(255))
	}
	return out
}

// DropCSI reports whether a channel update should be silently
// swallowed, leaving the coordinator on stale gains.
func (in *Injector) DropCSI() bool {
	return in.cfg.StaleCSI > 0 && in.csiRNG.Float64() < in.cfg.StaleCSI
}

// StepEpoch advances the per-link dropout state machine one scheduling
// epoch and returns the number of links currently down.
func (in *Injector) StepEpoch() int {
	recover := in.cfg.NodeRecover
	if recover == 0 {
		recover = 0.5
	}
	n := 0
	for l := range in.down {
		if in.down[l] {
			if in.nodeRNG.Float64() < recover {
				in.down[l] = false
			}
		} else if in.cfg.NodeDropout > 0 && in.nodeRNG.Float64() < in.cfg.NodeDropout {
			in.down[l] = true
		}
		if in.down[l] {
			n++
		}
	}
	return n
}

// LinkDown reports whether link l's node is currently dropped out.
func (in *Injector) LinkDown(l int) bool {
	return l >= 0 && l < len(in.down) && in.down[l]
}

// Stats returns the frame-fate counters (delivered, lost, corrupted,
// delayed).
func (in *Injector) Stats() (delivered, lost, corrupted, delayed int64) {
	return in.delivered, in.lost, in.corrupted, in.delayed
}

// LinkFailure is one injected data-plane outage: from Slot (inclusive)
// the link delivers nothing for Duration slots — a blockage burst, a
// beam misalignment, or a node reboot, as seen by the executor.
type LinkFailure struct {
	Slot     int // first affected slot
	Link     int // failed link index
	Duration int // outage length in slots
}

// Valid reports whether the event is well-formed.
func (e LinkFailure) Valid() bool {
	return e.Slot >= 0 && e.Link >= 0 && e.Duration > 0
}

// maxFailures caps the entries of one failure spec.
const maxFailures = 4096

// ErrBadEncoding reports a malformed failure-event spec.
var ErrBadEncoding = errors.New("faults: bad failure-event encoding")

// ParseFailures parses the human-facing spec used by the CLI:
// comma-separated "slot@link+duration" entries, e.g.
// "100@3+50,400@7+25". Whitespace around entries is ignored; an empty
// spec yields no events.
func ParseFailures(spec string) ([]LinkFailure, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	if len(parts) > maxFailures {
		return nil, fmt.Errorf("%w: %d entries exceed the limit of %d", ErrBadEncoding, len(parts), maxFailures)
	}
	evs := make([]LinkFailure, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		slotStr, rest, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("%w: entry %q lacks '@'", ErrBadEncoding, part)
		}
		linkStr, durStr, ok := strings.Cut(rest, "+")
		if !ok {
			return nil, fmt.Errorf("%w: entry %q lacks '+'", ErrBadEncoding, part)
		}
		slot, err := strconv.Atoi(slotStr)
		if err != nil {
			return nil, fmt.Errorf("%w: bad slot in %q: %v", ErrBadEncoding, part, err)
		}
		link, err := strconv.Atoi(linkStr)
		if err != nil {
			return nil, fmt.Errorf("%w: bad link in %q: %v", ErrBadEncoding, part, err)
		}
		dur, err := strconv.Atoi(durStr)
		if err != nil {
			return nil, fmt.Errorf("%w: bad duration in %q: %v", ErrBadEncoding, part, err)
		}
		e := LinkFailure{Slot: slot, Link: link, Duration: dur}
		if !e.Valid() || slot > math.MaxUint32 || link > math.MaxUint16 || dur > math.MaxUint16 {
			return nil, fmt.Errorf("%w: entry %q out of range", ErrBadEncoding, part)
		}
		evs = append(evs, e)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Slot < evs[j].Slot })
	return evs, nil
}

// FormatFailures renders events in the ParseFailures spec syntax.
func FormatFailures(evs []LinkFailure) string {
	parts := make([]string, len(evs))
	for i, e := range evs {
		parts[i] = fmt.Sprintf("%d@%d+%d", e.Slot, e.Link, e.Duration)
	}
	return strings.Join(parts, ",")
}
