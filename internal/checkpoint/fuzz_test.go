package checkpoint

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"mmwave/internal/core"
	"mmwave/internal/faults"
	"mmwave/internal/pnc"
	"mmwave/internal/video"
)

// FuzzSnapshotDecode hammers the checkpoint decoder with mutated
// images: it must never panic, and any image it accepts must re-encode
// to exactly the same bytes (the format is canonical) and pass
// semantic validation.
func FuzzSnapshotDecode(f *testing.F) {
	nw := testNetwork(f, 21, 4, 2)
	coord, err := pnc.NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	reportAll(f, coord, 4, video.TwoClass(2e6, 4e6))
	if _, err := coord.RunEpoch(); err != nil {
		f.Fatal(err)
	}
	inj, err := faults.New(faults.Config{CtrlLoss: 0.1, CellPanic: 0.05, Seed: 5}, 4)
	if err != nil {
		f.Fatal(err)
	}
	if seed, err := Capture(coord, inj).Encode(); err == nil {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	if seed, err := Capture(coord, nil).Encode(); err == nil {
		f.Add(seed)
	}
	// Legacy images seed the backward-compatibility decode paths, each
	// carrying the dual state v7 dropped: a version-3 one (fixed HP/LP
	// demand pairs, two dual vectors), a version-4 one (class-aware
	// dual vectors), a version-5 one (plus a stabilization center and
	// the retired probe cache counter slots) and a version-6 one (dual
	// vectors and a center, no probe cache slots).
	_, v3 := v3Snapshot(f)
	f.Add(v3)
	_, v4 := v4Snapshot(f)
	f.Add(v4)
	_, v5 := v5Snapshot(f)
	f.Add(v5)
	_, v6 := v6Snapshot(f)
	f.Add(v6)
	f.Add([]byte("MWCK"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		out, err := s.Encode()
		if err != nil {
			t.Fatalf("accepted image failed to re-encode: %v", err)
		}
		// Current-format images are canonical byte-for-byte. Accepted
		// legacy images re-encode in the current format instead, so for
		// them the invariant is upgrade stability: the upgraded image
		// must decode back to the same snapshot.
		if binary.LittleEndian.Uint16(data[4:6]) == version {
			if !bytes.Equal(out, data) {
				t.Fatal("accepted image did not re-encode canonically")
			}
			return
		}
		up, err := Decode(out)
		if err != nil {
			t.Fatalf("upgraded legacy image no longer decodes: %v", err)
		}
		if !reflect.DeepEqual(up, s) {
			t.Fatal("upgraded legacy image decodes to a different snapshot")
		}
	})
}
