package checkpoint

import (
	"bytes"
	"context"
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
	res, err := coord.RunEpoch(context.Background())
	if err != nil {
		f.Fatal(err)
	}
	inj, err := faults.New(faults.Config{CtrlLoss: 0.1, CellPanic: 0.05, Seed: 5}, 4)
	if err != nil {
		f.Fatal(err)
	}
	seed, err := Capture(coord, inj).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	if seed, err := Capture(coord, nil).Encode(); err == nil {
		f.Add(seed)
	}
	// A well-formed image of another format version, which the decoder
	// must refuse; an image of a coordinator that never solved (no
	// engine state); one carrying a host's last-known-good plan; and a
	// three-class one.
	f.Add(restamp(seed, version-1))
	fresh, err := pnc.NewCoordinator(testNetwork(f, 22, 3, 2), nil, core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	if seed, err := Capture(fresh, nil).Encode(); err == nil {
		f.Add(seed)
	}
	withPlan := Capture(coord, nil)
	withPlan.Plan, withPlan.PlanEpoch = &res.Plan, coord.Epoch()
	if seed, err := withPlan.Encode(); err == nil {
		f.Add(seed)
	}
	nw3 := testNetwork(f, 23, 3, 2)
	nw3.NumTrafficClasses = 3
	coord3, err := pnc.NewCoordinator(nw3, nil, core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	reportAll(f, coord3, 3, video.Demand{1e6, 2e6, 3e6})
	if _, err := coord3.RunEpoch(context.Background()); err != nil {
		f.Fatal(err)
	}
	if seed, err := Capture(coord3, nil).Encode(); err == nil {
		f.Add(seed)
	}
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
		if !bytes.Equal(out, data) {
			t.Fatal("accepted image did not re-encode canonically")
		}
	})
}
