package checkpoint

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
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

// FuzzLoadImage hammers LoadImage's reader with mutated slot files:
// it must never panic, and any image it returns must be the image of
// an intact slot — magic, length and slot CRC all check out against
// the file's bytes — with the highest seq among the intact slots.
// LoadImage is os.ReadFile followed by parseSlots; the fuzzer drives
// parseSlots on the bytes directly, so an input costs no file IO.
func FuzzLoadImage(f *testing.F) {
	// seedFile lays images out as successive StoreImage calls would:
	// alternating slots, seq counting from 1.
	seedFile := func(capacity int, images ...[]byte) []byte {
		data := make([]byte, 2*capacity)
		for i, img := range images {
			putSlot(data[(i%2)*capacity:], uint64(i+1), img)
		}
		return data
	}
	two := seedFile(minSlotCap, []byte("first image"), []byte("second image"))
	f.Add(seedFile(minSlotCap, []byte("first image")))
	f.Add(two)
	f.Add(seedFile(2*minSlotCap, bytes.Repeat([]byte{7}, 5000)))
	torn := append([]byte(nil), two...)
	torn[len(torn)/2+slotHeaderLen] ^= 1
	f.Add(torn)
	f.Add(two[:len(two)/2])
	f.Add([]byte("MWSL"))
	f.Add([]byte("MWCK"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := parseSlots(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrIncompatible) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		// An independent reading of the documented layout.
		c := len(data) / 2
		best, found := uint64(0), false
		var want []byte
		for i := 0; i < 2; i++ {
			s := data[i*c : (i+1)*c]
			if string(s[:4]) != "MWSL" {
				continue
			}
			n := int(binary.LittleEndian.Uint32(s[12:16]))
			if n > c-20 {
				continue
			}
			crc := crc32.Update(crc32.ChecksumIEEE(s[4:16]), crc32.IEEETable, s[20:20+n])
			if crc != binary.LittleEndian.Uint32(s[16:20]) {
				continue
			}
			if seq := binary.LittleEndian.Uint64(s[4:12]); !found || seq > best {
				best, found, want = seq, true, s[20:20+n]
			}
		}
		if !found {
			t.Fatal("an image was returned but no slot is intact")
		}
		if !bytes.Equal(v.image, want) || v.seq != best {
			t.Fatal("returned bytes other than the newest intact slot's image")
		}
	})
}
