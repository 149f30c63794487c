package checkpoint

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mmwave/internal/core"
	"mmwave/internal/faults"
	"mmwave/internal/pnc"
	"mmwave/internal/video"
)

// pattern returns an n-byte image filled with b, so images written
// over each other differ in every byte.
func pattern(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

func mustLoad(t *testing.T, path string, want []byte) {
	t.Helper()
	got, err := LoadImage(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("LoadImage returned %d bytes starting %q, want %d starting %q",
			len(got), got[:min(len(got), 4)], len(want), want[:min(len(want), 4)])
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// overwrite writes b at off of the file at path, the way a write cut
// short by a crash would leave it.
func overwrite(t *testing.T, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestStoreImageAlternatesSlots: a missing file is created with two
// 4096-byte slots; each store then overwrites the older slot in place,
// and LoadImage returns the newest.
func TestStoreImageAlternatesSlots(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cell0.ckpt")
	for i, b := range []byte("abcd") {
		img := pattern(b, 2600+i)
		if err := StoreImage(path, img); err != nil {
			t.Fatal(err)
		}
		mustLoad(t, path, img)
		if got := fileSize(t, path); got != 2*minSlotCap {
			t.Fatalf("store %d: file is %d bytes, want %d", i, got, 2*minSlotCap)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Index(data, img); got != (i%2)*minSlotCap+slotHeaderLen {
			t.Fatalf("store %d landed at offset %d, want slot %d", i, got, i%2)
		}
	}
	if left, _ := filepath.Glob(path + ".tmp*"); len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// TestTornTargetSlotKeepsPrevious: whatever a crash leaves in the slot
// being written — a partial header, a partial image, garbage — the
// other slot's image is still the one LoadImage returns, and the next
// store writes over the torn slot again.
func TestTornTargetSlotKeepsPrevious(t *testing.T) {
	prev, next := pattern('p', 3000), pattern('n', 3000)
	whole := make([]byte, minSlotCap)
	n := putSlot(whole, 3, next)
	for _, torn := range [][]byte{
		whole[:1], whole[:slotHeaderLen-1], whole[:slotHeaderLen],
		whole[:slotHeaderLen+len(next)/2], whole[:n-1],
		pattern(0xff, minSlotCap), pattern(0, minSlotCap),
	} {
		path := filepath.Join(t.TempDir(), "cell0.ckpt")
		for _, img := range [][]byte{pattern('o', 3000), prev} {
			if err := StoreImage(path, img); err != nil {
				t.Fatal(err)
			}
		}
		// Slot 0 holds the older image, so it is the next target.
		overwrite(t, path, 0, torn)
		mustLoad(t, path, prev)
		if err := StoreImage(path, next); err != nil {
			t.Fatal(err)
		}
		mustLoad(t, path, next)
		if err := StoreImage(path, prev); err != nil {
			t.Fatal(err)
		}
		mustLoad(t, path, prev)
	}
}

// TestNoIntactSlotCorrupt: a slot file whose slots are both torn is
// ErrCorrupt, and the next store starts a fresh file.
func TestNoIntactSlotCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cell0.ckpt")
	for _, b := range []byte("ab") {
		if err := StoreImage(path, pattern(b, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	overwrite(t, path, slotHeaderLen+10, []byte{0})
	overwrite(t, path, minSlotCap+slotHeaderLen+10, []byte{0})
	if _, err := LoadImage(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("both slots torn: got %v, want ErrCorrupt", err)
	}
	if _, err := Load(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load of both slots torn: got %v, want ErrCorrupt", err)
	}
	// A slot file cut short is corrupt too.
	short := filepath.Join(t.TempDir(), "short.ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(short, data[:minSlotCap], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadImage(short); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated slot file: got %v, want ErrCorrupt", err)
	}

	img := pattern('c', 1000)
	if err := StoreImage(path, img); err != nil {
		t.Fatal(err)
	}
	mustLoad(t, path, img)
}

// TestBareImageIncompatible: a file holding a bare image, as an older
// build wrote it, is not a slot file: ErrIncompatible, never decoded.
// So is a file of slot-file size with no slot magic. The next store
// replaces either with a slot file.
func TestBareImageIncompatible(t *testing.T) {
	nw := testNetwork(t, 9, 4, 2)
	coord, err := pnc.NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reportAll(t, coord, 4, video.TwoClass(2e6, 4e6))
	if _, err := coord.RunEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	image, err := Capture(coord, nil).Encode()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"bare.ckpt":  image,
		"zeros.ckpt": make([]byte, 2*minSlotCap),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadImage(path); !errors.Is(err, ErrIncompatible) {
			t.Fatalf("%s: got %v, want ErrIncompatible", name, err)
		}
		if err := StoreImage(path, image); err != nil {
			t.Fatal(err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Coord.Epoch != coord.Epoch() {
			t.Fatalf("%s: loaded epoch %d, want %d", name, got.Coord.Epoch, coord.Epoch())
		}
	}
}

// TestImageOutgrowsSlot: an image larger than the slot capacity grows
// the file (capacity doubled until it fits) and round-trips; later
// images that fit are stored in place in the grown file.
func TestImageOutgrowsSlot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cell0.ckpt")
	steps := []struct {
		img  []byte
		size int64
	}{
		{pattern('a', 100), 2 * 4096},
		{pattern('b', 5000), 2 * 8192},
		{pattern('c', 200), 2 * 8192},
		{pattern('d', 100000), 2 * 131072},
		{pattern('e', 8192), 2 * 131072},
	}
	for i, st := range steps {
		if err := StoreImage(path, st.img); err != nil {
			t.Fatal(err)
		}
		mustLoad(t, path, st.img)
		if got := fileSize(t, path); got != st.size {
			t.Fatalf("store %d: file is %d bytes, want %d", i, got, st.size)
		}
	}
	// The seq carries across a grow: the grown file's slot 0 is newer
	// than anything the old file held.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v, err := parseSlots(data)
	if err != nil {
		t.Fatal(err)
	}
	if v.seq != uint64(len(steps)) {
		t.Fatalf("newest seq %d, want %d", v.seq, len(steps))
	}
}

// TestCorruptedImageNotMasked: an image corrupted before it is stored
// (the injector's checkpoint-corruption fault) is stored whole as the
// newest slot. LoadImage returns exactly those bytes, Decode refuses
// them, and the older, good slot never stands in for them.
func TestCorruptedImageNotMasked(t *testing.T) {
	nw := testNetwork(t, 3, 4, 2)
	coord, err := pnc.NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reportAll(t, coord, 4, video.TwoClass(2e6, 4e6))
	if _, err := coord.RunEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	good, err := Capture(coord, nil).Encode()
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := faults.New(faults.Config{CkptCorrupt: 1, Seed: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cell0.ckpt")
	for i := 0; i < 20; i++ {
		if err := StoreImage(path, good); err != nil {
			t.Fatal(err)
		}
		bad := chaos.CorruptCheckpoint(good)
		if err := StoreImage(path, bad); err != nil {
			t.Fatal(err)
		}
		mustLoad(t, path, bad)
		if _, err := Load(path); err == nil {
			t.Fatalf("iteration %d: corrupted image loaded successfully", i)
		}
	}
}
