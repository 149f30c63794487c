package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

const (
	slotMagic = "MWSL"
	// slotHeaderLen is magic + seq + len + CRC.
	slotHeaderLen = 4 + 8 + 4 + 4
	// minSlotCap is the smallest slot capacity C: a page, so the two
	// slots of a file never share one.
	minSlotCap = 4096
)

// Save stores the snapshot durably: Encode, then StoreImage. A crash
// mid-save leaves the previous checkpoint loadable — never a torn one.
func Save(path string, s *Snapshot) error {
	data, err := s.Encode()
	if err != nil {
		return err
	}
	return StoreImage(path, data)
}

// Load reads the newest intact image from a slot file and decodes it.
func Load(path string) (*Snapshot, error) {
	data, err := LoadImage(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// LoadImage returns the image in the intact slot with the highest seq.
// A file that is not a slot file (a bare image from an older build,
// say) is ErrIncompatible; a slot file with no intact slot is
// ErrCorrupt. The image is returned exactly as it was stored: a slot
// whose image was corrupted before StoreImage is intact here and fails
// Decode.
func LoadImage(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	v, err := parseSlots(data)
	if err != nil {
		return nil, err
	}
	return v.image, nil
}

// StoreImage durably stores image at path, in place: it reads the slot
// file, validates both slots as LoadImage does, writes the header and
// image over the slot that does not hold the newest intact image, with
// the next seq, and fsyncs. A missing file, one that is not a slot
// file or has no intact slot, and an image that outgrows the slot
// capacity go through WriteFile instead: a fresh file (the capacity
// doubled until the image fits) holding the image in slot 0. The
// caller serializes stores to one path, as the host does per cell.
func StoreImage(path string, image []byte) error {
	done, capacity, seq, err := overwriteSlot(path, image)
	if err == nil && !done {
		for slotHeaderLen+len(image) > capacity {
			capacity *= 2
		}
		buf := make([]byte, 2*capacity)
		putSlot(buf, seq, image)
		err = WriteFile(path, buf)
	}
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// overwriteSlot is StoreImage's in-place path. When it cannot write in
// place it reports done=false with the capacity and seq the fresh file
// starts from.
func overwriteSlot(path string, image []byte) (done bool, capacity int, seq uint64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, os.ErrNotExist) {
		return false, minSlotCap, 1, nil
	}
	if err != nil {
		return false, 0, 0, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return false, 0, 0, err
	}
	if !slotFileSize(st.Size()) {
		return false, minSlotCap, 1, nil
	}
	data := make([]byte, st.Size())
	if _, err := f.ReadAt(data, 0); err != nil {
		return false, 0, 0, err
	}
	v, perr := parseSlots(data)
	if perr != nil {
		return false, minSlotCap, 1, nil
	}
	if slotHeaderLen+len(image) > v.capacity {
		return false, 2 * v.capacity, v.seq + 1, nil
	}
	off := (1 - v.newest) * v.capacity
	n := putSlot(data[off:], v.seq+1, image)
	if _, err := f.WriteAt(data[off:off+n], int64(off)); err != nil {
		return false, 0, 0, err
	}
	return true, 0, 0, f.Sync()
}

// slotFileSize reports whether size is 2C for a valid slot capacity C.
func slotFileSize(size int64) bool {
	c := size / 2
	return size%2 == 0 && c >= minSlotCap && c&(c-1) == 0
}

// slotView is a parsed slot file's newest intact slot.
type slotView struct {
	capacity int    // C, each slot's size in bytes
	newest   int    // index of the intact slot with the highest seq
	seq      uint64 // its seq
	image    []byte // its image, aliasing the file bytes
}

// parseSlots validates both slots of a slot file.
func parseSlots(data []byte) (slotView, error) {
	if !slotFileSize(int64(len(data))) {
		if len(data) >= 4 && string(data[:4]) == slotMagic {
			return slotView{}, fmt.Errorf("%w: slot file of %d bytes", ErrCorrupt, len(data))
		}
		return slotView{}, fmt.Errorf("%w: not a slot file", ErrIncompatible)
	}
	v := slotView{capacity: len(data) / 2, newest: -1}
	magic := false
	for i := 0; i < 2; i++ {
		s := data[i*v.capacity : (i+1)*v.capacity]
		magic = magic || string(s[:4]) == slotMagic
		if seq, image, ok := readSlot(s); ok && (v.newest < 0 || seq > v.seq) {
			v.newest, v.seq, v.image = i, seq, image
		}
	}
	switch {
	case v.newest >= 0:
		return v, nil
	case magic:
		return slotView{}, fmt.Errorf("%w: no intact slot", ErrCorrupt)
	default:
		return slotView{}, fmt.Errorf("%w: not a slot file", ErrIncompatible)
	}
}

// readSlot validates one slot and returns its seq and image.
func readSlot(s []byte) (seq uint64, image []byte, ok bool) {
	if string(s[:4]) != slotMagic {
		return 0, nil, false
	}
	n := binary.LittleEndian.Uint32(s[12:16])
	if uint64(n) > uint64(len(s)-slotHeaderLen) {
		return 0, nil, false
	}
	image = s[slotHeaderLen : slotHeaderLen+int(n)]
	if slotCRC(s, image) != binary.LittleEndian.Uint32(s[16:20]) {
		return 0, nil, false
	}
	return binary.LittleEndian.Uint64(s[4:12]), image, true
}

// putSlot writes a slot's header and image at the start of dst and
// returns the bytes written.
func putSlot(dst []byte, seq uint64, image []byte) int {
	copy(dst, slotMagic)
	binary.LittleEndian.PutUint64(dst[4:12], seq)
	binary.LittleEndian.PutUint32(dst[12:16], uint32(len(image)))
	copy(dst[slotHeaderLen:], image)
	binary.LittleEndian.PutUint32(dst[16:20], slotCRC(dst, image))
	return slotHeaderLen + len(image)
}

// slotCRC is the CRC of a slot's seq and len fields and its image.
func slotCRC(slot, image []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(slot[4:16]), crc32.IEEETable, image)
}

// WriteFile stores data at path atomically: it writes a temp file in
// the target directory (named path's base plus ".tmp" and a random
// suffix), fsyncs and closes it, renames it over path, and fsyncs the
// directory so the new entry survives a power loss. The temp file is
// removed only when a step before the rename fails; after a successful
// rename it no longer exists under its temp name. Spec records use it
// directly, and StoreImage uses it to create or grow a slot file.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
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
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
