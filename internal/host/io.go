package host

import (
	"os"
	"path/filepath"
)

// writeRaw persists a checkpoint image with the same atomic
// temp-write-fsync-rename discipline as checkpoint.Save, but without
// re-encoding: the host stores the exact bytes it may later have to
// restore from, including deliberately corrupted ones in chaos runs.
// The temp file is removed only when a step fails; after a successful
// rename it no longer exists under its temp name.
func writeRaw(path string, data []byte) error {
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
	}
	return err
}

func readRaw(path string) ([]byte, error) {
	return os.ReadFile(path)
}
