package host

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// tmpLeftovers lists the temp files writeRaw may have left next to path.
func tmpLeftovers(t *testing.T, path string) []string {
	t.Helper()
	left, err := filepath.Glob(path + ".tmp*")
	if err != nil {
		t.Fatal(err)
	}
	return left
}

// TestWriteRawRoundTrip checks that a successful write lands the exact
// bytes under the final name and leaves no temp file behind.
func TestWriteRawRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cell.ckpt")
	want := []byte("checkpoint image")
	if err := writeRaw(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readRaw(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %q, wrote %q", got, want)
	}
	if left := tmpLeftovers(t, path); len(left) != 0 {
		t.Fatalf("temp files left after a successful write: %v", left)
	}
}

// TestWriteRawFailureLeavesNoTemp makes the final rename fail (the
// target is a non-empty directory) and requires the error to surface
// with no temp file left in the checkpoint directory.
func TestWriteRawFailureLeavesNoTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cell.ckpt")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "occupied"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeRaw(path, []byte("checkpoint image")); err == nil {
		t.Fatal("writeRaw onto a non-empty directory succeeded")
	}
	if left := tmpLeftovers(t, path); len(left) != 0 {
		t.Fatalf("temp files left after a failed write: %v", left)
	}
}
