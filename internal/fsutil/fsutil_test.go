package fsutil

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lingering lists everything in dir that is not one of names — i.e.
// temp files an error path failed to clean up.
func lingering(t *testing.T, dir string, names ...string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	keep := make(map[string]bool, len(names))
	for _, n := range names {
		keep[n] = true
	}
	var extra []string
	for _, e := range ents {
		if !keep[e.Name()] {
			extra = append(extra, e.Name())
		}
	}
	return extra
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil || string(blob) != "hello" {
		t.Fatalf("read back %q, %v", blob, err)
	}
	if extra := lingering(t, dir, "out.json"); len(extra) > 0 {
		t.Errorf("leftover files after success: %v", extra)
	}
}

func TestWriteFileAtomicWriteErrorLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("previous"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "partial garbage")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// The failed write must not leak its temp file or touch the
	// destination.
	if extra := lingering(t, dir, "out.json"); len(extra) > 0 {
		t.Errorf("temp file lingers after write error: %v", extra)
	}
	blob, err := os.ReadFile(path)
	if err != nil || string(blob) != "previous" {
		t.Errorf("destination changed by failed write: %q, %v", blob, err)
	}
}

func TestWriteFileAtomicRenameErrorLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	// A non-empty directory at the destination makes the rename fail
	// after the temp file was written and synced.
	path := filepath.Join(dir, "occupied")
	if err := os.MkdirAll(filepath.Join(path, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	err := WriteFileAtomic(path, func(w io.Writer) error {
		_, werr := io.WriteString(w, "hello")
		return werr
	})
	if err == nil {
		t.Fatal("rename onto a non-empty directory succeeded?")
	}
	if extra := lingering(t, dir, "occupied"); len(extra) > 0 {
		t.Errorf("temp file lingers after rename error: %v", extra)
	}
}

func TestWriteFileAtomicMissingDir(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "no", "such", "dir", "out.json")
	err := WriteFileAtomic(path, func(w io.Writer) error { return nil })
	if err == nil {
		t.Fatal("write into a missing directory succeeded?")
	}
	if !strings.Contains(err.Error(), "no such file") && !os.IsNotExist(err) {
		t.Logf("note: error was %v", err)
	}
}

// TestReplaceFile: the fsync-free write replaces a file whole and, on
// a failed rename, leaves neither a temp file nor a changed destination.
func TestReplaceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.trace")
	for _, data := range []string{"first", "second, longer"} {
		if err := ReplaceFile(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		if blob, err := os.ReadFile(path); err != nil || string(blob) != data {
			t.Fatalf("read back %q, %v; want %q", blob, err, data)
		}
	}
	if extra := lingering(t, dir, "rec.trace"); len(extra) > 0 {
		t.Errorf("leftover files after success: %v", extra)
	}
	occupied := filepath.Join(dir, "occupied")
	if err := os.MkdirAll(filepath.Join(occupied, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := ReplaceFile(occupied, []byte("x")); err == nil {
		t.Fatal("rename onto a non-empty directory succeeded?")
	}
	if extra := lingering(t, dir, "rec.trace", "occupied"); len(extra) > 0 {
		t.Errorf("temp file lingers after rename error: %v", extra)
	}
}
