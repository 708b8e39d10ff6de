// Package fsutil holds small filesystem helpers shared by the
// checkpoint writer (internal/core) and the persistent trace store
// (internal/tracestore) — packages that must not import each other.
package fsutil

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// WriteFileAtomic writes via a temp file in path's directory and
// renames it into place, so readers (and crash recovery) only ever see
// complete files. The temp file is fsynced before the rename and the
// directory is fsynced after it, so a power cut can lose the update
// but never the file: checkpoints and corpus entries either exist in
// full or not at all. No error path leaves the temp file behind.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	return replace(path, write, true)
}

// ReplaceFile writes data to path as WriteFileAtomic does, through a
// temp file and a rename, but fsyncs neither: while the system runs,
// readers see the whole file or the one before it, but a power cut
// can leave a torn, zeroed or empty file under the new name, or lose
// the rename. Use it only for a cache whose reader checks every file
// and treats a bad one as a miss.
func ReplaceFile(path string, data []byte) error {
	return replace(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}, false)
}

// replace is WriteFileAtomic, with the fsyncs only when durable.
func replace(path string, write func(io.Writer) error, durable bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if durable {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if !durable {
		return nil
	}
	return syncDir(dir)
}

// syncDir makes a completed rename durable: until the directory entry
// itself is flushed, a crash can roll the rename back. Filesystems
// that cannot fsync a directory (EINVAL/ENOTSUP) already persist
// renames themselves, so those errors are not failures.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil &&
		!errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}
