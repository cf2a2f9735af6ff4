package serve

import (
	"io"
	"os"
)

// FS abstracts every filesystem operation the disk tier performs, so
// tests (and the chaos harness) can inject faults deterministically and
// the circuit breaker has one choke point to guard. The production
// implementation is osFS; the tests' FaultFS (faultfs_test.go) wraps any
// FS with seeded error injection. All methods mirror their os
// counterparts.
type FS interface {
	// MkdirAll creates dir (and parents) like os.MkdirAll.
	MkdirAll(dir string) error
	// ReadDir lists dir like os.ReadDir.
	ReadDir(dir string) ([]os.DirEntry, error)
	// ReadFile reads path whole like os.ReadFile.
	ReadFile(path string) ([]byte, error)
	// OpenWrite opens path for writing (create + truncate).
	OpenWrite(path string) (FileWriter, error)
	// Rename atomically replaces newPath with oldPath like os.Rename.
	Rename(oldPath, newPath string) error
	// Remove deletes path like os.Remove.
	Remove(path string) error
	// SyncDir fsyncs a directory so a completed rename survives power
	// loss; best-effort on filesystems that reject directory fsync.
	SyncDir(dir string) error
}

// FileWriter is the writable-file surface OpenWrite returns: sequential
// writes, an fsync, and a close.
type FileWriter interface {
	io.Writer
	Sync() error
	Close() error
}

// osFS is the real filesystem.
type osFS struct{}

// OSFS returns the production filesystem implementation. It is the
// default when Config.FS is nil; tests pass it as the inner layer of a
// FaultFS.
func OSFS() FS { return osFS{} }

func (osFS) MkdirAll(dir string) error                 { return os.MkdirAll(dir, 0o755) }
func (osFS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) ReadFile(path string) ([]byte, error)      { return os.ReadFile(path) }
func (osFS) Rename(oldPath, newPath string) error      { return os.Rename(oldPath, newPath) }
func (osFS) Remove(path string) error                  { return os.Remove(path) }

func (osFS) OpenWrite(path string) (FileWriter, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	d.Sync() // best-effort: some filesystems reject directory fsync
	return nil
}
