package durable

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"syscall"
)

// File is the writable-file surface the atomic write protocol and the
// log need: append bytes, force them to stable storage, release the
// descriptor.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the syscall surface the durability layer is written against.
// Production code uses OS; tests substitute a FaultFS to inject
// ENOSPC, short writes, simulated crashes between any two syscalls,
// and torn renames.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// Append opens name for appending, creating it if absent.
	Append(name string) (File, error)
	// ReadFile returns the full contents of name.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes name.
	Remove(name string) error
	// ReadDir lists dir.
	ReadDir(dir string) ([]fs.DirEntry, error)
	// SyncDir fsyncs the directory itself, making renames and removals
	// within it durable.
	SyncDir(dir string) error
}

// OS is the real filesystem.
type OS struct{}

// MkdirAll implements FS.
func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// Create implements FS.
func (OS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

// Append implements FS.
func (OS) Append(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

// ReadFile implements FS.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// ReadDir implements FS.
func (OS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }

// SyncDir implements FS. Filesystems that cannot fsync a directory
// (some network and FUSE mounts report EINVAL or ENOTSUP) degrade to a
// no-op: the rename itself is still atomic, only its durability across
// power loss is weakened, and failing the write for it would hurt more.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
			return nil
		}
		return err
	}
	return nil
}
