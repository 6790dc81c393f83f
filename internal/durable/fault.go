package durable

import (
	"errors"
	"io"
	"io/fs"
	"sync"
	"time"
)

// ErrCrashed is returned by every mutating operation after a FaultFS
// crash point fires: the simulated machine is off, nothing reaches the
// disk anymore.
var ErrCrashed = errors.New("durable: simulated crash: filesystem offline")

// FaultFS wraps an FS and injects disk faults deterministically:
//
//   - FailWrites makes every File.Write fail with a chosen error
//     (ENOSPC being the canonical tenant) without persisting anything.
//   - ShortWrites makes every File.Write persist only a prefix and
//     report io.ErrShortWrite, modeling a torn in-place write.
//   - CrashAt(n) arms a crash point at the n-th mutating operation:
//     that operation is interrupted (a write persists a prefix, a
//     rename is dropped — or torn, see TornRenames) and every later
//     mutation fails with ErrCrashed. The state left behind on the
//     inner FS is exactly what a SIGKILL or power loss at that syscall
//     boundary would leave; tests then reopen the directory with a
//     clean FS to simulate the restart.
//   - TornRenames makes a crashing rename leave a partial copy of the
//     source at the destination, modeling non-atomic renames on
//     filesystems without POSIX semantics — the case only the CRC
//     frame can catch.
//
// Reads pass through uncounted and keep working after a crash, so a
// test can inspect the post-crash disk through the same handle.
type FaultFS struct {
	inner FS

	mu          sync.Mutex
	ops         int
	crashAt     int
	crashed     bool
	writeErr    error
	shortWrites bool
	tornRenames bool
	delay       time.Duration
}

// NewFaultFS wraps inner (nil = the real filesystem).
func NewFaultFS(inner FS) *FaultFS {
	if inner == nil {
		inner = OS{}
	}
	return &FaultFS{inner: inner}
}

// Slow returns an FS whose every mutating operation sleeps d first:
// the crash-soak harness runs peas-serve with a slowed FS so randomized
// SIGKILLs land inside durable-write windows with useful probability.
func Slow(inner FS, d time.Duration) FS {
	f := NewFaultFS(inner)
	f.SetDelay(d)
	return f
}

// Ops returns the number of mutating operations attempted so far; with
// a fixed workload it is deterministic, which is what lets crash-sweep
// tests enumerate every interruption point.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the armed crash point has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// CrashAt arms the crash point at the n-th (1-based) mutating
// operation, counted from now; n <= 0 disarms.
func (f *FaultFS) CrashAt(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops = 0
	f.crashed = false
	f.crashAt = n
}

// FailWrites makes every File.Write fail with err (nil restores normal
// writes).
func (f *FaultFS) FailWrites(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeErr = err
}

// ShortWrites toggles torn in-place writes: half the bytes land, then
// io.ErrShortWrite.
func (f *FaultFS) ShortWrites(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shortWrites = on
}

// TornRenames toggles non-atomic crashing renames.
func (f *FaultFS) TornRenames(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tornRenames = on
}

// SetDelay makes every mutating operation sleep d before executing.
func (f *FaultFS) SetDelay(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.delay = d
}

// Reset disarms every fault and zeroes the operation counter.
func (f *FaultFS) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops = 0
	f.crashAt = 0
	f.crashed = false
	f.writeErr = nil
	f.shortWrites = false
	f.tornRenames = false
}

// step accounts one mutating operation. It returns interrupt=true when
// this operation is the armed crash point (the caller applies its
// partial effect, then the disk is off), and ErrCrashed for every
// operation after it.
func (f *FaultFS) step() (interrupt bool, err error) {
	f.mu.Lock()
	d := f.delay
	f.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return false, ErrCrashed
	}
	f.ops++
	if f.crashAt > 0 && f.ops == f.crashAt {
		f.crashed = true
		return true, nil
	}
	return false, nil
}

// MkdirAll implements FS.
func (f *FaultFS) MkdirAll(dir string) error {
	if interrupt, err := f.step(); err != nil || interrupt {
		if interrupt {
			return ErrCrashed
		}
		return err
	}
	return f.inner.MkdirAll(dir)
}

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) { return f.open(f.inner.Create, name) }

// Append implements FS. The appended file's writes, syncs and close are
// counted and faulted exactly as a created file's.
func (f *FaultFS) Append(name string) (File, error) { return f.open(f.inner.Append, name) }

// open is one counted open through the inner FS's Create or Append.
func (f *FaultFS) open(open func(string) (File, error), name string) (File, error) {
	if interrupt, err := f.step(); err != nil || interrupt {
		if interrupt {
			return nil, ErrCrashed
		}
		return nil, err
	}
	inner, err := open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

// ReadFile implements FS (uncounted; works after a crash).
func (f *FaultFS) ReadFile(name string) ([]byte, error) { return f.inner.ReadFile(name) }

// ReadDir implements FS (uncounted; works after a crash).
func (f *FaultFS) ReadDir(dir string) ([]fs.DirEntry, error) { return f.inner.ReadDir(dir) }

// Rename implements FS. A crashing rename is dropped — or, with
// TornRenames, leaves a partial destination the CRC frame must catch.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	interrupt, err := f.step()
	if err != nil {
		return err
	}
	if interrupt {
		f.mu.Lock()
		torn := f.tornRenames
		f.mu.Unlock()
		if torn {
			if data, rerr := f.inner.ReadFile(oldpath); rerr == nil && len(data) > 0 {
				if dst, cerr := f.inner.Create(newpath); cerr == nil {
					_, _ = dst.Write(data[:(len(data)+1)/2])
					_ = dst.Close()
				}
			}
		}
		return ErrCrashed
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	if interrupt, err := f.step(); err != nil || interrupt {
		if interrupt {
			return ErrCrashed
		}
		return err
	}
	return f.inner.Remove(name)
}

// SyncDir implements FS.
func (f *FaultFS) SyncDir(dir string) error {
	if interrupt, err := f.step(); err != nil || interrupt {
		if interrupt {
			return ErrCrashed
		}
		return err
	}
	return f.inner.SyncDir(dir)
}

// faultFile routes file mutations through the parent's fault logic.
type faultFile struct {
	fs    *FaultFS
	inner File
}

// Write implements File. Injection order: configured write errors
// (ENOSPC) first, then short writes, then the crash point — a crashing
// write persists a prefix, like a page that made it to disk before the
// power died.
func (w *faultFile) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	werr := w.fs.writeErr
	short := w.fs.shortWrites
	w.fs.mu.Unlock()
	if werr != nil {
		return 0, werr
	}
	interrupt, err := w.fs.step()
	if err != nil {
		return 0, err
	}
	if interrupt {
		n, _ := w.inner.Write(p[:len(p)/2])
		return n, ErrCrashed
	}
	if short {
		n, err := w.inner.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, io.ErrShortWrite
	}
	return w.inner.Write(p)
}

// Sync implements File.
func (w *faultFile) Sync() error {
	if interrupt, err := w.fs.step(); err != nil || interrupt {
		if interrupt {
			return ErrCrashed
		}
		return err
	}
	return w.inner.Sync()
}

// Close implements File. Close always releases the descriptor — a
// crashed process still has its files closed by the kernel — but
// reports the crash so protocol code stops.
func (w *faultFile) Close() error {
	interrupt, err := w.fs.step()
	cerr := w.inner.Close()
	if err != nil {
		return err
	}
	if interrupt {
		return ErrCrashed
	}
	return cerr
}
