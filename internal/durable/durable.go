// Package durable provides crash-only file persistence: atomic,
// fsync'd, CRC-framed single-file writes with an injectable filesystem
// fault layer. It is the foundation the jobqueue state store is built
// on, and the contract it offers is deliberately narrow:
//
//   - WriteFile persists a payload with write-tmp → fsync(file) →
//     rename → fsync(dir). After a crash at ANY point, the destination
//     path holds either the complete previous payload or the complete
//     new payload — never a mix — because the only mutation of the
//     destination is an atomic rename of fully-synced bytes.
//   - Every payload is wrapped in a CRC-32C frame, so damage that the
//     protocol cannot rule out (torn renames on non-POSIX filesystems,
//     media corruption, a file truncated by an operator) is *detected*
//     at read time and surfaced as ErrCorrupt instead of being parsed.
//   - ReadFile verifies the frame and returns the payload, or
//     ErrCorrupt. Callers decide policy (the jobqueue quarantines).
//
// The FS interface abstracts the handful of syscalls involved so tests
// can interpose a FaultFS that injects ENOSPC, short writes, simulated
// crashes between any two syscalls, and torn renames — which is how the
// crash-point sweep tests prove the old-or-new guarantee holds at every
// interruption boundary.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
)

// ErrCorrupt reports a file whose frame failed validation: wrong magic,
// impossible length, or a CRC mismatch. The payload cannot be trusted.
var ErrCorrupt = errors.New("durable: corrupt frame")

// frameMagic identifies a durable frame; the trailing byte is the frame
// format version.
var frameMagic = [8]byte{'P', 'E', 'A', 'S', 'D', 'U', 'R', 1}

// headerSize is magic(8) + payload length(4) + CRC-32C(4).
const headerSize = 16

// castagnoli is the CRC-32C polynomial table (hardware-accelerated on
// amd64/arm64, and with better error-detection spread than IEEE).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame wraps payload in the durable frame: magic, little-endian payload
// length, CRC-32C of the payload, then the payload bytes.
func Frame(payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	copy(buf, frameMagic[:])
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[12:], crc32.Checksum(payload, castagnoli))
	copy(buf[headerSize:], payload)
	return buf
}

// Unframe validates data as a durable frame and returns the payload.
// Truncated, oversized, or bit-flipped input returns an error wrapping
// ErrCorrupt; it never panics and never returns a damaged payload.
func Unframe(data []byte) ([]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the %d-byte header", ErrCorrupt, len(data), headerSize)
	}
	if [8]byte(data[:8]) != frameMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(data[8:])
	if int(n) != len(data)-headerSize {
		return nil, fmt.Errorf("%w: header claims %d payload bytes, file carries %d", ErrCorrupt, n, len(data)-headerSize)
	}
	payload := data[headerSize:]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(data[12:]); got != want {
		return nil, fmt.Errorf("%w: CRC %08x, frame records %08x", ErrCorrupt, got, want)
	}
	return payload, nil
}

// TmpSuffix marks in-progress writes. A file carrying it was never
// renamed into place and holds no committed data; recovery sweeps are
// free to delete it.
const TmpSuffix = ".tmp"

// WriteFile atomically persists payload at path, framed:
//
//	write path.tmp → fsync(path.tmp) → close → rename(tmp, path) → fsync(dir)
//
// On any error the destination is untouched (the previous payload, if
// any, remains committed) and the temporary file is best-effort removed.
func WriteFile(fsys FS, path string, payload []byte) error {
	return writeRaw(fsys, path, Frame(payload))
}

// writeRaw is WriteFile's protocol for data that is already framed: a
// log's frames, or one payload's.
func writeRaw(fsys FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := fsys.MkdirAll(dir); err != nil {
		return fmt.Errorf("durable: mkdir %s: %w", dir, err)
	}
	tmp := path + TmpSuffix
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: create %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		_ = fsys.Remove(tmp)
		return fmt.Errorf("durable: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = fsys.Remove(tmp)
		return fmt.Errorf("durable: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("durable: close %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("durable: rename %s: %w", path, err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("durable: fsync dir %s: %w", dir, err)
	}
	return nil
}

// ReadFile reads path and validates its frame, returning the payload.
// A missing file returns the underlying not-exist error; a present but
// damaged file returns an error wrapping ErrCorrupt.
func ReadFile(fsys FS, path string) ([]byte, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := Unframe(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return payload, nil
}
