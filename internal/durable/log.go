package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
)

// ErrLogClosed is returned by Log.Append and Log.Sync while the log has
// no usable file: before the first Rewrite, after Close, and after a
// failed write or sync, whose bytes on disk nobody can vouch for. Rewrite
// is the only way back.
var ErrLogClosed = errors.New("durable: log closed; rewrite it")

// Log is an append-only file of Frame records. Append writes one frame
// under the log's lock, and Sync flushes the file to stable storage
// without holding it, so appends go on while a sync waits on the disk.
// Rewrite replaces the whole file through WriteFile (old-or-new) with the
// records the caller still needs and reopens it for appending; it is how
// a log is first opened, compacted, and repaired after a failed write.
//
// A crash can leave the last frame torn; ReadLog drops it. A failed Write
// may leave a torn frame in place too, which is why the log refuses
// further appends until it is rewritten: every frame before the end of
// the file is then one an append completed.
type Log struct {
	fsys FS
	path string

	mu   sync.Mutex // guards f, size and gen
	f    File       // nil until Rewrite, and after Close or a failure
	size int64
	gen  uint64 // Rewrites completed
}

// NewLog returns the log at path, not yet open: call Rewrite first.
func NewLog(fsys FS, path string) *Log { return &Log{fsys: fsys, path: path} }

// Rewrite atomically replaces the log's file with payloads, framed, and
// reopens it for appending, so the caller must pass every record that has
// to survive. On error the file holds its old content or the new, and the
// log stays closed.
func (l *Log) Rewrite(payloads [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closeLocked()
	var data []byte
	for _, p := range payloads {
		data = append(data, Frame(p)...)
	}
	// WriteFile frames its content once more; the log's frames are the
	// file, so write them raw through the same protocol.
	if err := writeRaw(l.fsys, l.path, data); err != nil {
		return err
	}
	f, err := l.fsys.Append(l.path)
	if err != nil {
		return fmt.Errorf("durable: open %s for append: %w", l.path, err)
	}
	l.f, l.size = f, int64(len(data))
	l.gen++
	return nil
}

// Append writes one frame holding payload at the end of the log, without
// syncing it. A failed write closes the log.
func (l *Log) Append(payload []byte) error {
	frame := Frame(payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return ErrLogClosed
	}
	n, err := l.f.Write(frame)
	l.size += int64(n)
	if err != nil {
		l.closeLocked()
		return fmt.Errorf("durable: append %s: %w", l.path, err)
	}
	return nil
}

// Sync puts every record appended so far on stable storage. The fsync
// runs outside the log's lock. A sync that fails after a Rewrite replaced
// the file still succeeds: the rewrite put every record its caller still
// needs on stable storage. Any other failed sync closes the log: no later
// sync can vouch for the records it should have covered.
func (l *Log) Sync() error {
	l.mu.Lock()
	f, gen := l.f, l.gen
	l.mu.Unlock()
	if f == nil {
		return ErrLogClosed
	}
	err := f.Sync()
	if err == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.gen != gen {
		return nil
	}
	if l.f == f {
		l.closeLocked()
	}
	return fmt.Errorf("durable: fsync %s: %w", l.path, err)
}

// Size returns the log file's length in bytes as this Log wrote it.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Close releases the file without syncing it. Append and Sync fail until
// the next Rewrite.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

func (l *Log) closeLocked() {
	if l.f != nil {
		_ = l.f.Close()
		l.f = nil
	}
}

// ReadLog splits a log file's bytes into the payloads of its valid
// frames, in order. It never fails on content:
//
//   - A frame that does not validate and runs to the end of the file — a
//     partial header, a length past the end, or a CRC mismatch on the
//     last bytes — is a torn append that was never acknowledged. It is
//     returned as torn and no record comes of it.
//   - Any other bytes that are not a valid frame are damage. Reading
//     resumes at the next frame magic, so each damaged run costs the
//     records it overlaps and no more; the runs are returned in damaged.
//
// Payloads and runs alias data.
func ReadLog(data []byte) (records, damaged [][]byte, torn []byte) {
	for off := 0; off < len(data); {
		rest := data[off:]
		if n, ok := frameLen(rest); ok {
			records = append(records, rest[headerSize:n])
			off += n
			continue
		}
		next := bytes.Index(rest[1:], frameMagic[:])
		if next < 0 {
			if tornTail(rest) {
				return records, damaged, rest
			}
			return records, append(damaged, rest), nil
		}
		damaged = append(damaged, rest[:1+next])
		off += 1 + next
	}
	return records, damaged, nil
}

// frameLen reports the length of the valid frame at the start of data.
func frameLen(data []byte) (int, bool) {
	if len(data) < headerSize || [8]byte(data[:8]) != frameMagic {
		return 0, false
	}
	n := headerSize + int64(binary.LittleEndian.Uint32(data[8:]))
	if n > int64(len(data)) {
		return 0, false
	}
	if crc32.Checksum(data[headerSize:n], castagnoli) != binary.LittleEndian.Uint32(data[12:]) {
		return 0, false
	}
	return int(n), true
}

// tornTail reports whether tail, the invalid rest of a log, is what an
// interrupted append leaves: too short for a header, or a frame whose
// length reaches or passes the end of the file.
func tornTail(tail []byte) bool {
	if len(tail) < headerSize {
		return bytes.HasPrefix(frameMagic[:], tail[:min(len(tail), len(frameMagic))])
	}
	if [8]byte(tail[:8]) != frameMagic {
		return false
	}
	return headerSize+int64(binary.LittleEndian.Uint32(tail[8:])) >= int64(len(tail))
}
