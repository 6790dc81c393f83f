package durable

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
)

// TestFaultFSCountsAppends: a file opened with Append is counted and
// faulted exactly as a created one — the open, every write, sync and
// close is one operation, FailWrites and ShortWrites apply, and a crash
// point on a write persists half of it.
func TestFaultFSCountsAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	f := NewFaultFS(OS{})
	file, err := f.Append(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := file.Write([]byte("abcd")); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(file.Sync(), file.Close()); err != nil {
		t.Fatal(err)
	}
	if got := f.Ops(); got != 4 {
		t.Fatalf("open, write, sync and close of an appended file counted %d ops, want 4", got)
	}

	file, err = f.Append(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	f.FailWrites(syscall.ENOSPC)
	if _, err := file.Write([]byte("lost")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("write under ENOSPC: %v", err)
	}
	f.FailWrites(nil)
	f.ShortWrites(true)
	if _, err := file.Write([]byte("efgh")); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short write: %v", err)
	}
	f.ShortWrites(false)
	f.CrashAt(1)
	if _, err := file.Write([]byte("ijkl")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crashing write: %v", err)
	}
	if _, err := file.Write([]byte("mnop")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after the crash: %v", err)
	}
	got, err := OS{}.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abcdefij" {
		t.Fatalf("the appended file holds %q, want %q", got, "abcdefij")
	}
}

// writeLog writes payloads through a Log on the real filesystem, the
// first through Rewrite and the rest appended and synced, and returns the
// file's bytes.
func writeLog(t testing.TB, payloads ...string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "admissions.log")
	l := NewLog(OS{}, path)
	if err := l.Rewrite([][]byte{[]byte(payloads[0])}); err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads[1:] {
		if err := errors.Join(l.Append([]byte(p)), l.Sync()); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := OS{}.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLogAppendSyncRewrite: appends read back in order; a sync is one
// fsync; a failed write or sync closes the log until a rewrite; the
// rewrite keeps only what it is given.
func TestLogAppendSyncRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "admissions.log")
	f := NewFaultFS(OS{})
	l := NewLog(f, path)
	if err := l.Append([]byte("x")); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("append before the first rewrite: %v, want ErrLogClosed", err)
	}
	if err := l.Rewrite(nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"a", "b", "c"} {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	ops := f.Ops()
	if err := l.Sync(); err != nil || f.Ops() != ops+1 {
		t.Fatalf("sync: %v, %d ops; want one", err, f.Ops()-ops)
	}
	read := func() []string {
		data, err := OS{}.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		records, damaged, torn := ReadLog(data)
		if len(damaged) > 0 || torn != nil {
			t.Fatalf("log damaged %q, torn %q", damaged, torn)
		}
		var out []string
		for _, r := range records {
			out = append(out, string(r))
		}
		return out
	}
	if got := read(); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Fatalf("log holds %q", got)
	}

	f.ShortWrites(true)
	if err := l.Append([]byte("torn")); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short append: %v", err)
	}
	f.ShortWrites(false)
	if err := l.Append([]byte("d")); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("append after a failed write: %v, want ErrLogClosed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("sync after a failed write: %v, want ErrLogClosed", err)
	}
	if err := l.Rewrite([][]byte{[]byte("b")}); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(l.Append([]byte("d")), l.Sync()); err != nil {
		t.Fatal(err)
	}
	if got := read(); !slices.Equal(got, []string{"b", "d"}) {
		t.Fatalf("rewritten log holds %q, want [b d]", got)
	}
	if l.Size() != int64(2*headerSize+2) {
		t.Fatalf("Size = %d, want %d", l.Size(), 2*headerSize+2)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// heldSyncFS is the real filesystem whose appended files hold each Sync
// until the test releases it.
type heldSyncFS struct {
	OS
	syncing, release chan struct{}
}

type heldSyncFile struct {
	File
	fs *heldSyncFS
}

func (h *heldSyncFS) Append(name string) (File, error) {
	f, err := h.OS.Append(name)
	if err != nil {
		return nil, err
	}
	return heldSyncFile{f, h}, nil
}

func (f heldSyncFile) Sync() error {
	f.fs.syncing <- struct{}{}
	<-f.fs.release
	return f.File.Sync()
}

// TestSyncRacingRewrite: a sync in flight holds no lock, so an append
// goes on meanwhile. When a Rewrite replaces the file under it, the
// sync's fsync of the closed file fails, and Sync still reports success,
// since the rewrite made the records durable; after a Close it reports
// the failure.
func TestSyncRacingRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "admissions.log")
	h := &heldSyncFS{syncing: make(chan struct{}), release: make(chan struct{})}
	l := NewLog(h, path)
	if err := errors.Join(l.Rewrite(nil), l.Append([]byte("a"))); err != nil {
		t.Fatal(err)
	}
	synced := make(chan error, 1)
	go func() { synced <- l.Sync() }()
	<-h.syncing
	if err := l.Append([]byte("b")); err != nil {
		t.Fatalf("append during a sync: %v", err)
	}
	if err := l.Rewrite([][]byte{[]byte("a"), []byte("b")}); err != nil {
		t.Fatal(err)
	}
	h.release <- struct{}{}
	if err := <-synced; err != nil {
		t.Fatalf("a sync the rewrite overtook: %v, want success", err)
	}

	if err := l.Append([]byte("c")); err != nil {
		t.Fatal(err)
	}
	go func() { synced <- l.Sync() }()
	<-h.syncing
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	h.release <- struct{}{}
	if err := <-synced; err == nil {
		t.Fatal("a sync of a log closed under it reported success")
	}
}

// TestReadLogTornAndDamage holds the reader to its two rules on a
// three-record log: cut anywhere, it returns the whole frames before the
// cut and calls a partial last frame torn; with a bit flipped anywhere, a
// damaged frame before the last is one damaged run and costs no other
// record, and a damaged last frame reads as torn or as one damaged run.
func TestReadLogTornAndDamage(t *testing.T) {
	payloads := []string{`{"id":"j-000001"}`, `{"id":"j-000002","spec":{}}`, `{"retired":"j-000001"}`}
	data := writeLog(t, payloads...)
	var ends []int
	for i, p := range payloads {
		ends = append(ends, len(Frame([]byte(p))))
		if i > 0 {
			ends[i] += ends[i-1]
		}
	}
	if ends[2] != len(data) {
		t.Fatalf("log is %d bytes, frames end at %v", len(data), ends)
	}
	strs := func(rs [][]byte) []string {
		var out []string
		for _, r := range rs {
			out = append(out, string(r))
		}
		return out
	}
	for n := 0; n <= len(data); n++ {
		records, damaged, torn := ReadLog(data[:n])
		whole := 0
		for whole < len(ends) && ends[whole] <= n {
			whole++
		}
		wantTorn := n > 0 && !slices.Contains(ends, n)
		if !slices.Equal(strs(records), payloads[:whole]) || len(damaged) != 0 || (torn != nil) != wantTorn {
			t.Fatalf("cut at %d: records %q, damaged %q, torn %q", n, records, damaged, torn)
		}
	}
	for off := range data {
		mutated := bytes.Clone(data)
		mutated[off] ^= 0x10
		hit := 0
		for off >= ends[hit] {
			hit++
		}
		records, damaged, torn := ReadLog(mutated)
		want := slices.Delete(slices.Clone(payloads), hit, hit+1)
		ok := slices.Equal(strs(records), want)
		if hit < len(payloads)-1 {
			ok = ok && torn == nil && len(damaged) == 1 && len(damaged[0]) == len(Frame([]byte(payloads[hit])))
		} else {
			ok = ok && len(damaged) <= 1 && (len(damaged) == 1) != (torn != nil)
		}
		if !ok {
			t.Fatalf("flip at %d (frame %d): records %q, damaged %q, torn %q", off, hit, records, damaged, torn)
		}
	}
}

// FuzzReadLog: whatever the bytes, ReadLog does not panic, every record
// it returns is a frame that occurs in the input, and the records' frames,
// the damaged runs and the torn tail account for every input byte exactly
// once. The seeds are logs written through Log, whole, cut and flipped.
func FuzzReadLog(f *testing.F) {
	logs := [][]byte{
		writeLog(f, `{"id":"j-000001","key":"k","spec":{"kind":"sim"}}`, `{"retired":"j-000001"}`),
		writeLog(f, `{"retired":"j-000009"}`, `{"id":"j-000010"}`, `{"id":"j-000011"}`),
	}
	for _, log := range logs {
		f.Add(log)
		f.Add(log[:len(log)-5])
		flipped := bytes.Clone(log)
		flipped[len(flipped)/2] ^= 0x10
		f.Add(flipped)
		f.Add(append(bytes.Clone(log[3:]), log...))
	}
	f.Add([]byte{})
	f.Add([]byte("PEASDUR"))
	f.Fuzz(func(t *testing.T, data []byte) {
		records, damaged, torn := ReadLog(data)
		covered := len(torn)
		for _, r := range records {
			frame := Frame(r)
			if !bytes.Contains(data, frame) {
				t.Fatalf("record %q: its frame is not in the input", r)
			}
			covered += len(frame)
		}
		for _, d := range damaged {
			if len(d) == 0 {
				t.Fatal("an empty damaged run")
			}
			covered += len(d)
		}
		if covered != len(data) {
			t.Fatalf("records, damage and tail cover %d of %d bytes", covered, len(data))
		}
	})
}
