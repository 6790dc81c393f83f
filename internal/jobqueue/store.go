package jobqueue

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"maps"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"peas/internal/checkpoint"
	"peas/internal/durable"
)

// On-disk layout under Config.StateDir:
//
//	admissions.log — the write-ahead admission log: one CRC-framed record
//	                 per admitted job (ID, content key, normalized spec),
//	                 appended and fsynced before the job becomes
//	                 runnable, and one unsynced retire record per job
//	                 that leaves it.
//	<id>.ckpt      — the drain checkpoint in the canonical snapshot
//	                 codec, written when a shutdown deadline suspends
//	                 the run, or a parked run's checkpoint.
//	<id>.spec.json — a parked job: the spec with the Parked mark, filed
//	                 beside its checkpoint. A plain spec file is a job a
//	                 server of the one-file-per-job store admitted.
//	quarantine/    — damaged files and log bytes set aside instead of
//	                 parsing, and the bytes of torn log tails.
//
// The files are written through internal/durable's WriteFile: an atomic,
// fsync'd, CRC-framed protocol (write-tmp → fsync file → rename → fsync
// dir), so a SIGKILL or power loss at any syscall boundary leaves each
// path holding either its complete previous content or its complete new
// content. The log is only appended to, and rewritten whole through the
// same protocol. A crash can tear only its last frame, which was never
// acknowledged. Recover is crash-only: it replays the log and scans the
// directory on boot, re-enqueues every live admission and plain spec
// (resuming bit-exactly from a .ckpt when present, restarting from the
// spec otherwise), quarantines any record or file that fails frame or
// schema validation, sweeps torn .tmp files, torn log tails and orphaned
// checkpoints, and never aborts the boot for damage.

// QuarantineDir is the subdirectory of the state dir that damaged
// files are moved into for offline inspection.
const QuarantineDir = "quarantine"

// logName is the admission log's file name in the state dir.
const logName = "admissions.log"

// The log is compacted — rewritten with only its live admissions — when
// it has grown past compactFloor bytes and compactRatio times the bytes
// those admissions take.
const (
	compactFloor = 1 << 20
	compactRatio = 4
)

type specFile struct {
	ID   string `json:"id"`
	Key  string `json:"key"`
	Spec *Spec  `json:"spec"`
	// Parked marks the pair as a cancelled/deadline-killed run's leftover
	// checkpoint: Recover makes the key parked (claimable by a
	// resubmission of the same spec) instead of re-enqueueing the job —
	// a cancelled job must never resurrect as runnable work.
	Parked bool `json:"parked,omitempty"`
}

// admissions is the pool's side of the admission log: the file and the
// records of it that are still live. Its mutex is the log lock: every
// append, and every rewrite, holds it.
type admissions struct {
	mu  sync.Mutex
	log *durable.Log
	// err is why New could not read the log. While it is set nothing is
	// appended, so the unread records are never rewritten away, and
	// Recover returns it.
	err error
	// live holds each live admission's record by job ID; liveBytes is
	// their total length.
	live      map[string][]byte
	liveBytes int
	// top is the highest job sequence the log holds, retired or not.
	top int
}

func (p *Pool) specPath(id string) string {
	return filepath.Join(p.cfg.StateDir, id+".spec.json")
}

func (p *Pool) ckptPath(id string) string {
	return filepath.Join(p.cfg.StateDir, id+".ckpt")
}

// retireRecord is the log record that takes id out of the live admissions.
func retireRecord(id string) []byte { return []byte(`{"retired":"` + id + `"}`) }

// logAdmission appends the job's admission record to the log and syncs
// it: once it returns nil, a crash recovers the job. A no-op without a
// state dir.
func (p *Pool) logAdmission(job *Job) error {
	if p.cfg.StateDir == "" {
		return nil
	}
	data, err := json.Marshal(specFile{ID: job.ID, Key: job.Key, Spec: job.Spec})
	if err != nil {
		return err
	}
	a := &p.adm
	a.mu.Lock()
	err = p.appendLocked(data)
	if err == nil {
		a.live[job.ID] = data
		a.liveBytes += len(data)
		a.top = max(a.top, idSequence(job.ID))
	}
	a.mu.Unlock()
	if err != nil {
		return err
	}
	return a.log.Sync()
}

// retire takes id out of the live admissions with an unsynced retire
// record, and reports whether the log held it. A lost retire record costs
// a re-run after a crash, never a lost job.
func (p *Pool) retire(id string) bool {
	a := &p.adm
	a.mu.Lock()
	defer a.mu.Unlock()
	rec, ok := a.live[id]
	if !ok {
		return false
	}
	delete(a.live, id)
	a.liveBytes -= len(rec)
	_ = p.appendLocked(retireRecord(id))
	return true
}

// appendLocked appends one record under the log lock. A log that is
// closed — not yet rewritten this boot, or after a failed write — is
// rewritten first, with the live records New replayed, and so is one
// that has outgrown its live records.
func (p *Pool) appendLocked(payload []byte) error {
	a := &p.adm
	if a.err != nil {
		return a.err
	}
	if size := a.log.Size(); size > compactFloor && size > compactRatio*int64(a.liveBytes) {
		_ = p.rewriteLogLocked() // on failure the log is closed, and the append retries
	}
	err := a.log.Append(payload)
	if errors.Is(err, durable.ErrLogClosed) {
		if err = p.rewriteLogLocked(); err == nil {
			err = a.log.Append(payload)
		}
	}
	return err
}

// rewriteLogLocked replaces the log with its live admissions, in ID
// order, after a retire record of the highest ID it held when that ID is
// not live: the next boot's IDs start past it.
func (p *Pool) rewriteLogLocked() error {
	a := &p.adm
	ids := make([]string, 0, len(a.live))
	for id := range a.live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	payloads := make([][]byte, 0, len(ids)+1)
	if top := jobID(a.top); a.top > 0 && a.live[top] == nil {
		payloads = append(payloads, retireRecord(top))
	}
	for _, id := range ids {
		payloads = append(payloads, a.live[id])
	}
	return a.log.Rewrite(payloads)
}

// replay reads the log left by earlier boots into the live admissions and
// the ID high-water mark, and advances the ID sequence past it. New calls
// it, before any ID is issued, so a pool that never calls Recover neither
// reissues an earlier boot's IDs nor drops its records. A torn tail is
// counted with the swept .tmp files and its bytes kept in quarantine;
// damaged bytes go to quarantine, one jobs_quarantined each run. A log
// that cannot be read is not touched: a.err keeps the error.
func (p *Pool) replay() {
	a := &p.adm
	a.log, a.live = durable.NewLog(p.cfg.FS, filepath.Join(p.cfg.StateDir, logName)), map[string][]byte{}
	data, err := p.cfg.FS.ReadFile(filepath.Join(p.cfg.StateDir, logName))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			a.err = fmt.Errorf("jobqueue: reading the admission log: %w", err)
		}
		return
	}
	records, damaged, torn := durable.ReadLog(data)
	for _, run := range damaged {
		p.quarantineLogBytes(run)
	}
	if torn != nil {
		// Never acknowledged, but a synced last frame that went bad on
		// disk reads the same; keep the bytes for inspection.
		p.counters.Add("tmp_files_swept", 1)
		p.keepLogBytes(torn, tornSuffix)
	}
	for _, rec := range records {
		var r struct {
			ID      string `json:"id"`
			Retired string `json:"retired"`
		}
		if json.Unmarshal(rec, &r) != nil || (r.ID == "") == (r.Retired == "") {
			p.quarantineLogBytes(rec)
			continue
		}
		a.top = max(a.top, idSequence(r.ID), idSequence(r.Retired))
		if r.Retired != "" {
			a.liveBytes -= len(a.live[r.Retired])
			delete(a.live, r.Retired)
		} else {
			a.liveBytes += len(rec) - len(a.live[r.ID])
			a.live[r.ID] = bytes.Clone(rec)
		}
	}
	p.advanceSeq(jobID(a.top))
}

// tornSuffix marks a kept torn tail's quarantine name.
const tornSuffix = ".torn"

// logBytesName is the quarantine name of log bytes b:
// admissions.log.<their CRC-32C><suffix>.
func logBytesName(b []byte, suffix string) string {
	return fmt.Sprintf("%s.%08x%s", logName, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)), suffix)
}

// quarantineLogBytes sets aside log bytes that hold no usable admission
// and counts them in jobs_quarantined.
func (p *Pool) quarantineLogBytes(b []byte) {
	p.counters.Add("jobs_quarantined", 1)
	p.keepLogBytes(b, "")
}

// keepLogBytes writes log bytes b under quarantine/, framed, named by
// logBytesName.
func (p *Pool) keepLogBytes(b []byte, suffix string) {
	name := logBytesName(b, suffix)
	if err := durable.WriteFile(p.cfg.FS, filepath.Join(p.cfg.StateDir, QuarantineDir, name), b); err != nil {
		p.counters.Add("quarantine_errors", 1)
	}
}

// closeLog records the last ID this boot issued, if the log does not
// hold it yet, and closes the log. Shutdown calls it once the workers
// are gone.
func (p *Pool) closeLog() {
	if p.cfg.StateDir == "" {
		return
	}
	p.mu.Lock()
	seq := p.seq
	p.mu.Unlock()
	a := &p.adm
	a.mu.Lock()
	defer a.mu.Unlock()
	if seq > a.top {
		a.top = seq
		_ = p.appendLocked(retireRecord(jobID(seq)))
	}
	_ = a.log.Close()
}

// persistSnapshot durably writes a job's checkpoint file. A no-op
// without a state dir.
func (p *Pool) persistSnapshot(job *Job, snap *checkpoint.Snapshot) error {
	if p.cfg.StateDir == "" {
		return nil
	}
	return durable.WriteFile(p.cfg.FS, p.ckptPath(job.ID), snap.EncodeBytes())
}

// persistPark files a preempted job's checkpoint and its spec marked
// Parked, then retires its admission. Ordering matters for crash safety:
// the checkpoint lands first, so a crash between the writes leaves a live
// admission + checkpoint — which Recover treats as an ordinary resumable
// job, never a half-parked one — and a crash before the retire record
// leaves the parked spec, which outranks the admission.
func (p *Pool) persistPark(job *Job, snap *checkpoint.Snapshot) error {
	if p.cfg.StateDir == "" {
		return nil
	}
	if err := p.persistSnapshot(job, snap); err != nil {
		return err
	}
	data, err := json.Marshal(specFile{ID: job.ID, Key: job.Key, Spec: job.Spec, Parked: true})
	if err != nil {
		return err
	}
	if err := durable.WriteFile(p.cfg.FS, p.specPath(job.ID), data); err != nil {
		return err
	}
	p.retire(job.ID)
	return nil
}

// removeJobFiles clears a job's persisted state: it retires the job's
// admission, or removes its spec file when the log does not hold it (a
// parked pair, or a job of the one-file-per-job store), and removes its
// checkpoint when one was written.
func (p *Pool) removeJobFiles(id string, ckpt bool) {
	if p.cfg.StateDir == "" {
		return
	}
	if !p.retire(id) {
		_ = p.cfg.FS.Remove(p.specPath(id))
	}
	if ckpt {
		_ = p.cfg.FS.Remove(p.ckptPath(id))
	}
}

// quarantine moves one damaged state file into StateDir/quarantine,
// preserving its name, and counts it (jobs_quarantined for a spec,
// checkpoints_quarantined for a checkpoint). Crash-only policy: damaged data is set aside
// for inspection — never deleted, never parsed, never allowed to block
// recovery of the healthy files around it.
func (p *Pool) quarantine(name, counter string) {
	p.counters.Add(counter, 1)
	fsys := p.cfg.FS
	qdir := filepath.Join(p.cfg.StateDir, QuarantineDir)
	if err := fsys.MkdirAll(qdir); err != nil {
		p.counters.Add("quarantine_errors", 1)
		return
	}
	if err := fsys.Rename(filepath.Join(p.cfg.StateDir, name), filepath.Join(qdir, name)); err != nil {
		p.counters.Add("quarantine_errors", 1)
		return
	}
	_ = fsys.SyncDir(qdir)
	_ = fsys.SyncDir(p.cfg.StateDir)
}

// Recover re-admits every job persisted in the state dir, resuming from
// drain checkpoints where present. Call it after New and before Start;
// recovered jobs keep their original IDs, and the ID sequence advances
// past every ID the log holds (retired ones included) and every ID seen
// on disk (quarantined ones included), so no ID is issued twice in one
// state dir. Jobs beyond the queue capacity stay on disk for the next
// restart.
//
// It replays the admission log, then reads the directory: parked pairs,
// plain spec files of the one-file-per-job store, checkpoints, torn .tmp
// files and orphans. A spec file outranks a live admission of the same
// ID (a park writes its spec before it retires the admission). Then it
// rewrites the log with only the live admissions and the ID high-water
// mark. (New has already replayed the log: a pool that never calls
// Recover keeps an earlier boot's records and issues IDs past them, but
// does not run them.)
//
// Recover is crash-only: damage never aborts the boot. A log record or
// spec file that fails CRC, JSON or schema validation is quarantined
// (with its checkpoint) and counted in jobs_quarantined; a damaged
// checkpoint alone is quarantined (checkpoints_quarantined) and the job
// restarts from its spec; torn .tmp files, a torn log tail and orphaned
// checkpoints are swept. The only errors returned are an unreadable state
// directory or admission log. It returns the number of jobs re-enqueued.
func (p *Pool) Recover() (int, error) {
	if p.cfg.StateDir == "" {
		return 0, nil
	}
	fsys := p.cfg.FS
	entries, err := fsys.ReadDir(p.cfg.StateDir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return 0, err
	}

	a := &p.adm
	if a.err != nil {
		return 0, a.err
	}
	a.mu.Lock()
	logged := maps.Clone(a.live)
	a.mu.Unlock()

	var ids []string
	specs := make(map[string]bool)
	ckpts := make(map[string]bool)
	for _, ent := range entries {
		name := ent.Name()
		switch {
		case ent.IsDir():
			// quarantine/ — not state.
		case strings.HasSuffix(name, durable.TmpSuffix):
			// A torn write: never renamed into place, holds no committed
			// data by protocol. Safe to sweep.
			_ = fsys.Remove(filepath.Join(p.cfg.StateDir, name))
			p.counters.Add("tmp_files_swept", 1)
		case strings.HasSuffix(name, ".spec.json"):
			id := strings.TrimSuffix(name, ".spec.json")
			ids = append(ids, id)
			specs[id] = true
			p.advanceSeq(id)
		case strings.HasSuffix(name, ".ckpt"):
			id := strings.TrimSuffix(name, ".ckpt")
			ckpts[id] = true
			p.advanceSeq(id)
		}
	}
	// Decode the live admissions as strictly as spec files; a record that
	// fails leaves the log. A spec file outranks an admission of its ID.
	fromLog := make(map[string]*specFile, len(logged))
	for id, rec := range logged {
		sf, err := decodeSpecFile(rec, id)
		if err == nil && !specs[id] {
			fromLog[id] = sf
			ids = append(ids, id)
			continue
		}
		if err != nil {
			p.quarantineLogBytes(rec)
		}
		a.mu.Lock()
		delete(a.live, id)
		a.liveBytes -= len(rec)
		a.mu.Unlock()
	}
	// Orphaned checkpoints (no spec to attach to) cannot be resumed;
	// set them aside rather than leaking them forever.
	for id := range ckpts {
		if !specs[id] && fromLog[id] == nil {
			p.quarantine(id+".ckpt", "checkpoints_quarantined")
			delete(ckpts, id)
		}
	}
	sort.Strings(ids) // admission order: IDs are zero-padded sequence numbers
	p.mu.Lock()
	seq := p.seq
	p.mu.Unlock()
	a.mu.Lock()
	a.top = max(a.top, seq)  // past the files' IDs too
	_ = p.rewriteLogLocked() // on failure the next append retries it
	a.mu.Unlock()

	recovered := 0
	for _, id := range ids {
		sf := fromLog[id]
		if sf == nil {
			var err error
			if sf, err = p.readSpecFile(id); err != nil {
				// Damaged spec: the job cannot be reconstructed. Quarantine
				// it (and its checkpoint — meaningless without the spec)
				// and keep booting.
				p.quarantine(id+".spec.json", "jobs_quarantined")
				if ckpts[id] {
					p.quarantine(id+".ckpt", "checkpoints_quarantined")
				}
				continue
			}
		}
		key := sf.Spec.Key()

		var snap *checkpoint.Snapshot
		if ckpts[id] {
			raw, cerr := durable.ReadFile(fsys, p.ckptPath(id))
			if cerr == nil {
				snap, cerr = checkpoint.DecodeBytes(raw)
			}
			if cerr != nil {
				// Damaged checkpoint, healthy spec: the resume is lost
				// but the job is not — restart it from scratch.
				p.quarantine(id+".ckpt", "checkpoints_quarantined")
				snap = nil
			}
		}

		if sf.Parked && snap == nil {
			// A parked spec whose checkpoint was lost has nothing left to
			// claim.
			p.quarantine(id+".spec.json", "jobs_quarantined")
			continue
		}

		p.mu.Lock()
		e := p.keys[key]
		switch {
		case e != nil && (sf.Parked || e.state != keyParked):
			// The key already has a state this file cannot add to: an
			// earlier file of the same spec is active or parked (or, when
			// Recover runs on a live pool, its result is cached).
			p.mu.Unlock()
			if !sf.Parked {
				p.counters.Add("jobs_recovered_dup", 1)
			}
			p.removeJobFiles(id, snap != nil)
		case sf.Parked:
			// A cancelled/deadline-killed run's parked checkpoint: the key
			// becomes parked (claimable), never active — a cancelled job
			// must not resurrect as runnable work.
			e = &entry{key: key}
			p.keys[key] = e
			evicted := p.parkLocked(e, parked{id: id, snap: snap})
			p.mu.Unlock()
			p.counters.Add("jobs_parked_recovered", 1)
			p.dropPark(evicted)
		case !p.accepting || p.queuedLocked() >= p.cfg.QueueDepth:
			p.mu.Unlock()
			return recovered, nil // remaining jobs stay for the next restart
		default:
			job, claimed := p.admitLocked(id, key, sf.Spec, time.Now())
			if snap != nil {
				job.resume = snap
			}
			p.counters.Add("jobs_recovered", 1)
			p.enqueueLocked(job)
			p.mu.Unlock()
			if claimed != nil {
				// A crash between a claim's admission and the removal of
				// the parked pair left both on disk; finish the removal.
				p.removeJobFiles(claimed.id, true)
			}
			recovered++
		}
	}
	return recovered, nil
}

// readSpecFile loads and validates one persisted spec file through the
// durable frame; any failure means the file is damaged and must be
// quarantined by the caller.
func (p *Pool) readSpecFile(id string) (*specFile, error) {
	payload, err := durable.ReadFile(p.cfg.FS, p.specPath(id))
	if err != nil {
		return nil, err
	}
	return decodeSpecFile(payload, id)
}

// decodeSpecFile validates one persisted spec, from a spec file or an
// admission record. It decodes as strictly as a submission does: a field
// this version does not know — a retired job kind's options, say —
// fails rather than being dropped, so the job can never re-run as a
// different one.
func decodeSpecFile(payload []byte, id string) (*specFile, error) {
	var sf specFile
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sf); err != nil {
		return nil, fmt.Errorf("jobqueue: corrupt spec of %s: %w", id, err)
	}
	if sf.Spec == nil {
		return nil, fmt.Errorf("jobqueue: spec record of %s has no spec", id)
	}
	if err := sf.Spec.Normalize(); err != nil {
		return nil, fmt.Errorf("jobqueue: recovering %s: %w", id, err)
	}
	return &sf, nil
}

// advanceSeq bumps the ID sequence past an on-disk job ID (held by the
// caller outside p.mu only during single-threaded Recover).
func (p *Pool) advanceSeq(id string) {
	p.mu.Lock()
	if seq := idSequence(id); seq > p.seq {
		p.seq = seq
	}
	p.mu.Unlock()
}

// jobID is the ID of the seq-th admission.
func jobID(seq int) string { return fmt.Sprintf("j-%06d", seq) }

// idSequence parses the numeric suffix of a job ID ("j-000017" -> 17).
func idSequence(id string) int {
	s, ok := strings.CutPrefix(id, "j-")
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0
	}
	return n
}
