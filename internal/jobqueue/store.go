package jobqueue

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"peas/internal/checkpoint"
	"peas/internal/durable"
)

// On-disk layout under Config.StateDir:
//
//	admissions.log — the job log, the one durable record of each job's
//	                 state. A CRC-framed record per admission (ID,
//	                 content key, normalized spec, and for a claim the
//	                 parked ID it consumes) is appended and fsynced
//	                 before the job becomes runnable; a parked record
//	                 (the same fields, marked parked) is appended and
//	                 fsynced once a park's checkpoint has landed, in
//	                 place of the admission; an unsynced retire record
//	                 takes out a job that leaves. Replayed, the log gives
//	                 each ID one state: live, parked or retired.
//	<id>.ckpt      — a checkpoint in the canonical snapshot codec: a
//	                 drain's or a stalled run's beside its admission, or
//	                 a parked run's. It is valid only while a live or
//	                 parked record names it: its own ID's, or, until the
//	                 claiming job's own checkpoint lands, a claim that
//	                 consumed it.
//	quarantine/    — damaged files and log bytes set aside instead of
//	                 parsing, and the bytes of torn log tails.
//
// <id>.spec.json is the format of earlier stores, one file per job (and,
// later, per park). Nothing writes it; Recover reads each one as a record
// logged after the log's, and removes it once a rewritten log holds it.
//
// Checkpoints are written through internal/durable's WriteFile: an
// atomic, fsync'd, CRC-framed protocol (write-tmp → fsync file → rename →
// fsync dir), so a SIGKILL or power loss at any syscall boundary leaves
// each path holding either its complete previous content or its complete
// new content. The log is only appended to, and rewritten whole through
// the same protocol. A crash can tear only its last frame, which was never
// acknowledged. Recover is crash-only: it replays the log and scans the
// directory on boot, re-enqueues every live job (resuming bit-exactly from
// the checkpoint its record names, restarting from the spec otherwise),
// makes every parked record claimable, quarantines any record or file
// that fails frame or schema validation, sweeps torn .tmp files, torn log
// tails and checkpoints no record names, and never aborts the boot for
// damage.

// QuarantineDir is the subdirectory of the state dir that damaged
// files are moved into for offline inspection.
const QuarantineDir = "quarantine"

// logName is the admission log's file name in the state dir.
const logName = "admissions.log"

// The log is compacted — rewritten with only its live records — when it
// has grown past compactFloor bytes and compactRatio times the bytes those
// records take.
const (
	compactFloor = 1 << 20
	compactRatio = 4
)

// jobRecord is a log record that puts a job ID in a state: an admission,
// or a park. A spec file of an earlier store holds the same JSON.
type jobRecord struct {
	ID   string `json:"id"`
	Key  string `json:"key"`
	Spec *Spec  `json:"spec"`
	// Parked marks a cancelled/deadline-killed run's leftover checkpoint:
	// Recover makes the key parked (claimable by a resubmission of the
	// same spec) instead of re-enqueueing the job — a cancelled job must
	// never resurrect as runnable work.
	Parked bool `json:"parked,omitempty"`
	// Claims is the parked ID a claim's admission consumes: replay takes
	// that ID's record out, and the job resumes from its checkpoint.
	Claims string `json:"claims,omitempty"`
}

// admissions is the pool's side of the job log: the file and the records
// of it that still hold a job, live or parked. Its mutex is the log lock:
// every append, and every rewrite, holds it.
type admissions struct {
	mu  sync.Mutex
	log *durable.Log
	// err is why New could not read the log. While it is set nothing is
	// appended, so the unread records are never rewritten away, and
	// Recover returns it.
	err error
	// live holds each live or parked job's record by job ID; liveBytes is
	// their total length.
	live      map[string][]byte
	liveBytes int
	// top is the highest job sequence the log holds, retired or not.
	top int
}

// setLocked makes rec id's record.
func (a *admissions) setLocked(id string, rec []byte) {
	a.liveBytes += len(rec) - len(a.live[id])
	a.live[id] = rec
}

// dropLocked takes id's record out and reports whether it held one.
func (a *admissions) dropLocked(id string) bool {
	rec, ok := a.live[id]
	delete(a.live, id)
	a.liveBytes -= len(rec)
	return ok
}

func (p *Pool) ckptPath(id string) string {
	return filepath.Join(p.cfg.StateDir, id+".ckpt")
}

// retireRecord is the log record that takes id out of the live records.
func retireRecord(id string) []byte { return []byte(`{"retired":"` + id + `"}`) }

// logRecord appends rec to the log as its ID's state and syncs it: once
// it returns nil, a crash finds the job in that state. A claim's parked
// record then leaves the live ones. A no-op without a state dir.
func (p *Pool) logRecord(rec jobRecord) error {
	if p.cfg.StateDir == "" {
		return nil
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	a := &p.adm
	a.mu.Lock()
	if err = p.appendLocked(data); err == nil {
		a.setLocked(rec.ID, data)
		a.top = max(a.top, idSequence(rec.ID))
	}
	a.mu.Unlock()
	if err == nil {
		err = a.log.Sync()
	}
	if err == nil && rec.Claims != "" {
		a.mu.Lock()
		a.dropLocked(rec.Claims)
		a.mu.Unlock()
	}
	return err
}

// retire takes id's record out with an unsynced retire record. A lost
// retire record costs a re-run after a crash, never a lost job.
func (p *Pool) retire(id string) {
	a := &p.adm
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.dropLocked(id) {
		_ = p.appendLocked(retireRecord(id))
	}
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

// rewriteLogLocked replaces the log with its live records, in ID order,
// after a retire record of the highest ID it held when that ID is not
// live: the next boot's IDs start past it.
func (p *Pool) rewriteLogLocked() error {
	a := &p.adm
	ids := make([]string, 0, len(a.live))
	for id := range a.live {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, compareIDs)
	payloads := make([][]byte, 0, len(ids)+1)
	if top := jobID(a.top); a.top > 0 && a.live[top] == nil {
		payloads = append(payloads, retireRecord(top))
	}
	for _, id := range ids {
		payloads = append(payloads, a.live[id])
	}
	return a.log.Rewrite(payloads)
}

// replay reads the log left by earlier boots into the live records and
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
			Claims  string `json:"claims"`
		}
		if json.Unmarshal(rec, &r) != nil || (r.ID == "") == (r.Retired == "") {
			p.quarantineLogBytes(rec)
			continue
		}
		a.top = max(a.top, idSequence(r.ID), idSequence(r.Retired))
		if r.Retired != "" {
			a.dropLocked(r.Retired)
		} else {
			a.dropLocked(r.Claims)
			a.setLocked(r.ID, bytes.Clone(rec))
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

// persistSnapshot durably writes a job's checkpoint file, which then
// takes the place of the one the job resumed from: a checkpoint filed
// under another ID is dropped. A no-op without a state dir.
func (p *Pool) persistSnapshot(job *Job, snap *checkpoint.Snapshot) error {
	if p.cfg.StateDir == "" {
		return nil
	}
	if err := durable.WriteFile(p.cfg.FS, p.ckptPath(job.ID), snap.EncodeBytes()); err != nil {
		return err
	}
	if job.ckpt != job.ID {
		p.removeJobFiles(job.ckpt, job.ckpt)
		job.ckpt = job.ID
	}
	return nil
}

// persistPark files a preempted job's checkpoint, then logs and syncs a
// parked record in place of its admission. The checkpoint lands first,
// so a crash between the two leaves a live admission with its checkpoint,
// which Recover resumes as an ordinary job, never a half-parked one.
func (p *Pool) persistPark(job *Job, snap *checkpoint.Snapshot) error {
	if err := p.persistSnapshot(job, snap); err != nil {
		return err
	}
	return p.logRecord(jobRecord{ID: job.ID, Key: job.Key, Spec: job.spec, Parked: true})
}

// removeJobFiles clears a job's persisted state: it retires the job's
// record and removes the checkpoint filed under ckpt ("" for none),
// retiring first the parked record of that ID if it is still live (a
// claim made by Recover leaves it so).
func (p *Pool) removeJobFiles(id, ckpt string) {
	if p.cfg.StateDir == "" {
		return
	}
	p.retire(id)
	if ckpt != "" {
		p.retire(ckpt)
		_ = p.cfg.FS.Remove(p.ckptPath(ckpt))
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
// checkpoints where present. Call it after New and before Start;
// recovered jobs keep their original IDs, and the ID sequence advances
// past every ID the log holds (retired ones included) and every ID seen
// on disk (quarantined ones included), so no ID is issued twice in one
// state dir. Every parked record becomes a claimable park, since a park
// takes no queue slot; live jobs beyond the queue capacity stay in the log
// for the next restart.
//
// New has replayed the log into one record per ID. Recover reads the
// directory — checkpoints, torn .tmp files, and the spec files of earlier
// stores, each read as a record logged after the log's — sets aside the
// checkpoints no record names, rewrites the log with its records and the
// ID high-water mark, and loads the records in ID order. (A pool that
// never calls Recover keeps an earlier boot's records and issues IDs past
// them, but does not run them.)
//
// Recover is crash-only: damage never aborts the boot. A log record or
// spec file that fails CRC, JSON or schema validation is quarantined and
// counted in jobs_quarantined; a damaged checkpoint is quarantined
// (checkpoints_quarantined), and its job restarts from its spec or, if
// parked, is dropped; torn .tmp files, a torn log tail and checkpoints no
// record names are swept. The only errors returned are an
// unreadable state directory or admission log. It returns the number of
// jobs re-enqueued.
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

	var specFiles []string
	ckpts := make(map[string]bool)
	for _, ent := range entries {
		name := ent.Name()
		id, _, _ := strings.Cut(name, ".")
		switch {
		case ent.IsDir(): // quarantine/ — not state.
			continue
		case strings.HasSuffix(name, durable.TmpSuffix):
			// A torn write: never renamed into place, holds no committed
			// data by protocol. Safe to sweep.
			_ = fsys.Remove(filepath.Join(p.cfg.StateDir, name))
			p.counters.Add("tmp_files_swept", 1)
			continue
		case strings.HasSuffix(name, ".spec.json"):
			specFiles = append(specFiles, id)
		case strings.HasSuffix(name, ".ckpt"):
			ckpts[id] = true
		}
		p.advanceSeq(id)
	}

	// Decode the records as strictly as a submission; one that fails
	// leaves the log. A spec file's record counts as logged after the
	// log's.
	a.mu.Lock()
	recs := make(map[string]*jobRecord, len(a.live)+len(specFiles))
	for _, id := range specFiles {
		rec, err := durable.ReadFile(fsys, filepath.Join(p.cfg.StateDir, id+".spec.json"))
		var r *jobRecord
		if err == nil {
			r, err = decodeRecord(rec, id)
		}
		if err != nil {
			p.quarantine(id+".spec.json", "jobs_quarantined")
			continue
		}
		recs[id] = r
		a.setLocked(id, rec)
	}
	ids := make([]string, 0, len(a.live))
	from := make(map[string]string)
	for id, rec := range a.live {
		if recs[id] == nil {
			r, err := decodeRecord(rec, id)
			if err != nil {
				p.quarantineLogBytes(rec)
				a.dropLocked(id)
				continue
			}
			recs[id] = r
		}
		ids = append(ids, id)
		// A record names its own checkpoint or, until that lands, the one
		// its claim consumed.
		c := id
		if !ckpts[c] {
			c = recs[id].Claims
		}
		if ckpts[c] {
			from[id] = c
		}
	}
	// A checkpoint no record names cannot be resumed: set it aside rather
	// than leaking it forever.
	for _, c := range from {
		delete(ckpts, c)
	}
	for id := range ckpts {
		p.quarantine(id+".ckpt", "checkpoints_quarantined")
	}
	p.mu.Lock()
	a.top = max(a.top, p.seq) // past the files' IDs too
	p.mu.Unlock()
	if p.rewriteLogLocked() == nil { // on failure the next append retries it
		for _, id := range specFiles {
			_ = fsys.Remove(filepath.Join(p.cfg.StateDir, id+".spec.json"))
		}
	}
	a.mu.Unlock()

	slices.SortFunc(ids, compareIDs) // admission order
	recovered := 0
	for _, id := range ids {
		r, c := recs[id], from[id]
		if c != "" && p.loadCheckpoint(c) == nil {
			// Damaged checkpoint, healthy spec: the resume is lost but the
			// job is not — restart it from scratch.
			c = ""
		}
		key := r.Spec.Key()

		p.mu.Lock()
		e := p.keys[key]
		switch {
		case e != nil && (r.Parked || e.state != keyParked), r.Parked && c == "":
			// The key already has a state this record cannot add to: an
			// earlier record of the same spec is active or parked (or, when
			// Recover runs on a live pool, its result is cached). Or a park
			// has lost its checkpoint, and has nothing left to claim.
			p.mu.Unlock()
			if !r.Parked {
				p.counters.Add("jobs_recovered_dup", 1)
			}
			p.removeJobFiles(id, c)
		case r.Parked:
			// The key becomes parked (claimable), never active — a
			// cancelled job must not resurrect as runnable work.
			e = &entry{key: key}
			p.keys[key] = e
			evicted := p.parkLocked(e, id)
			p.mu.Unlock()
			p.counters.Add("jobs_parked_recovered", 1)
			p.dropPark(evicted)
		case !p.accepting || p.queuedLocked() >= p.cfg.QueueDepth:
			p.mu.Unlock() // it stays in the log for the next restart
		default:
			job, claimed := p.admitLocked(id, key, r.Spec, time.Now())
			job.ckpt = cmp.Or(c, claimed)
			p.counters.Add("jobs_recovered", 1)
			p.enqueueLocked(job)
			p.mu.Unlock()
			recovered++
		}
	}
	return recovered, nil
}

// loadCheckpoint reads and decodes the checkpoint filed under id. One
// that cannot be read or decoded is quarantined (checkpoints_quarantined)
// and nil returned: the job that holds it starts from its spec.
func (p *Pool) loadCheckpoint(id string) *checkpoint.Snapshot {
	raw, err := durable.ReadFile(p.cfg.FS, p.ckptPath(id))
	var snap *checkpoint.Snapshot
	if err == nil {
		snap, err = checkpoint.DecodeBytes(raw)
	}
	if err != nil {
		p.quarantine(id+".ckpt", "checkpoints_quarantined")
		return nil
	}
	return snap
}

// decodeRecord validates one job record, from the log or a spec file. It
// decodes as strictly as a submission does: a field this version does not
// know — a retired job kind's options, say — fails rather than being
// dropped, so the job can never re-run as a different one.
func decodeRecord(payload []byte, id string) (*jobRecord, error) {
	var r jobRecord
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("jobqueue: corrupt record of %s: %w", id, err)
	}
	if r.Spec == nil {
		return nil, fmt.Errorf("jobqueue: record of %s has no spec", id)
	}
	if err := r.Spec.Normalize(); err != nil {
		return nil, fmt.Errorf("jobqueue: recovering %s: %w", id, err)
	}
	return &r, nil
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

// compareIDs orders job IDs by sequence number: a longer ID is a later
// one (jobID pads to six digits, and no further), and IDs of one length
// compare as strings.
func compareIDs(a, b string) int {
	return cmp.Or(cmp.Compare(len(a), len(b)), strings.Compare(a, b))
}

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
