package jobqueue

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"peas/internal/checkpoint"
	"peas/internal/durable"
)

// On-disk layout under Config.StateDir:
//
//	<id>.spec.json — the admitted job (ID, content key, normalized spec),
//	                 written at admission, removed at completion.
//	<id>.ckpt      — the drain checkpoint in the canonical snapshot
//	                 codec, written when a shutdown deadline suspends
//	                 the run.
//	quarantine/    — damaged files Recover set aside instead of parsing.
//
// Every file is written through internal/durable: an atomic, fsync'd,
// CRC-framed protocol (write-tmp → fsync file → rename → fsync dir), so
// a SIGKILL or power loss at any syscall boundary leaves each path
// holding either its complete previous content or its complete new
// content. Recover is crash-only: it scans the directory on boot,
// re-enqueues every persisted job (resuming bit-exactly from a .ckpt
// when present, restarting from the spec otherwise), quarantines any
// file that fails frame or schema validation, sweeps torn .tmp files
// and orphaned checkpoints, and never aborts the boot for damage.

// QuarantineDir is the subdirectory of the state dir that damaged
// files are moved into for offline inspection.
const QuarantineDir = "quarantine"

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

func (p *Pool) specPath(id string) string {
	return filepath.Join(p.cfg.StateDir, id+".spec.json")
}

func (p *Pool) ckptPath(id string) string {
	return filepath.Join(p.cfg.StateDir, id+".ckpt")
}

// writeSpec durably records a job's spec file: plain at admission (for
// crash recovery), Parked when a preempted run's checkpoint is filed
// for a later claim. A no-op without a state dir.
func (p *Pool) writeSpec(job *Job, parked bool) error {
	if p.cfg.StateDir == "" {
		return nil
	}
	data, err := json.Marshal(specFile{ID: job.ID, Key: job.Key, Spec: job.Spec, Parked: parked})
	if err != nil {
		return err
	}
	return durable.WriteFile(p.cfg.FS, p.specPath(job.ID), data)
}

// persistSnapshot durably writes a checkpoint next to the job's spec. A
// no-op without a state dir.
func (p *Pool) persistSnapshot(job *Job, snap *checkpoint.Snapshot) error {
	if p.cfg.StateDir == "" {
		return nil
	}
	return durable.WriteFile(p.cfg.FS, p.ckptPath(job.ID), snap.EncodeBytes())
}

// persistPark rewrites a preempted job's spec with the Parked marker and
// writes its checkpoint beside it. Ordering matters for crash safety:
// the checkpoint lands first, so a crash between the writes leaves a
// plain spec + checkpoint pair — which Recover treats as an ordinary
// resumable job, never a half-parked one.
func (p *Pool) persistPark(job *Job, snap *checkpoint.Snapshot) error {
	if err := p.persistSnapshot(job, snap); err != nil {
		return err
	}
	return p.writeSpec(job, true)
}

// removeJobFiles clears a completed job's persisted state.
func (p *Pool) removeJobFiles(id string) {
	if p.cfg.StateDir == "" {
		return
	}
	_ = p.cfg.FS.Remove(p.specPath(id))
	_ = p.cfg.FS.Remove(p.ckptPath(id))
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
// drain checkpoints where present. Call it after New and before (or
// after) Start; recovered jobs keep their original IDs, and the ID
// sequence advances past every ID seen on disk (including quarantined
// ones) so new submissions cannot collide. Jobs beyond the queue
// capacity stay on disk for the next restart.
//
// Recover is crash-only: damage never aborts the boot. A spec file that
// fails CRC, JSON or schema validation is quarantined (with its
// checkpoint) and counted in jobs_quarantined; a damaged checkpoint
// alone is quarantined (checkpoints_quarantined) and the job restarts
// from its spec; torn .tmp files and orphaned checkpoints are swept.
// The only error returned is an unreadable state directory itself. It
// returns the number of jobs re-enqueued.
func (p *Pool) Recover() (int, error) {
	if p.cfg.StateDir == "" {
		return 0, nil
	}
	fsys := p.cfg.FS
	entries, err := fsys.ReadDir(p.cfg.StateDir)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}

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
	// Orphaned checkpoints (no spec to attach to) cannot be resumed;
	// set them aside rather than leaking them forever.
	for id := range ckpts {
		if !specs[id] {
			p.quarantine(id+".ckpt", "checkpoints_quarantined")
			delete(ckpts, id)
		}
	}
	sort.Strings(ids) // admission order: IDs are zero-padded sequence numbers

	recovered := 0
	for _, id := range ids {
		sf, err := p.readSpecFile(id)
		if err != nil {
			// Damaged spec: the job cannot be reconstructed. Quarantine
			// it (and its checkpoint — meaningless without the spec) and
			// keep booting.
			p.quarantine(id+".spec.json", "jobs_quarantined")
			if ckpts[id] {
				p.quarantine(id+".ckpt", "checkpoints_quarantined")
			}
			continue
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
			p.removeJobFiles(id)
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
		case !p.accepting || p.queued >= p.cfg.QueueDepth:
			p.mu.Unlock()
			return recovered, nil // remaining files stay for the next restart
		default:
			job, claimed := p.admitLocked(id, key, sf.Spec, time.Now())
			if snap != nil {
				job.resume = snap
			}
			p.mu.Unlock()
			if claimed != nil {
				// A crash between a claim's new spec and the removal of
				// the parked pair left both on disk; finish the removal.
				p.removeJobFiles(claimed.id)
			}
			p.counters.Add("jobs_recovered", 1)
			p.queue <- job
			recovered++
		}
	}
	return recovered, nil
}

// readSpecFile loads and validates one persisted spec through the
// durable frame; any failure means the file is damaged and must be
// quarantined by the caller. It decodes as strictly as a submission
// does: a field this version does not know — a retired job kind's
// options, say — quarantines the file rather than being dropped, so it
// can never re-run as a different job.
func (p *Pool) readSpecFile(id string) (*specFile, error) {
	payload, err := durable.ReadFile(p.cfg.FS, p.specPath(id))
	if err != nil {
		return nil, err
	}
	var sf specFile
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sf); err != nil {
		return nil, fmt.Errorf("jobqueue: corrupt spec file %s: %w", p.specPath(id), err)
	}
	if sf.Spec == nil {
		return nil, fmt.Errorf("jobqueue: spec file %s has no spec", p.specPath(id))
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
