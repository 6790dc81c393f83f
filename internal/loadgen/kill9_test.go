package loadgen

import (
	"context"
	"fmt"
	"io"
	"syscall"
	"testing"
	"time"

	"peas/internal/client"
	"peas/internal/jobqueue"
	"peas/internal/server/api"
	"peas/internal/stats"
)

// Kill9Config configures a SIGKILL crash soak: repeated cycles of the
// same seeded plan against a managed peas-serve that is SIGKILLed —
// not drained — at seeded points mid-run, including inside durable
// write windows. Every restart must account for every admitted job:
// recovered or quarantined, never lost, never duplicated into a
// corrupt cache entry.
type Kill9Config struct {
	// Server is the managed peas-serve instance template. DurableDelay
	// defaults to 2ms so SIGKILLs have a real window to land between
	// the syscalls of a durable write.
	Server ServerProc
	// Cycles is the number of boot/kill cycles (minimum 2, default 4).
	// Every cycle but the last ends in a SIGKILL; the final cycle runs
	// undisturbed, stops gracefully and is gated on the SLO.
	Cycles int
	// Load is the per-cycle load configuration. Mix.LongJobs is forced
	// to at least 2.
	Load Config
	// KillSeed drives every kill-timing choice; same seed, same
	// choreography.
	KillSeed int64
	// KillMin/KillMax bound the early-kill delay drawn per cycle
	// (defaults 25ms..800ms after the cycle's submissions start).
	KillMin, KillMax time.Duration
	// CycleTimeout bounds one cycle (0 = 5 min).
	CycleTimeout time.Duration
	// Log receives harness progress lines (nil = discard).
	Log io.Writer
}

func (kc Kill9Config) withDefaults() Kill9Config {
	if kc.Cycles < 2 {
		kc.Cycles = 4
	}
	if kc.CycleTimeout <= 0 {
		kc.CycleTimeout = 5 * time.Minute
	}
	if kc.KillMin <= 0 {
		kc.KillMin = 25 * time.Millisecond
	}
	if kc.KillMax <= kc.KillMin {
		kc.KillMax = kc.KillMin + 775*time.Millisecond
	}
	if kc.Load.Mix.LongJobs < 2 {
		kc.Load.Mix.LongJobs = 2
	}
	if kc.Server.DurableDelay <= 0 {
		kc.Server.DurableDelay = 2 * time.Millisecond
	}
	return kc
}

// Kill9Cycle summarizes one boot/kill cycle.
type Kill9Cycle struct {
	Cycle int `json:"cycle"`
	// Mode is "early-kill" (SIGKILL at a seeded delay after submissions
	// start), "drain-kill" (SIGTERM, then SIGKILL the moment checkpoint
	// files start appearing — mid durable write when the jitter lands
	// inside one), or "final" (undisturbed, graceful stop).
	Mode string `json:"mode"`
	// KillDelay is the seeded early-kill delay (early-kill mode only).
	KillDelay time.Duration `json:"killDelayNanos,omitempty"`
	// BootRecovered/BootQuarantined are the server's own /healthz
	// counters right after boot.
	BootRecovered   uint64 `json:"bootRecovered"`
	BootQuarantined uint64 `json:"bootQuarantined"`
	// AccountingOK verifies recovered + quarantined == the spec files
	// present when the previous cycle was killed: every admitted job is
	// accounted for across the crash.
	AccountingOK     bool   `json:"accountingOk"`
	AccountingDetail string `json:"accountingDetail,omitempty"`
	// Recovered-job resolution at this boot.
	Recovered     int `json:"recovered"`
	ResumedDone   int `json:"resumedDone"`
	RestartedDone int `json:"restartedDone"`
	// State-dir census at the moment of this cycle's kill.
	SpecsAtKill int `json:"specsAtKill"`
	CkptsAtKill int `json:"ckptsAtKill"`
	TmpAtKill   int `json:"tmpAtKill"`
	// The cycle's own submission outcomes.
	Submitted   int `json:"submitted"`
	Done        int `json:"done"`
	Suspended   int `json:"suspended"`
	Interrupted int `json:"interrupted"`
}

// Kill9Report is the machine-readable crash-soak outcome.
type Kill9Report struct {
	Cycles          []Kill9Cycle `json:"cycles"`
	KeyMultisetHash string       `json:"keyMultisetHash"`
	ReferenceKeys   int          `json:"referenceKeys"`
	// Kills counts SIGKILLs delivered; SpecsKilled sums the spec files
	// on disk across those kills (the jobs recovery had to account
	// for); CkptsKilled sums the complete checkpoint files killed with
	// them (each must resume at the next boot).
	Kills       int `json:"kills"`
	SpecsKilled int `json:"specsKilled"`
	CkptsKilled int `json:"ckptsKilled"`
	// TotalQuarantined sums the per-boot quarantine counters. On a real
	// filesystem SIGKILL cannot tear an fsync'd rename, so this is
	// normally 0 — the accounting assertion is what carries the weight.
	TotalQuarantined uint64 `json:"totalQuarantined"`
	TotalResumed     int    `json:"totalResumed"`
	TotalRestarted   int    `json:"totalRestarted"`
	HashMismatches   int    `json:"hashMismatches"`
	UnresolvedKeys   int    `json:"unresolvedKeys"`
	AccountingErrors int    `json:"accountingErrors"`
	// LeftoverStateFiles counts persisted job files after the final
	// graceful stop (the quarantine dir is not counted: quarantined
	// files are kept for inspection by design).
	LeftoverStateFiles int `json:"leftoverStateFiles"`

	FinalReport *Report     `json:"finalReport"`
	Assertions  []Assertion `json:"assertions"`
	Pass        bool        `json:"pass"`
}

// SoakKill9 runs the crash soak. Cycle choreography alternates between
// early kills (a seeded delay into the submission storm, landing mid
// persistSpec when the dice say so) and drain kills (SIGTERM first so
// checkpoint writes start, then SIGKILL racing the durable-write
// protocol). Each next boot must account for every spec file that was
// on disk at kill time — recovered or quarantined — and every resumed
// job must reproduce the reference StateHash computed in-process
// before any server ran.
func SoakKill9(ctx context.Context, kc Kill9Config) (*Kill9Report, error) {
	kc = kc.withDefaults()
	items, err := Plan(kc.Load.Mix)
	if err != nil {
		return nil, err
	}
	// Recovered jobs re-enter the queue at boot alongside the fresh
	// plan; size the queue so accounting never competes with 429s.
	if kc.Server.Queue < len(items)+8 {
		kc.Server.Queue = len(items) + 8
	}

	ledger := newHashLedger()
	rep := &Kill9Report{KeyMultisetHash: KeyMultisetHash(items)}

	if rep.ReferenceKeys, err = referenceHashes(items, ledger); err != nil {
		return nil, err
	}
	logf(kc.Log, "kill9: plan %d items (%d distinct), %d reference hashes, seed %d",
		len(items), distinctKeys(items), rep.ReferenceKeys, kc.KillSeed)

	rng := stats.NewRNG(kc.KillSeed)
	proc := kc.Server
	prevSpecs := -1 // spec-file census at the previous cycle's kill; -1 = no prior kill
	for cycle := 0; cycle < kc.Cycles; cycle++ {
		cctx, cancel := context.WithTimeout(ctx, kc.CycleTimeout)
		res, finalRep, err := runKill9Cycle(cctx, &proc, kc, items, ledger, rng, cycle, prevSpecs)
		cancel()
		if err != nil {
			if proc.cmd != nil {
				_ = proc.cmd.Process.Kill()
				_ = proc.cmd.Wait()
			}
			return nil, fmt.Errorf("loadgen: kill9 cycle %d: %w", cycle, err)
		}
		rep.Cycles = append(rep.Cycles, res)
		rep.TotalResumed += res.ResumedDone
		rep.TotalRestarted += res.RestartedDone
		rep.TotalQuarantined += res.BootQuarantined
		if !res.AccountingOK {
			rep.AccountingErrors++
		}
		if res.Mode != "final" {
			rep.Kills++
			rep.SpecsKilled += res.SpecsAtKill
			rep.CkptsKilled += res.CkptsAtKill
			prevSpecs = res.SpecsAtKill
		}
		if finalRep != nil {
			rep.FinalReport = finalRep
		}
		logf(kc.Log, "kill9: cycle %d (%s): submitted=%d done=%d specsAtKill=%d ckptsAtKill=%d tmpAtKill=%d bootRecovered=%d bootQuarantined=%d resumed=%d restarted=%d",
			cycle, res.Mode, res.Submitted, res.Done, res.SpecsAtKill, res.CkptsAtKill, res.TmpAtKill,
			res.BootRecovered, res.BootQuarantined, res.ResumedDone, res.RestartedDone)
	}

	specs, ckpts, tmps := censusStateDir(kc.Server.StateDir)
	rep.LeftoverStateFiles = specs + ckpts + tmps

	_, rep.HashMismatches, _ = ledger.stats()
	rep.UnresolvedKeys = unresolvedKeys(items, ledger)

	rep.evaluate()
	return rep, nil
}

// TestSoakKill9 runs the SIGKILL crash soak against a real peas-serve with
// fixed plan and kill seeds: an early kill, a drain kill, a second early
// kill, then an undisturbed cycle gated on the SLO.
func TestSoakKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs peas-serve")
	}
	rep, err := SoakKill9(context.Background(), Kill9Config{
		Server: ServerProc{Bin: peasServe(t), StateDir: t.TempDir(), Log: testLog{t}},
		Cycles: 4,
		Load: Config{Mix: Mix{Seed: 7, Jobs: 40, DuplicateRatio: 0.3, FollowFraction: 0.4,
			ChaosFraction: 0.15, LongJobs: 2}},
		KillSeed: 11,
		Log:      testLog{t},
	})
	if err != nil {
		t.Fatal(err)
	}
	requirePass(t, rep, rep.Assertions)
}

// evaluate fills the kill9 assertions and the pass verdict.
func (r *Kill9Report) evaluate() {
	add := func(name string, ok bool, format string, args ...any) {
		r.Assertions = append(r.Assertions, Assertion{Name: name, Ok: ok, Detail: fmt.Sprintf(format, args...)})
	}
	add("kill9-cycles-exercised", r.Kills >= 1 && r.SpecsKilled >= 1,
		"kills=%d specs on disk across kills=%d (a kill with zero persisted jobs proves nothing)",
		r.Kills, r.SpecsKilled)
	add("recovered-accounting", r.AccountingErrors == 0,
		"boots where recovered+quarantined != specs at kill: %d of %d cycles",
		r.AccountingErrors, len(r.Cycles))
	add("zero-lost-jobs", r.UnresolvedKeys == 0,
		"plan keys with no terminal StateHash: %d", r.UnresolvedKeys)
	add("hash-consistency", r.HashMismatches == 0,
		"mismatches=%d (resumed=%d restarted=%d, reference keys=%d)",
		r.HashMismatches, r.TotalResumed, r.TotalRestarted, r.ReferenceKeys)
	// A file named *.ckpt (not *.tmp) passed the whole durable-write
	// protocol before the kill, so every one present at a kill must
	// resume bit-exactly at a later boot — none may quarantine.
	add("checkpoint-resume-exercised", r.CkptsKilled == 0 || r.TotalResumed >= 1,
		"complete checkpoints killed=%d, resumed completions=%d", r.CkptsKilled, r.TotalResumed)
	add("state-dir-drained", r.LeftoverStateFiles == 0,
		"persisted job files after the final graceful stop: %d", r.LeftoverStateFiles)
	add("final-slo", r.FinalReport != nil && r.FinalReport.Pass,
		"final cycle report pass=%v", r.FinalReport != nil && r.FinalReport.Pass)

	r.Pass = true
	for _, a := range r.Assertions {
		if !a.Ok {
			r.Pass = false
		}
	}
}

// runKill9Cycle boots the server, checks crash accounting against the
// previous kill's census, resolves recovered jobs, runs the plan, and
// — on non-final cycles — SIGKILLs the server per the cycle's mode.
func runKill9Cycle(ctx context.Context, proc *ServerProc, kc Kill9Config, items []Item, ledger *hashLedger, rng *stats.RNG, cycle, prevSpecs int) (Kill9Cycle, *Report, error) {
	res := Kill9Cycle{Cycle: cycle}
	final := cycle == kc.Cycles-1
	switch {
	case final:
		res.Mode = "final"
	case cycle%2 == 0:
		res.Mode = "early-kill"
	default:
		res.Mode = "drain-kill"
	}
	// Draw the cycle's dice up front so the choreography is a pure
	// function of the seed regardless of which branches run.
	earlyDelay := kc.KillMin + time.Duration(rng.Uniform(0, float64(kc.KillMax-kc.KillMin)))
	drainJitter := time.Duration(rng.Uniform(0, float64(20*time.Millisecond)))
	res.KillDelay = earlyDelay

	if err := proc.Start(ctx); err != nil {
		return res, nil, err
	}
	c := client.New(proc.URL())

	health, err := c.Health(ctx)
	if err != nil {
		return res, nil, fmt.Errorf("health after boot: %w", err)
	}
	res.BootRecovered = health.JobsRecovered
	res.BootQuarantined = health.JobsQuarantined
	res.AccountingOK = true
	if prevSpecs >= 0 {
		accounted := res.BootRecovered + res.BootQuarantined
		res.AccountingOK = accounted == uint64(prevSpecs)
		res.AccountingDetail = fmt.Sprintf("recovered(%d) + quarantined(%d) = %d vs %d spec files at kill",
			res.BootRecovered, res.BootQuarantined, accounted, prevSpecs)
	}

	// The drain-kill mode attacks the jobs this boot just recovered:
	// they are the only work guaranteed to be running fresh (the kill
	// erased the result cache, but a prior cycle's early kill left
	// their specs on disk), so the SIGTERM catches them mid-run and
	// the SIGKILL races their checkpoint writes. It submits nothing.
	if res.Mode == "drain-kill" {
		awaitAnyJobRunning(ctx, c, 30*time.Second)
		if err := proc.Signal(syscall.SIGTERM); err != nil {
			return res, nil, err
		}
		// Kill the moment the first complete checkpoint lands: that
		// ckpt survived the full durable protocol (it must resume at a
		// later boot), while sibling writes still in their *.tmp phase
		// are torn by the kill.
		awaitCheckpointFiles(ctx, proc.StateDir, 20*time.Second)
		time.Sleep(drainJitter)
		if err := proc.Kill(); err != nil {
			return res, nil, err
		}
		res.SpecsAtKill, res.CkptsAtKill, res.TmpAtKill = censusStateDir(proc.StateDir)
		return res, nil, nil
	}

	rs, err := resolveRecovered(ctx, c, ledger, make(map[string]struct{}))
	if err != nil {
		return res, nil, err
	}
	res.Recovered, res.ResumedDone, res.RestartedDone = rs.Recovered, rs.ResumedDone, rs.RestartedDone

	// The kill erases the in-memory cache, so "already cached" keys
	// cannot be predicted across cycles; duplicate-rate is only gated
	// on the final (undisturbed) report, via precached from this boot's
	// recovered completions — none on a fresh dir, all re-executed ones
	// after a kill.
	precached := make(map[string]struct{})
	if final {
		for _, info := range mustJobs(ctx, c) {
			if info.Result != nil {
				precached[info.Key] = struct{}{}
			}
		}
	}

	runCfg := kc.Load
	runCfg.SLO.AllowSuspended = !final
	r := newRunner(c, runCfg, ledger)

	runDone := make(chan struct{})
	t0 := time.Now()
	go func() {
		defer close(runDone)
		r.runPlan(ctx, items)
	}()

	if !final {
		// early-kill: SIGKILL a seeded delay into the submission storm
		// — when the delay lands inside a persistSpec window (widened
		// by -durable-delay), the kill tears a durable write in
		// progress.
		select {
		case <-time.After(earlyDelay):
		case <-runDone:
		case <-ctx.Done():
		}
		r.halt.Store(true)
		if err := proc.Kill(); err != nil {
			return res, nil, err
		}
		res.SpecsAtKill, res.CkptsAtKill, res.TmpAtKill = censusStateDir(proc.StateDir)
	}
	<-runDone
	wall := time.Since(t0)

	cycleRep := r.report(items, wall, precached)
	res.Submitted = cycleRep.Submitted
	res.Done = cycleRep.Done
	res.Suspended = cycleRep.Suspended
	res.Interrupted = cycleRep.Interrupted

	if !final {
		return res, nil, nil
	}
	if err := proc.Stop(30 * time.Second); err != nil {
		return res, nil, err
	}
	cycleRep.evaluate(runCfg.SLO)
	return res, cycleRep, nil
}

// mustJobs lists the server's jobs, tolerating errors (used only to
// seed the duplicate-rate expectation; an error just means none).
func mustJobs(ctx context.Context, c *client.Client) []api.JobInfo {
	infos, err := c.Jobs(ctx)
	if err != nil {
		return nil
	}
	return infos
}

// awaitAnyJobRunning polls the job list until at least one job is in
// the running state (a recovered job picked up by a worker), every job
// already reached a terminal state (nothing left to drain — the cycle
// degenerates to a plain kill), or the timeout passes.
func awaitAnyJobRunning(ctx context.Context, c *client.Client, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		infos, err := c.Jobs(ctx)
		if err != nil {
			return
		}
		live := 0
		for _, info := range infos {
			switch info.State {
			case jobqueue.StateRunning:
				return
			case jobqueue.StateQueued:
				live++
			}
		}
		if live == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// awaitCheckpointFiles polls the state dir until a complete checkpoint
// file appears (one whose durable write finished — it must resume at a
// later boot), no spec files remain (the drain completed everything
// without suspending), or the timeout passes.
func awaitCheckpointFiles(ctx context.Context, dir string, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if specs, ckpts, _ := censusStateDir(dir); ckpts > 0 || specs == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}
