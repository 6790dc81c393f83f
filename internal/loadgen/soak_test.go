package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"peas/internal/client"
	"peas/internal/durable"
	"peas/internal/experiment"
	"peas/internal/jobqueue"
)

// ServerProc manages one peas-serve child process. Every Start listens on
// a fresh kernel-assigned loopback port.
type ServerProc struct {
	// Bin is the path to the peas-serve binary.
	Bin string
	// StateDir enables drain persistence (empty = none); the soaks
	// require it.
	StateDir string
	// Workers and Queue configure the pool (0 = 2 and 64).
	Workers int
	Queue   int
	// DrainBudget is the server's -drain flag (0 = 150ms). The soak
	// keeps it short on purpose: a mid-cycle SIGTERM must outpace the
	// long jobs so they checkpoint-suspend instead of finishing.
	DrainBudget time.Duration
	// CheckpointEvery is the drain-checkpoint cadence in simulated
	// seconds (0 = 50: long jobs reach a suspend boundary within
	// milliseconds of wall time).
	CheckpointEvery float64
	// DurableDelay, when positive, is passed as the server's
	// -durable-delay flag: every state-store disk operation sleeps this
	// long, widening the window a SIGKILL can land inside a durable
	// write (the kill9 soak's whole point).
	DurableDelay time.Duration
	// Log receives the child's stdout/stderr (nil = discard).
	Log io.Writer

	addr string
	cmd  *exec.Cmd
}

func (s *ServerProc) withDefaults() {
	if s.Workers <= 0 {
		s.Workers = 2
	}
	if s.Queue <= 0 {
		s.Queue = 64
	}
	if s.DrainBudget <= 0 {
		s.DrainBudget = 150 * time.Millisecond
	}
	if s.CheckpointEvery <= 0 {
		s.CheckpointEvery = 50
	}
}

// URL returns the service base URL.
func (s *ServerProc) URL() string { return "http://" + s.addr }

// Start launches the child and waits for /healthz to answer.
func (s *ServerProc) Start(ctx context.Context) error {
	s.withDefaults()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("loadgen: picking a loopback port: %w", err)
	}
	s.addr = ln.Addr().String()
	ln.Close()
	args := []string{
		"-addr", s.addr,
		"-workers", strconv.Itoa(s.Workers),
		"-queue", strconv.Itoa(s.Queue),
		"-state-dir", s.StateDir,
		"-drain", s.DrainBudget.String(),
		"-checkpoint-every", strconv.FormatFloat(s.CheckpointEvery, 'g', -1, 64),
	}
	if s.DurableDelay > 0 {
		args = append(args, "-durable-delay", s.DurableDelay.String())
	}
	cmd := exec.Command(s.Bin, args...)
	cmd.Stdout = s.Log
	cmd.Stderr = s.Log
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("loadgen: starting %s: %w", s.Bin, err)
	}
	s.cmd = cmd

	c := client.New(s.URL())
	deadline := time.Now().Add(15 * time.Second)
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		_, err := c.Health(hctx)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			return fmt.Errorf("loadgen: server at %s not healthy in time: %w", s.addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// Stop SIGTERMs the child and waits for it to exit (the server drains:
// running jobs get DrainBudget, then checkpoint-suspend). A non-zero
// exit or a wait beyond the timeout is an error.
func (s *ServerProc) Stop(timeout time.Duration) error {
	if s.cmd == nil || s.cmd.Process == nil {
		return fmt.Errorf("loadgen: server not running")
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("loadgen: SIGTERM: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		s.cmd = nil
		if err != nil {
			return fmt.Errorf("loadgen: server exited non-zero after SIGTERM: %w", err)
		}
		return nil
	case <-time.After(timeout):
		_ = s.cmd.Process.Kill()
		<-done
		s.cmd = nil
		return fmt.Errorf("loadgen: server did not drain within %s; killed", timeout)
	}
}

// Signal sends sig to the running child without waiting for it.
func (s *ServerProc) Signal(sig os.Signal) error {
	if s.cmd == nil || s.cmd.Process == nil {
		return fmt.Errorf("loadgen: server not running")
	}
	return s.cmd.Process.Signal(sig)
}

// Kill SIGKILLs the child — no drain, no checkpoint, the crash the
// kill9 soak exists to inflict — and reaps it. The child's non-zero
// exit is the expected outcome, not an error; a child that already
// exited (e.g. a SIGTERM drain finishing before the kill landed) is
// reaped the same way.
func (s *ServerProc) Kill() error {
	if s.cmd == nil || s.cmd.Process == nil {
		return fmt.Errorf("loadgen: server not running")
	}
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
	s.cmd = nil
	return nil
}

// SoakConfig configures a drain/restart soak.
type SoakConfig struct {
	// Server is the managed peas-serve instance template.
	Server ServerProc
	// Cycles is the number of submit cycles (minimum 2). Every cycle
	// but the last ends in a mid-run SIGTERM while the plan's
	// long-horizon jobs are running; the final cycle runs to completion
	// and is evaluated against the SLO.
	Cycles int
	// Load is the per-cycle load configuration. Mix.LongJobs is forced
	// to at least 2 — they are the guaranteed drain victims.
	Load Config
	// CycleTimeout bounds one cycle (0 = 5 min).
	CycleTimeout time.Duration
	// Log receives harness progress lines (nil = discard).
	Log io.Writer
}

// CycleResult summarizes one soak cycle.
type CycleResult struct {
	Cycle int `json:"cycle"`
	// Recovered is the number of persisted jobs the fresh server
	// re-admitted at boot; ResumedDone of them completed with a drain
	// checkpoint (bit-exact resume), RestartedDone from their spec.
	Recovered     int `json:"recovered"`
	ResumedDone   int `json:"resumedDone"`
	RestartedDone int `json:"restartedDone"`
	// Drained reports that the mid-cycle SIGTERM fired while all long
	// jobs were observed running (the intended drain victim state).
	Drained bool `json:"drained"`
	// Submitted/Done/Suspended/Interrupted are the cycle's own
	// submission outcomes (not the recovered jobs').
	Submitted   int `json:"submitted"`
	Done        int `json:"done"`
	Suspended   int `json:"suspended"`
	Interrupted int `json:"interrupted"`
}

// SoakReport is the machine-readable soak outcome.
type SoakReport struct {
	Cycles          []CycleResult `json:"cycles"`
	KeyMultisetHash string        `json:"keyMultisetHash"`
	// ReferenceKeys counts plan keys whose StateHash was computed
	// in-process before any server ran — the independent ground truth
	// resumed jobs are checked against.
	ReferenceKeys  int `json:"referenceKeys"`
	TotalSuspended int `json:"totalSuspended"`
	TotalResumed   int `json:"totalResumed"`
	RecoveredFails int `json:"recoveredFails"`
	HashMismatches int `json:"hashMismatches"`
	UnresolvedKeys int `json:"unresolvedKeys"`
	// LeftoverStateFiles counts persisted job files (specs, checkpoints
	// and durable-write temporaries) after the final graceful stop;
	// anything non-zero means a job was abandoned.
	LeftoverStateFiles int `json:"leftoverStateFiles"`

	FinalReport *Report     `json:"finalReport"`
	Assertions  []Assertion `json:"assertions"`
	Pass        bool        `json:"pass"`
}

func (sc SoakConfig) withDefaults() SoakConfig {
	if sc.Cycles < 2 {
		sc.Cycles = 2
	}
	if sc.CycleTimeout <= 0 {
		sc.CycleTimeout = 5 * time.Minute
	}
	if sc.Load.Mix.LongJobs < 2 {
		sc.Load.Mix.LongJobs = 2
	}
	return sc
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}

// referenceHashes computes the long jobs' ground-truth hashes in-process,
// before any server runs, and records them in the ledger. A resumed or
// recovered job that diverges from an uninterrupted run of the same spec
// is then caught as a ledger mismatch against an independent witness, not
// silently self-consistent. It returns how many keys it hashed.
func referenceHashes(items []Item, ledger *hashLedger) (int, error) {
	keys := 0
	for _, it := range items {
		if !it.Long {
			continue
		}
		if _, ok := ledger.hashFor(it.Key); ok {
			continue
		}
		st, err := experiment.Run(it.Spec.RunConfig())
		if err != nil {
			return keys, fmt.Errorf("loadgen: reference run: %w", err)
		}
		if st.FinalState == nil {
			return keys, fmt.Errorf("loadgen: reference run captured no final state")
		}
		ledger.observe(it.Key, st.FinalState.StateHashHex(), false)
		keys++
	}
	return keys, nil
}

// unresolvedKeys counts the distinct plan keys the ledger holds no hash
// for once every cycle has run: jobs that never reached done anywhere.
func unresolvedKeys(items []Item, ledger *hashLedger) int {
	unresolved := make(map[string]struct{})
	for _, it := range items {
		if _, ok := ledger.hashFor(it.Key); !ok {
			unresolved[it.Key] = struct{}{}
		}
	}
	return len(unresolved)
}

// Soak runs the drain/restart soak: cycles of the same seeded plan
// against a managed peas-serve, each non-final cycle SIGTERMed while
// its long jobs run (forcing checkpoint-suspend), each next cycle
// first resolving the recovered jobs and checking that resumed runs
// reproduce the independently computed reference StateHash. The final
// cycle runs undisturbed and is gated on the SLO.
func Soak(ctx context.Context, sc SoakConfig) (*SoakReport, error) {
	sc = sc.withDefaults()
	items, err := Plan(sc.Load.Mix)
	if err != nil {
		return nil, err
	}

	ledger := newHashLedger()
	rep := &SoakReport{KeyMultisetHash: KeyMultisetHash(items)}

	if rep.ReferenceKeys, err = referenceHashes(items, ledger); err != nil {
		return nil, err
	}
	logf(sc.Log, "soak: plan %d items (%d distinct keys), %d reference hashes",
		len(items), distinctKeys(items), rep.ReferenceKeys)

	proc := sc.Server
	stateDir := proc.StateDir
	for cycle := 0; cycle < sc.Cycles; cycle++ {
		cctx, cancel := context.WithTimeout(ctx, sc.CycleTimeout)
		res, finalRep, err := runSoakCycle(cctx, &proc, sc, items, ledger, cycle)
		cancel()
		if err != nil {
			if proc.cmd != nil {
				_ = proc.cmd.Process.Kill()
				_ = proc.cmd.Wait()
			}
			return nil, fmt.Errorf("loadgen: cycle %d: %w", cycle, err)
		}
		rep.Cycles = append(rep.Cycles, res)
		rep.TotalSuspended += res.Suspended
		rep.TotalResumed += res.ResumedDone
		if finalRep != nil {
			rep.FinalReport = finalRep
		}
		logf(sc.Log, "soak: cycle %d: submitted=%d done=%d suspended=%d interrupted=%d recovered=%d resumed=%d",
			cycle, res.Submitted, res.Done, res.Suspended, res.Interrupted, res.Recovered, res.ResumedDone)
	}

	// Anything persisted after the final graceful stop was abandoned.
	specs, ckpts, tmps := censusStateDir(stateDir)
	rep.LeftoverStateFiles = specs + ckpts + tmps

	_, rep.HashMismatches, _ = ledger.stats()
	rep.UnresolvedKeys = unresolvedKeys(items, ledger)

	rep.evaluate(sc)
	return rep, nil
}

// TestSoakDrain runs the drain/restart soak against a real peas-serve:
// cycle 0 SIGTERMs the server while both long jobs run, so they
// checkpoint-suspend into the state dir; cycle 1 recovers them, checks the
// resumed runs against the in-process reference StateHash, replays the
// plan and is gated on the SLO; the state dir must end with no live
// admission, spec or checkpoint.
func TestSoakDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs peas-serve")
	}
	rep, err := Soak(context.Background(), SoakConfig{
		Server: ServerProc{Bin: peasServe(t), StateDir: t.TempDir(), Log: testLog{t}},
		Cycles: 2,
		Load: Config{Mix: Mix{Seed: 1, Jobs: 30, DuplicateRatio: 0.3, FollowFraction: 0.4,
			ChaosFraction: 0.15, LongJobs: 2}},
		Log: testLog{t},
	})
	if err != nil {
		t.Fatal(err)
	}
	requirePass(t, rep, rep.Assertions)
}

// evaluate fills the soak assertions and the pass verdict.
func (r *SoakReport) evaluate(sc SoakConfig) {
	add := func(name string, ok bool, format string, args ...any) {
		r.Assertions = append(r.Assertions, Assertion{Name: name, Ok: ok, Detail: fmt.Sprintf(format, args...)})
	}
	add("drain-suspension-exercised", r.TotalSuspended >= 1 || r.TotalResumed >= 1,
		"suspended=%d resumed=%d across %d cycles", r.TotalSuspended, r.TotalResumed, len(r.Cycles))
	add("resumed-jobs-reproduce-hash", r.TotalResumed >= 1 && r.HashMismatches == 0,
		"resumed=%d hashMismatches=%d (reference keys: %d)", r.TotalResumed, r.HashMismatches, r.ReferenceKeys)
	add("zero-lost-jobs", r.UnresolvedKeys == 0 && r.RecoveredFails == 0,
		"unresolvedKeys=%d recoveredFails=%d", r.UnresolvedKeys, r.RecoveredFails)
	add("clean-final-drain", r.LeftoverStateFiles == 0,
		"leftover persisted job files: %d", r.LeftoverStateFiles)
	add("final-cycle-slo", r.FinalReport != nil && r.FinalReport.Pass,
		"final cycle report pass=%v", r.FinalReport != nil && r.FinalReport.Pass)

	r.Pass = true
	for _, a := range r.Assertions {
		if !a.Ok {
			r.Pass = false
		}
	}
}

// runSoakCycle boots the server, resolves recovered jobs, runs the
// plan, and — on non-final cycles — SIGTERMs the server while the long
// jobs are running. It returns the final cycle's SLO report when this
// is the last cycle.
func runSoakCycle(ctx context.Context, proc *ServerProc, sc SoakConfig, items []Item, ledger *hashLedger, cycle int) (CycleResult, *Report, error) {
	res := CycleResult{Cycle: cycle}
	final := cycle == sc.Cycles-1

	if err := proc.Start(ctx); err != nil {
		return res, nil, err
	}
	c := client.New(proc.URL())

	// Resolve jobs the fresh server recovered from the state dir
	// before adding new load, so every prior cycle's in-flight work is
	// accounted for (and so the final cycle knows which keys are
	// already cached).
	precached := make(map[string]struct{})
	rs, err := resolveRecovered(ctx, c, ledger, precached)
	if err != nil {
		return res, nil, err
	}
	res.Recovered, res.ResumedDone, res.RestartedDone = rs.Recovered, rs.ResumedDone, rs.RestartedDone

	runCfg := sc.Load
	if final {
		runCfg.SLO.AllowSuspended = false
	} else {
		// Mid-cycle outcomes are bookkeeping, not the SLO gate.
		runCfg.SLO.AllowSuspended = true
	}
	r := newRunner(c, runCfg, ledger)

	runDone := make(chan struct{})
	t0 := time.Now()
	go func() {
		defer close(runDone)
		r.runPlan(ctx, items)
	}()

	if !final {
		res.Drained = awaitLongJobsRunning(ctx, c, items, runDone)
		r.halt.Store(true)
		if err := proc.Stop(30 * time.Second); err != nil {
			return res, nil, err
		}
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
	// Final cycle: nothing should be running after the plan completes,
	// so the graceful stop must drain cleanly.
	if err := proc.Stop(30 * time.Second); err != nil {
		return res, nil, err
	}
	cycleRep.evaluate(runCfg.SLO)
	return res, cycleRep, nil
}

// recoveredStats summarizes the recovered-job resolution at one boot.
type recoveredStats struct {
	// Recovered is the job count the fresh server re-admitted at boot.
	Recovered int
	// ResumedDone completed from a drain checkpoint; RestartedDone
	// completed from their spec alone.
	ResumedDone   int
	RestartedDone int
}

// resolveRecovered waits for every job the fresh server re-admitted at
// boot to reach a terminal state, feeding their hashes to the ledger.
// Keys of completed recovered jobs are added to precached: their
// results now sit in this server's cache. A failed recovered job is an
// error.
func resolveRecovered(ctx context.Context, c *client.Client, ledger *hashLedger, precached map[string]struct{}) (recoveredStats, error) {
	var rs recoveredStats
	first := true
	for {
		infos, err := c.Jobs(ctx)
		if err != nil {
			return rs, fmt.Errorf("listing recovered jobs: %w", err)
		}
		if first {
			rs.Recovered = len(infos)
			first = false
		}
		pending := 0
		for _, info := range infos {
			switch info.State {
			case jobqueue.StateQueued, jobqueue.StateRunning:
				pending++
			}
		}
		if pending == 0 {
			for _, info := range infos {
				if info.State != jobqueue.StateDone || info.Result == nil {
					continue
				}
				ledger.observe(info.Key, info.Result.StateHash, info.Result.Resumed)
				precached[info.Key] = struct{}{}
				if info.Result.Resumed {
					rs.ResumedDone++
				} else {
					rs.RestartedDone++
				}
			}
			for _, info := range infos {
				if info.State == jobqueue.StateFailed {
					return rs, fmt.Errorf("recovered job %s failed: %s", info.ID, info.Error)
				}
			}
			return rs, nil
		}
		select {
		case <-ctx.Done():
			return rs, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// awaitLongJobsRunning polls the job list until every long-job key has
// a job in the running state — the moment the SIGTERM is guaranteed
// live drain victims — or the runner finishes first (nothing left to
// suspend; reported as an un-drained cycle). A 60s failsafe fires the
// drain regardless.
func awaitLongJobsRunning(ctx context.Context, c *client.Client, items []Item, runDone <-chan struct{}) bool {
	longKeys := make(map[string]struct{})
	for _, it := range items {
		if it.Long {
			longKeys[it.Key] = struct{}{}
		}
	}
	if len(longKeys) == 0 {
		return false
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case <-runDone:
			return false
		case <-ctx.Done():
			return false
		case <-time.After(25 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return false
		}
		infos, err := c.Jobs(ctx)
		if err != nil {
			return false
		}
		running := 0
		for _, info := range infos {
			if _, ok := longKeys[info.Key]; ok && info.State == jobqueue.StateRunning {
				running++
			}
		}
		if running == len(longKeys) {
			return true
		}
	}
}

// censusStateDir counts the persisted jobs in dir at one instant: live
// and parked records in the admission log plus spec files of earlier
// stores (specs), complete checkpoints, and in-flight durable-write
// temporaries. A claim's record consumes the parked record it names. A
// torn last log frame was never acknowledged and counts as nothing.
// Subdirectories (quarantine/, kept for inspection by design) are skipped.
func censusStateDir(dir string) (specs, ckpts, tmps int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, 0
	}
	if data, err := os.ReadFile(filepath.Join(dir, "admissions.log")); err == nil {
		records, damaged, _ := durable.ReadLog(data)
		live := map[string]bool{}
		for _, rec := range records {
			var r struct{ ID, Retired, Claims string }
			_ = json.Unmarshal(rec, &r)
			if r.Retired != "" {
				delete(live, r.Retired)
			} else {
				delete(live, r.Claims)
				live[r.ID] = true
			}
		}
		specs += len(live) + len(damaged) // a damaged run is quarantined at boot as one job
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			tmps++
		case strings.HasSuffix(name, ".spec.json"):
			specs++
		case strings.HasSuffix(name, ".ckpt"):
			ckpts++
		}
	}
	return specs, ckpts, tmps
}
