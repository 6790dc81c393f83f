package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"peas/internal/checkpoint"
	"peas/internal/node"
	"peas/internal/sim"
)

// TestPeriodicCapturesDoNotPerturb checks that taking snapshots is
// observation-only: a run with periodic captures ends in exactly the
// state of the same run without them.
func TestPeriodicCapturesDoNotPerturb(t *testing.T) {
	run := func(every float64) string {
		cfg := RunConfig{
			Network:          node.DefaultConfig(60, 9),
			Horizon:          2000,
			FailuresPer5000s: 10,
			Forwarding:       true,
			CaptureFinal:     true,
		}
		if every > 0 {
			cfg.CheckpointEvery = every
			cfg.OnCheckpoint = func(*checkpoint.Snapshot) bool { return false }
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalState.StateHashHex()
	}
	plain := run(0)
	captured := run(333.3)
	if plain != captured {
		t.Errorf("periodic captures perturbed the run: %s vs %s", plain, captured)
	}
}

// goldenFinalHash pins the end state of the first goldenRuns row on
// amd64. It detects unintended trajectory changes: any edit to the RNG,
// the event ordering, or the model physics shows up here.
const goldenFinalHash = "2faa254f39768f3548902c755fdc6ae83defa121c1e3fdccaf1cdf6a2686c3d1"

// goldenRun is one pinned run: its configuration, the exact work it
// counts, the hash of the state it ends in and the heap objects and bytes
// it may allocate.
type goldenRun struct {
	name string
	cfg  RunConfig
	// counts is engine events executed, packets broadcast, probe rounds
	// and coverage observations: pure functions of cfg, held exactly.
	counts [4]uint64
	// hash is the end-state StateHash, compared on amd64 only.
	hash string
	// cold is the heap objects a run on fresh storage allocates, network
	// construction included, as a one-shot process's run or a worker's
	// first is. allocs and bytes are the heap objects and bytes a warm run
	// allocates: one built into the storage an identical run released
	// just before, as every later run of a long-lived process is. The
	// model runs on one goroutine, so its own counts are exact;
	// goldenAllocSlack and goldenByteSlack cover the runtime's. The
	// collector paces on bytes, so bytes is the budget a regression in GC
	// load shows in.
	cold, allocs, bytes uint64
}

// goldenAllocSlack and goldenByteSlack are how far above its budgets a
// row's allocation counts may read: the Mallocs and TotalAlloc deltas also
// see the odd object the runtime allocates for itself. One more allocation
// per node, per wake-up or per event is hundreds to thousands of objects,
// and a buffer that stops being recycled is kilobytes.
const (
	goldenAllocSlack = 2
	goldenByteSlack  = 512
)

// FreshStorage empties the workspace list, so the next run builds from
// scratch, as in a fresh process. It is exported for the run-storage
// tests of the external test package.
func FreshStorage() {
	workspaces.Lock()
	defer workspaces.Unlock()
	clear(workspaces.list)
	workspaces.list = workspaces.list[:0]
}

// allocated returns the heap objects and bytes one run of cfg allocates,
// on one processor. A collection first completes any cycle earlier tests
// started and has the runtime start its mark workers, so neither is
// counted.
func allocated(t *testing.T, cfg RunConfig) (allocs, bytes uint64) {
	runtime.GC()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// goldenRuns is the table TestGoldenDeterminism holds. The first row
// samples the state hash every 500 simulated seconds as well; the other
// three are the paper's base scenario at three deployment sizes (protocol
// only, with forwarding, with forwarding under 26.66 failures per
// 5000 s). Horizons are explicit, never the deployment-proportional
// default, so the work counted is pinned.
//
// To re-pin after an intended trajectory or allocation change, run
// `go test -run TestGoldenDeterminism -v -count=3 ./internal/experiment/`
// and copy the row each subtest logs, taking the lowest allocation counts
// logged (a run can read an object or two high; see goldenAllocSlack).
// Budgets only move down.
func goldenRuns() []goldenRun {
	base := func(n int, seed int64, horizon, failures float64, forwarding bool) RunConfig {
		return RunConfig{
			Network:          node.DefaultConfig(n, seed),
			Horizon:          horizon,
			FailuresPer5000s: failures,
			Forwarding:       forwarding,
		}
	}
	sampled := base(60, 42, 2000, 10, true)
	sampled.CheckpointEvery = 500
	return []goldenRun{
		{"sampled-60", sampled, [4]uint64{4774, 1785, 388, 81}, goldenFinalHash, 994, 20, 1368},
		{"protocol-160", base(160, 1, 1500, 0, false), [4]uint64{15646, 5998, 1239, 61},
			"6253205caf9d9c9f7087fd00d654eca8af40ab1c8fe31acd507df283914443b6", 2368, 13, 1192},
		{"baseline-320", base(320, 2, 1200, BaseFailuresPer5000, true), [4]uint64{18650, 6791, 1327, 49},
			"e3c8525e8cad7b445e32b6cf1503a9f5171a5d097121786f89f3a456070f4265", 4669, 18, 1336},
		{"failures-480", base(480, 3, 1000, 26.66, true), [4]uint64{20549, 7423, 1416, 41},
			"4a862d1fa7b64e34b5de6901c34ec696cfee413e65a9c6793fe0508b96f7261d", 6937, 28, 1560},
	}
}

// TestGoldenDeterminism runs each goldenRuns row twice and asserts the
// work counters, the state hash at every sample point and the end-state
// hash agree across the two runs and with the row; then it holds the
// row's whole-run allocation count to its budget. The hashes are compared
// with the committed values on amd64 only: cross-architecture the
// trajectory may legitimately differ (Go permits fused multiply-add
// contraction, and libm kernels are architecture-specific), so elsewhere
// only the two-run equality and the allocation budget are asserted.
func TestGoldenDeterminism(t *testing.T) {
	counts := func(r *RunStats) [4]uint64 {
		return [4]uint64{r.EngineEvents, r.PacketsSent, r.Wakeups, uint64(r.CoverageSamples)}
	}
	for _, g := range goldenRuns() {
		t.Run(g.name, func(t *testing.T) {
			// hash is StateHash, held to the digest of the whole encoding:
			// the streamed hash must be the SHA-256 of EncodeBytes.
			hash := func(s *checkpoint.Snapshot) string {
				h := s.StateHash()
				if whole := sha256.Sum256(s.EncodeBytes()); h != whole {
					t.Fatalf("at t=%v StateHash is %x, the SHA-256 of EncodeBytes %x", s.SimTime, h, whole)
				}
				return hex.EncodeToString(h[:])
			}
			run := func() (res *RunStats, mids []string) {
				cfg := g.cfg
				cfg.CaptureFinal = true
				if cfg.CheckpointEvery > 0 {
					cfg.OnCheckpoint = func(s *checkpoint.Snapshot) bool {
						mids = append(mids, hash(s))
						return false
					}
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res, mids
			}
			a, midsA := run()
			b, midsB := run()
			if (g.cfg.CheckpointEvery > 0) != (len(midsA) > 0) {
				t.Fatalf("%d mid-run samples captured at CheckpointEvery=%v", len(midsA), g.cfg.CheckpointEvery)
			}
			if len(midsA) != len(midsB) {
				t.Fatalf("sample count differs across runs: %d vs %d", len(midsA), len(midsB))
			}
			for i := range midsA {
				if midsA[i] != midsB[i] {
					t.Errorf("sample %d differs across identical runs: %s vs %s", i, midsA[i], midsB[i])
				}
			}
			got := goldenRun{counts: counts(a), hash: hash(a.FinalState)}
			if again := hash(b.FinalState); again != got.hash {
				t.Errorf("final state differs across identical runs: %s vs %s", got.hash, again)
			}
			if again := counts(b); again != got.counts {
				t.Errorf("events/packets/wakeups/samples differ across identical runs: %v vs %v", got.counts, again)
			}

			// The budgeted runs are the plain one: no end-state capture and,
			// with no OnCheckpoint, no sampling cadence. The cold run builds
			// from scratch and releases its storage; the warm run is built
			// into it.
			FreshStorage()
			got.cold, _ = allocated(t, g.cfg)
			got.allocs, got.bytes = allocated(t, g.cfg)
			t.Logf("row: {%q, …, [4]uint64{%d, %d, %d, %d}, %q, %d, %d, %d}", g.name,
				got.counts[0], got.counts[1], got.counts[2], got.counts[3], got.hash, got.cold, got.allocs, got.bytes)

			if got.counts != g.counts {
				t.Errorf("events/packets/wakeups/samples = %v, golden row has %v", got.counts, g.counts)
			}
			if got.cold > g.cold+goldenAllocSlack {
				t.Errorf("one run on fresh storage allocated %d heap objects, budget %d + %d of runtime slack", got.cold, g.cold, goldenAllocSlack)
			}
			if got.allocs > g.allocs+goldenAllocSlack {
				t.Errorf("one warm run allocated %d heap objects, budget %d + %d of runtime slack", got.allocs, g.allocs, goldenAllocSlack)
			}
			if got.bytes > g.bytes+goldenByteSlack {
				t.Errorf("one warm run allocated %d bytes, budget %d + %d of runtime slack", got.bytes, g.bytes, goldenByteSlack)
			}
			if runtime.GOARCH != "amd64" {
				t.Skipf("golden hashes are pinned on amd64; running on %s", runtime.GOARCH)
			}
			if got.hash != g.hash {
				t.Errorf("final hash %s does not match committed golden %s", got.hash, g.hash)
			}
		})
	}
}

// TestCaptureGateCannotMoveTrajectory pins what the job pool relies on
// when it arms the checkpoint cadence but asks for no snapshot until a
// drain: the boundary ticks are engine events, the captures at them are
// not. One spec runs four ways — a snapshot taken and discarded at every
// boundary, CheckpointDue always false, CheckpointDue turning true at a
// seeded boundary where OnCheckpoint stops the run and the snapshot is
// resumed through the codec, and no cadence at all.
func TestCaptureGateCannotMoveTrajectory(t *testing.T) {
	const every = 250.0
	base := RunConfig{
		Network:          node.DefaultConfig(160, 5),
		Horizon:          6000,
		FailuresPer5000s: BaseFailuresPer5000,
		Forwarding:       true,
		CaptureFinal:     true,
	}
	run := func(cfg RunConfig) *RunStats {
		t.Helper()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	discarded := base
	discarded.CheckpointEvery = every
	boundaries := 0
	discarded.OnCheckpoint = func(*checkpoint.Snapshot) bool { boundaries++; return false }
	a := run(discarded)
	if boundaries < 10 {
		t.Fatalf("only %d boundaries in %v s; the comparison needs a populated cadence", boundaries, base.Horizon)
	}

	never := base
	never.CheckpointEvery = every
	never.CheckpointDue = func() bool { return false }
	calls := 0
	never.OnCheckpoint = func(*checkpoint.Snapshot) bool { calls++; return false }
	b := run(never)
	if calls != 0 {
		t.Errorf("OnCheckpoint ran %d times under a CheckpointDue that never asked", calls)
	}

	// The boundary where the drain lands is seeded, then moved on to the
	// next one that fired at its nominal time: a resumed run re-bases its
	// cadence on the snapshot time, so a boundary deferred for radio
	// quiescence would shift the remaining ticks (never the state).
	rng := rand.New(rand.NewSource(5))
	flipAt := 1 + rng.Intn(boundaries-2)
	var (
		eng  *sim.Engine
		seen int
		mid  *checkpoint.Snapshot
	)
	stopped := base
	stopped.CaptureFinal = false
	stopped.CheckpointEvery = every
	stopped.OnNetwork = func(net *node.Network) { eng = net.Engine }
	stopped.CheckpointDue = func() bool {
		seen++
		return seen >= flipAt && math.Mod(eng.Now(), every) == 0
	}
	stopped.OnCheckpoint = func(s *checkpoint.Snapshot) bool { mid = s; return true }
	first := run(stopped)
	if mid == nil {
		t.Fatalf("no boundary from the %dth on fired at its nominal time", flipAt)
	}
	decoded, err := checkpoint.DecodeBytes(mid.EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	second := run(RunConfig{
		Resume:          decoded,
		CaptureFinal:    true,
		CheckpointEvery: every,
		CheckpointDue:   func() bool { return false },
		OnCheckpoint:    func(*checkpoint.Snapshot) bool { return false },
	})

	d := run(base)

	want := a.FinalState.StateHashHex()
	for name, got := range map[string]*RunStats{"never due": b, "stopped and resumed": second, "no cadence": d} {
		if h := got.FinalState.StateHashHex(); h != want {
			t.Errorf("%s: final state %s, with captures discarded %s", name, h, want)
		}
	}
	if b.EngineEvents != a.EngineEvents {
		t.Errorf("never due executed %d events, captures discarded %d", b.EngineEvents, a.EngineEvents)
	}
	if sum := first.EngineEvents + second.EngineEvents; sum != a.EngineEvents {
		t.Errorf("stopped at t=%v and resumed executed %d+%d=%d events, uninterrupted %d",
			mid.SimTime, first.EngineEvents, second.EngineEvents, sum, a.EngineEvents)
	}
	if d.EngineEvents >= a.EngineEvents {
		t.Errorf("no cadence executed %d events, not fewer than the %d with one: boundary ticks are events",
			d.EngineEvents, a.EngineEvents)
	}
}

// TestEventsByKindAddUpAcrossAResume pins the by-kind split of
// EngineEvents: the four kinds account for every executed event, the
// engine's near run is a small part of its slots, and — because the
// deferral and timer tallies are restored model state while the run
// reports only their growth — a run stopped at a boundary and resumed
// reports, over its two segments, exactly the counts of the uninterrupted
// run.
func TestEventsByKindAddUpAcrossAResume(t *testing.T) {
	const every = 250.0
	cadence := RunConfig{
		Network:          node.DefaultConfig(120, 3),
		Horizon:          4000,
		FailuresPer5000s: BaseFailuresPer5000,
		Forwarding:       true,
		CheckpointEvery:  every,
		CheckpointDue:    func() bool { return false },
		OnCheckpoint:     func(*checkpoint.Snapshot) bool { return false },
	}
	run := func(cfg RunConfig) *RunStats {
		t.Helper()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sum := res.DeliveryEvents + res.DeferralEvents + res.TimerEvents + res.OtherEvents; sum != res.EngineEvents {
			t.Fatalf("kinds add up to %d of %d engine events: %+v", sum, res.EngineEvents, res)
		}
		return res
	}
	whole := run(cadence)
	if whole.DeliveryEvents == 0 || whole.DeferralEvents == 0 || whole.TimerEvents == 0 || whole.OtherEvents == 0 {
		t.Fatalf("a kind is empty: %d deliveries, %d deferrals, %d timers, %d other",
			whole.DeliveryEvents, whole.DeferralEvents, whole.TimerEvents, whole.OtherEvents)
	}
	if whole.OtherEvents*10 > whole.EngineEvents {
		t.Errorf("%d of %d events are unattributed; the tallies have lost a source", whole.OtherEvents, whole.EngineEvents)
	}
	if whole.NearSlots == 0 || whole.NearSlots*2 > whole.HeapSlots {
		t.Errorf("near run holds %d of %d slots; the long waits should dominate", whole.NearSlots, whole.HeapSlots)
	}

	var (
		eng *sim.Engine
		mid *checkpoint.Snapshot
	)
	stopped := cadence
	stopped.OnNetwork = func(net *node.Network) { eng = net.Engine }
	stopped.CheckpointDue = func() bool { return eng.Now() >= 1500 && math.Mod(eng.Now(), every) == 0 }
	stopped.OnCheckpoint = func(s *checkpoint.Snapshot) bool { mid = s; return true }
	first := run(stopped)
	if mid == nil {
		t.Fatal("no boundary after t=1500 fired at its nominal time")
	}
	resumed := cadence
	resumed.Resume = mid
	second := run(resumed)

	for _, k := range []struct {
		name         string
		first, whole uint64
		second       uint64
	}{
		{"delivery", first.DeliveryEvents, whole.DeliveryEvents, second.DeliveryEvents},
		{"deferral", first.DeferralEvents, whole.DeferralEvents, second.DeferralEvents},
		{"timer", first.TimerEvents, whole.TimerEvents, second.TimerEvents},
		{"other", first.OtherEvents, whole.OtherEvents, second.OtherEvents},
	} {
		if k.first == 0 || k.second == 0 || k.first+k.second != k.whole {
			t.Errorf("%s events: %d before the stop + %d after the resume, %d uninterrupted",
				k.name, k.first, k.second, k.whole)
		}
	}
}
