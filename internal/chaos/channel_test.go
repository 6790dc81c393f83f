package chaos

import (
	"math"
	"testing"

	"peas/internal/metrics"
)

func judgeN(ch *Channel, n int) []Decision {
	out := make([]Decision, n)
	for i := range out {
		out[i] = ch.JudgeFrame(0, 1)
	}
	return out
}

func TestLossRateStatistics(t *testing.T) {
	counters := metrics.NewCounters()
	ch := NewChannel(11, counters)
	ch.SetLoss(0.3)
	const n = 20000
	drops := 0
	for _, d := range judgeN(ch, n) {
		if d.Drop {
			if d.Cause != Loss {
				t.Fatalf("drop cause = %v", d.Cause)
			}
			drops++
		}
	}
	rate := float64(drops) / n
	if math.Abs(rate-0.3) > 0.02 {
		t.Errorf("empirical loss rate %.3f, want ≈ 0.3", rate)
	}
	if got := counters.Get(CtrDropLoss); got != uint64(drops) {
		t.Errorf("counter %d != observed drops %d", got, drops)
	}
}

func TestBurstLossIsBursty(t *testing.T) {
	// lossBad=1, lossGood=0: drops exactly trace the bad state, whose
	// stationary probability is pGB/(pGB+pBG) and whose mean dwell is
	// 1/pBG frames — far burstier than i.i.d. loss at the same rate.
	ch := NewChannel(13, nil)
	ch.SetBurst(0.05, 0.25, 0, 1)
	const n = 50000
	drops, runs, runLen := 0, 0, 0
	var runSum int
	for _, d := range judgeN(ch, n) {
		if d.Drop {
			if d.Cause != BurstLoss {
				t.Fatalf("drop cause = %v", d.Cause)
			}
			drops++
			runLen++
		} else if runLen > 0 {
			runs++
			runSum += runLen
			runLen = 0
		}
	}
	rate := float64(drops) / n
	if want := 0.05 / (0.05 + 0.25); math.Abs(rate-want) > 0.03 {
		t.Errorf("burst loss rate %.3f, want ≈ %.3f", rate, want)
	}
	meanRun := float64(runSum) / float64(runs)
	if meanRun < 2.5 {
		t.Errorf("mean drop-run length %.2f; bursts should average ≈ 4 frames", meanRun)
	}
	ch.ClearBurst()
	for _, d := range judgeN(ch, 1000) {
		if d.Drop {
			t.Fatal("drops after ClearBurst")
		}
	}
}

func TestDuplicationDelayReorderCompose(t *testing.T) {
	counters := metrics.NewCounters()
	ch := NewChannel(17, counters)
	ch.SetDuplication(0.2)
	ch.SetDelay(0.3, 0.04)
	ch.SetReorder(0.1, 0.06)
	const n = 20000
	dups, delays := 0, 0
	for _, d := range judgeN(ch, n) {
		if d.Drop {
			t.Fatal("unexpected drop")
		}
		if d.Copies > 0 {
			dups++
		}
		if d.Delay > 0 {
			delays++
		}
		// Max possible: 0.04 (delay) + 0.06 (reorder), composed.
		if d.Delay < 0 || d.Delay > 0.1+1e-9 {
			t.Fatalf("delay %v outside [0, 0.1]", d.Delay)
		}
	}
	if rate := float64(dups) / n; math.Abs(rate-0.2) > 0.02 {
		t.Errorf("dup rate %.3f, want ≈ 0.2", rate)
	}
	// P(any delay) = 1 - (1-0.3)(1-0.1) = 0.37.
	if rate := float64(delays) / n; math.Abs(rate-0.37) > 0.02 {
		t.Errorf("delayed fraction %.3f, want ≈ 0.37", rate)
	}
	if counters.Get(CtrDup) == 0 || counters.Get(CtrDelay) == 0 || counters.Get(CtrReorder) == 0 {
		t.Errorf("counters missing: %v", counters.Snapshot())
	}
}

func TestReorderDelayBounds(t *testing.T) {
	ch := NewChannel(19, nil)
	ch.SetReorder(1, 0.08)
	for _, d := range judgeN(ch, 2000) {
		if d.Delay < 0.04-1e-9 || d.Delay > 0.08+1e-9 {
			t.Fatalf("reorder delay %v outside [max/2, max]", d.Delay)
		}
	}
}

func TestPartitionDropsWithoutConsumingRNG(t *testing.T) {
	// Partition decisions are deterministic: a channel that judged a
	// thousand cross-group frames must produce the same downstream RNG
	// decisions as one that never saw them.
	a := NewChannel(23, nil)
	b := NewChannel(23, nil)
	b.SetPartition([]int{0, 0, 1})
	if b.partition == nil {
		t.Fatal("no partition after SetPartition")
	}
	for i := 0; i < 1000; i++ {
		d := b.JudgeFrame(0, 2)
		if !d.Drop || d.Cause != Partition {
			t.Fatalf("cross-group frame not dropped: %+v", d)
		}
	}
	if d := b.JudgeFrame(0, 1); d.Drop {
		t.Fatal("same-group frame dropped")
	}
	b.Heal()
	if b.partition != nil {
		t.Fatal("partition still set after Heal")
	}
	a.SetLoss(0.5)
	b.SetLoss(0.5)
	for i := 0; i < 500; i++ {
		da, db := a.JudgeFrame(0, 1), b.JudgeFrame(0, 1)
		if da != db {
			t.Fatalf("decision %d diverged after partition traffic: %+v vs %+v", i, da, db)
		}
	}
}

func TestSameSeedSameDecisions(t *testing.T) {
	mk := func() *Channel {
		ch := NewChannel(29, nil)
		ch.SetLoss(0.1)
		ch.SetBurst(0.05, 0.25, 0, 0.9)
		ch.SetDuplication(0.1)
		ch.SetDelay(0.2, 0.05)
		ch.SetReorder(0.1, 0.06)
		return ch
	}
	a, b := mk(), mk()
	for i := 0; i < 5000; i++ {
		da, db := a.JudgeFrame(i%7, i%5), b.JudgeFrame(i%7, i%5)
		if da != db {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, da, db)
		}
	}
}

func TestCounterForAndUnexercised(t *testing.T) {
	counts := map[string]uint64{CtrDropLoss: 1, CtrRestarted: 1}
	missing := Unexercised([]FaultClass{Loss, CrashRestart, FailRecover, Partition}, counts)
	if len(missing) != 2 || missing[0] != FailRecover || missing[1] != Partition {
		t.Errorf("Unexercised = %v", missing)
	}
	// Recovery classes complete only when the node comes back.
	if CounterFor(FailRecover) != CtrRecovered || CounterFor(CrashRestart) != CtrRestarted {
		t.Error("recovery classes must map to their completion counters")
	}
}
