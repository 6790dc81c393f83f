package oracle

// The analytic-rate test checks §2.2's central claim end to end: Adaptive
// Sleeping drives the aggregate probing rate observed by a working node
// to the configured λd, and the §2.2.1 model says the wakeup arrivals
// form a Poisson process, so inter-probe gaps must look exponential with
// rate ≈ λd.
//
// The measurement deliberately reconstructs the model's own regime — one
// tight cluster of nodes, diameter < Rp, so exactly one node works at a
// time and every wakeup PROBE reaches it. On the full §4 field the gap
// pool mixes neighborhoods of different density and turn-off cycling,
// which breaks exponentiality for reasons the analysis never claims to
// cover.

import (
	"math"
	"testing"

	"peas/internal/core"
	"peas/internal/experiment"
	"peas/internal/geom"
	"peas/internal/node"
	"peas/internal/radio"
	"peas/internal/stats"
)

func TestProbeRateMatchesAnalytic(t *testing.T) {
	const (
		n       = 30
		horizon = 14000.0
		settle  = 2000.0 // initial λ0 aggregate is 3/s; let adaptation converge
		sample  = 200    // fixed n so D·√n is comparable across code changes
		lambdaD = 0.02
		// The multiplicative update λ <- λ·λd/λ̂ makes individual rates
		// random-walk around the target, so the aggregate is a slightly
		// over-dispersed Poisson; across seeds D·√n lands in 0.5-2.0.
		// 2.5 still cleanly rejects uniform (~5) and degenerate (~9) data.
		ksCap = 2.5
	)

	ncfg := node.DefaultConfig(n, 1)
	pos := make([]geom.Point, n)
	for i := range pos {
		// Ring of diameter 2 m < Rp = 3 m: every node hears every node.
		ang := 2 * math.Pi * float64(i) / n
		pos[i] = geom.Point{X: 25 + math.Cos(ang), Y: 25 + math.Sin(ang)}
	}
	ncfg.Positions = pos

	var times []float64
	maxWorking := 0
	cfg := experiment.RunConfig{
		Network: ncfg,
		Horizon: horizon,
		OnNetwork: func(net *node.Network) {
			prevTx := net.Medium.OnTransmit
			net.Medium.OnTransmit = func(pkt radio.Packet) {
				if prevTx != nil {
					prevTx(pkt)
				}
				// Seq > 0 frames are retries within one probing round;
				// only Seq 0 marks a fresh wakeup arrival.
				if probe, ok := pkt.Payload.(core.Probe); ok && probe.Seq == 0 {
					times = append(times, net.Engine.Now())
					if w := net.WorkingCount(); w > maxWorking {
						maxWorking = w
					}
				}
			}
		},
	}
	if _, err := experiment.Run(cfg); err != nil {
		t.Fatal(err)
	}

	if maxWorking != 1 {
		t.Errorf("cluster should keep exactly one worker, saw %d concurrent", maxWorking)
	}
	var gaps []float64
	for i := 1; i < len(times); i++ {
		if times[i-1] >= settle {
			gaps = append(gaps, times[i]-times[i-1])
		}
	}
	if len(gaps) < sample {
		t.Fatalf("only %d gaps after settle, want >= %d", len(gaps), sample)
	}
	gaps = gaps[:sample]

	rate := 1 / stats.Mean(gaps)
	t.Logf("measured aggregate probe rate %.4f/s (λd=%.4f/s)", rate, lambdaD)
	if rate < lambdaD/1.35 || rate > lambdaD*1.35 {
		t.Errorf("measured rate %.4f/s is not within 35%% of λd=%.4f/s", rate, lambdaD)
	}

	d, nn := ExpKS(gaps)
	stat := d * math.Sqrt(float64(nn))
	t.Logf("KS: D=%.4f n=%d D·√n=%.3f", d, nn, stat)
	if stat > ksCap {
		t.Errorf("inter-probe gaps reject the exponential shape: D·√n=%.3f > %.1f", stat, ksCap)
	}
}

// TestExpKSRejectsNonExponential sanity-checks the statistic itself:
// exponential data passes, uniform and constant data fail, so a pass in
// TestProbeRateMatchesAnalytic is informative.
func TestExpKSRejectsNonExponential(t *testing.T) {
	exp := make([]float64, 400)
	uni := make([]float64, 400)
	con := make([]float64, 400)
	r := stats.NewRNG(77)
	for i := range exp {
		exp[i] = r.Exp(0.02)
		uni[i] = r.Uniform(0, 100)
		con[i] = 50
	}
	if d, n := ExpKS(exp); d*math.Sqrt(float64(n)) > 2.0 {
		t.Errorf("exponential sample rejected: D·√n=%.3f", d*math.Sqrt(float64(n)))
	}
	if d, n := ExpKS(uni); d*math.Sqrt(float64(n)) < 2.5 {
		t.Errorf("uniform sample accepted: D·√n=%.3f", d*math.Sqrt(float64(n)))
	}
	if d, n := ExpKS(con); d*math.Sqrt(float64(n)) < 2.5 {
		t.Errorf("constant sample accepted: D·√n=%.3f", d*math.Sqrt(float64(n)))
	}
}
