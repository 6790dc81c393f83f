package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"peas/internal/checkpoint"
	"peas/internal/connectivity"
	"peas/internal/coverage"
	"peas/internal/experiment"
	"peas/internal/forward"
	"peas/internal/geom"
	"peas/internal/jobqueue"
	"peas/internal/node"
	"peas/internal/radio"
	"peas/internal/server"
	"peas/internal/sim"
	"peas/internal/stats"
)

// kernelReps is how many repetitions each kernel's figure is the median of.
const kernelReps = 5

// loopKernel times a nanosecond-scale operation: it grows the iteration
// count until one repetition fills `budget`, then returns the median
// nanoseconds per iteration over kernelReps repetitions.
func loopKernel(budget time.Duration, fn func(iters int)) float64 {
	iters := 1
	for {
		t0 := time.Now()
		fn(iters)
		if d := time.Since(t0); d >= budget || iters >= 1<<30 {
			break
		} else if d < budget/16 {
			iters *= 8
		} else {
			iters *= 2
		}
	}
	reps := make([]float64, kernelReps)
	for r := range reps {
		t0 := time.Now()
		fn(iters)
		reps[r] = float64(time.Since(t0)) / float64(iters)
	}
	return median(reps)
}

// callKernel times a microsecond-scale operation call by call, for
// operations that need untimed work between calls. fn returns the measured
// span of one call. The figure is the median call of the median repetition.
func callKernel(budget time.Duration, fn func() time.Duration) float64 {
	reps := make([]float64, kernelReps)
	for r := range reps {
		var calls []float64
		for t0 := time.Now(); len(calls) < 8 || time.Since(t0) < budget; {
			calls = append(calls, float64(fn()))
		}
		reps[r] = median(calls)
	}
	return median(reps)
}

// nullSink and openReceiver isolate the radio medium: energy charges go
// nowhere and every node listens, so a broadcast pays for the receiver
// sweep and the delivery events and nothing above them.
type nullSink struct{}

func (nullSink) SpendTx(radio.NodeID, float64) {}
func (nullSink) SpendRx(radio.NodeID, float64) {}

type openReceiver struct{ delivered int }

func (*openReceiver) Listening() bool                 { return true }
func (r *openReceiver) Deliver(radio.Packet, float64) { r.delivered++ }

// midRun runs an N=480 forwarding simulation to t=2000 s and returns the
// snapshot taken there with the working set's positions: the inputs of the
// checkpoint and connectivity kernels.
func midRun(seed int64, n int) (*checkpoint.Snapshot, []geom.Point, error) {
	const at = 2000.0
	var snap *checkpoint.Snapshot
	var working []geom.Point
	cfg := experiment.RunConfig{
		Network:          node.DefaultConfig(n, seed),
		FailuresPer5000s: experiment.BaseFailuresPer5000,
		Forwarding:       true,
		CheckpointEvery:  at,
		OnCheckpoint:     func(s *checkpoint.Snapshot) bool { snap = s; return true },
		OnFinish:         func(net *node.Network) { working = net.WorkingPositions() },
	}
	if _, err := experiment.Run(cfg); err != nil {
		return nil, nil, err
	}
	if snap == nil || len(working) == 0 {
		return nil, nil, fmt.Errorf("kernels: no snapshot or empty working set at t=%v", at)
	}
	return snap, working, nil
}

// runKernels drives each package's public API in isolation on inputs the
// workloads produce (the largest deployment; the mid-life state of a
// Fig. 12 run) and returns the per-layer kernel metrics. budget is the
// length of one repetition.
func runKernels(seed int64, sizeDiv int, budget time.Duration) (map[string]float64, error) {
	m := map[string]float64{}
	nBig, nMid := 800/sizeDiv, 480/sizeDiv
	netCfg := node.DefaultConfig(nBig, seed)
	field := netCfg.Field
	positions := geom.UniformDeploy(field, nBig, stats.NewRNG(seed))
	rp := netCfg.Protocol.ProbingRange

	// sim: schedule + execute one event against a 1024-deep queue, the
	// heap depth of a paper-scale run.
	m["sim.kernel_ns_per_event"] = loopKernel(budget, func(iters int) {
		e := sim.NewEngine()
		fn := func(any) {}
		for i := 0; i < 1024; i++ {
			e.ScheduleArg(float64(i+1), fn, nil)
		}
		for i := 0; i < iters; i++ {
			e.ScheduleArg(1025, fn, nil)
			e.Step()
		}
	})

	// geom: the probe-range receiver query the radio issues per broadcast.
	idx := geom.NewIndex(field, positions, rp)
	hits := 0
	m["geom.within2_ns_per_query"] = loopKernel(budget, func(iters int) {
		for i := 0; i < iters; i++ {
			idx.Within2(positions[i%nBig], rp, func(int, float64) { hits++ })
		}
	})

	// radio: one probe-range broadcast and its deliveries.
	engine := sim.NewEngine()
	medium := radio.NewMedium(netCfg.Radio, engine, idx, stats.NewRNG(seed), nullSink{})
	for i := range positions {
		medium.Attach(radio.NodeID(i), &openReceiver{})
	}
	m["radio.broadcast_ns_per_packet"] = loopKernel(budget, func(iters int) {
		for i := 0; i < iters; i++ {
			medium.Broadcast(radio.Packet{From: radio.NodeID(i % nBig), Size: netCfg.Protocol.PacketSize, Range: rp})
			engine.Run(engine.Now() + 1)
		}
	})

	// node: building the largest deployment (per-run cost).
	m["node.new_network_ms"] = loopKernel(budget, func(iters int) {
		for i := 0; i < iters; i++ {
			if _, err := node.NewNetwork(netCfg); err != nil {
				panic(err) // DefaultConfig is valid by construction
			}
		}
	}) / 1e6

	// coverage: footprint build (per run), one working-set flip, one sample.
	var inc *coverage.Incremental
	m["coverage.build_ms"] = loopKernel(budget, func(iters int) {
		for i := 0; i < iters; i++ {
			lat := coverage.NewLattice(field, 1)
			inc = coverage.NewIncremental(lat, positions, experiment.SensingRange, experiment.MaxCoverageK)
		}
	}) / 1e6
	for i := 0; i < nBig/4; i++ {
		inc.Set(i, true)
	}
	m["coverage.set_ns"] = loopKernel(budget, func(iters int) {
		for i := 0; i < iters; i++ {
			k := (i * 131) % nBig
			inc.Set(k, !inc.Working(k))
		}
	})
	buf := make([]float64, 0, experiment.MaxCoverageK)
	m["coverage.sample_ns"] = loopKernel(budget, func(iters int) {
		for i := 0; i < iters; i++ {
			buf = inc.FractionInto(buf)
		}
	})

	// connectivity + checkpoint: the mid-life state of a Fig. 12 run.
	snap, working, err := midRun(seed, nMid)
	if err != nil {
		return nil, err
	}
	fw := forward.DefaultConfig(field)
	m["connectivity.shortest_path_us"] = loopKernel(budget, func(iters int) {
		for i := 0; i < iters; i++ {
			connectivity.ShortestPath(field, working, fw.Source, fw.Sink, fw.HopRange)
		}
	}) / 1e3
	encoded := snap.EncodeBytes()
	m["checkpoint.bytes"] = float64(len(encoded))
	m["checkpoint.encode_us"] = loopKernel(budget, func(iters int) {
		for i := 0; i < iters; i++ {
			encoded = snap.EncodeBytes()
		}
	}) / 1e3
	m["checkpoint.decode_us"] = loopKernel(budget, func(iters int) {
		for i := 0; i < iters; i++ {
			if _, err := checkpoint.DecodeBytes(encoded); err != nil {
				panic(err) // bytes EncodeBytes just produced
			}
		}
	}) / 1e3
	m["checkpoint.hash_us"] = loopKernel(budget, func(iters int) {
		for i := 0; i < iters; i++ {
			snap.StateHash()
		}
	}) / 1e3

	// jobqueue: the content key, then admission on the miss and hit paths of
	// a pool with no state dir and an instant executor, so only Submit's own
	// work (normalize, key, indexes, job record) is on the clock.
	small := jobqueue.NewSimSpec(40, seed)
	small.Horizon = 600
	m["jobqueue.key_us"] = loopKernel(budget, func(iters int) {
		for i := 0; i < iters; i++ {
			s := *small
			if err := s.Normalize(); err != nil {
				panic(err)
			}
			s.Key()
		}
	}) / 1e3

	pool := jobqueue.New(jobqueue.Config{
		Workers: poolWorkers, QueueDepth: poolQueue, CacheCap: poolCache,
		Run: func(experiment.RunConfig) (*experiment.RunStats, error) { return &experiment.RunStats{}, nil },
	})
	pool.Start()
	defer func() { _ = pool.Shutdown(context.Background()) }()
	rng := stats.NewRNG(seed)
	var kerr error
	submit := func(s *jobqueue.Spec) time.Duration {
		t0 := time.Now()
		job, _, err := pool.Submit(s)
		d := time.Since(t0)
		if err == nil {
			_, err = job.Wait(context.Background())
		}
		if err != nil && kerr == nil {
			kerr = err
		}
		return d
	}
	m["jobqueue.submit_miss_us"] = callKernel(budget, func() time.Duration {
		s := *small
		s.Network.Seed = rng.Int63()
		return submit(&s)
	}) / 1e3
	m["jobqueue.submit_hit_us"] = callKernel(budget, func() time.Duration {
		s := *small // the base spec: cached after the first call
		return submit(&s)
	}) / 1e3

	// server: one cached submission through the handler, no network.
	handler := server.New(pool, poolWorkers)
	body, err := json.Marshal(small)
	if err != nil {
		return nil, err
	}
	m["server.submit_hit_us"] = callKernel(budget, func() time.Duration {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/jobs", bytes.NewReader(body))
		w := httptest.NewRecorder()
		t0 := time.Now()
		handler.ServeHTTP(w, req)
		d := time.Since(t0)
		if w.Code != http.StatusOK && kerr == nil {
			kerr = fmt.Errorf("kernels: cached submit answered %d: %s", w.Code, w.Body)
		}
		return d
	}) / 1e3
	if kerr != nil {
		return nil, fmt.Errorf("kernels: %w", kerr)
	}
	return m, nil
}
