package jobqueue

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"peas/internal/experiment"
)

// instantPool is a started pool whose runs return at once; runs counts
// them.
func instantPool(t *testing.T, cfg Config) (*Pool, *atomic.Int64) {
	t.Helper()
	var runs atomic.Int64
	cfg.Run = func(experiment.RunConfig) (*experiment.RunStats, error) {
		runs.Add(1)
		return &experiment.RunStats{}, nil
	}
	p := New(cfg)
	p.Start()
	t.Cleanup(func() { _ = p.Shutdown(context.Background()) })
	return p, &runs
}

func specBody(t *testing.T, s *Spec) []byte {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// submitBody submits body through SubmitJSON, requires outcome want and
// waits for the job to end.
func submitBody(t *testing.T, p *Pool, body []byte, want Outcome) *Job {
	t.Helper()
	job, outcome, err := p.SubmitJSON(body)
	if err != nil || outcome != want {
		t.Fatalf("SubmitJSON: %v, %v; want %s", outcome, err, want)
	}
	waitResult(t, job)
	return job
}

// TestBodyDigestLeavesWithItsKey: a body's digest is recorded by a cache
// hit, answers the next identical body from the key table, and leaves
// with the key — once the key is evicted, the same bytes are admitted and
// run again.
func TestBodyDigestLeavesWithItsKey(t *testing.T) {
	p, runs := instantPool(t, Config{Workers: 1, QueueDepth: 4, CacheCap: 1})
	a, b := specBody(t, testSpec(1)), specBody(t, testSpec(2))
	digests := func() int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.bodies)
	}

	// hitSpec is the spec recorded with the digest; a decoded hit replaces
	// it, a hit served by the digest leaves it as it was.
	hitSpec := func() *Spec {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.bodies[sha256.Sum256(a)].hit.spec
	}

	submitBody(t, p, a, OutcomeAccepted)
	decoded := submitBody(t, p, a, OutcomeCached) // decoded: records the digest
	if n := digests(); n != 1 {
		t.Fatalf("body index holds %d digests after one hit, want 1", n)
	}
	recorded := hitSpec()
	served := submitBody(t, p, a, OutcomeCached)
	if hitSpec() != recorded || served.Summary != decoded.Summary || served.Key != decoded.Key || served.ID == decoded.ID {
		t.Fatalf("identical body not served from its digest: spec %p/%p, summary %+v/%+v, key %s/%s, ID %s/%s",
			hitSpec(), recorded, served.Summary, decoded.Summary, served.Key, decoded.Key, served.ID, decoded.ID)
	}

	submitBody(t, p, b, OutcomeAccepted) // b's result evicts a's key
	if n := digests(); n != 0 {
		t.Fatalf("body index holds %d digests after its key was evicted", n)
	}
	submitBody(t, p, a, OutcomeAccepted)
	if n := runs.Load(); n != 3 {
		t.Fatalf("%d runs, want 3: a, b, then a again after its eviction", n)
	}
	c := p.Stats().Counters
	if c["cache_hits"] != 2 || c["cache_misses"] != 3 || c["jobs_submitted"] != 5 || c["cache_evictions"] != 2 {
		t.Fatalf("counters %v", c)
	}
}

// TestSubmitJSONRefusesWhatDecodeSpecRefuses: a body the strict decoder
// refuses is named as a decoding error; one that decodes but does not
// normalize gets Normalize's error, as through Submit. Neither is
// remembered.
func TestSubmitJSONRefusesWhatDecodeSpecRefuses(t *testing.T) {
	p, runs := instantPool(t, Config{Workers: 1, QueueDepth: 4})
	for _, tc := range []struct{ body, want string }{
		{`{"network":{"N":40,"Seed":1},"hang":true}`, `decoding job spec: json: unknown field "hang"`},
		{`{"network":{"N":40,"Seed":1}}{}`, "decoding job spec: data after the job spec"},
		{`{"kind":"sweep","network":{"N":40,"Seed":1}}`, `jobqueue: unknown job kind "sweep"`},
		{`{"network":{"N":40,"Seed":1},"coverageSpacing":-5}`, "jobqueue: coverageSpacing must be a finite non-negative number"},
		{`{"network":{"N":40,"Seed":1},"coverageSpacing":0.001}`, "jobqueue: coverageSpacing 0.001 m makes a lattice of 2.5e+09 points"},
		{`{"network":{"N":40,"Seed":1},"coverageSpacing":1e-300}`, "jobqueue: coverageSpacing 1e-300 m makes a lattice of +Inf points"},
		{`{"network":{"N":40,"Seed":1,"Field":{"Width":3000,"Height":3000}}}`, "jobqueue: coverageSpacing 1 m makes a lattice"},
	} {
		if _, _, err := p.SubmitJSON([]byte(tc.body)); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: %v, want %q", tc.body, err, tc.want)
		}
	}
	if runs.Load() != 0 || len(p.Jobs()) != 0 || p.Stats().Counters["jobs_submitted"] != 0 {
		t.Fatalf("refused bodies left runs %d, jobs %d, counters %v", runs.Load(), len(p.Jobs()), p.Stats().Counters)
	}
}

// TestExplicitSpacingKeysAsAbsent: a coverage spacing of 1 m, the
// default, keys like a spec without one; any other spacing keys apart.
func TestExplicitSpacingKeysAsAbsent(t *testing.T) {
	key := func(spacing float64) string {
		s := testSpec(1)
		s.CoverageSpacing = spacing
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		return s.Key()
	}
	if key(1) != key(0) || key(0.5) == key(0) {
		t.Fatalf("keys of spacing 0, 1 and 0.5: %s, %s, %s; want the first two equal and the third apart", key(0), key(1), key(0.5))
	}
}

// TestBodyHitsShareOneReadOnlySpec runs digest hits, decoded hits that
// replace the digest, and readers of the jobs they return side by side.
// The jobs a digest serves are built from one shared spec, so under -race
// this shows nothing writes a spec after admission.
func TestBodyHitsShareOneReadOnlySpec(t *testing.T) {
	p, runs := instantPool(t, Config{Workers: 2, QueueDepth: 4})
	plain := testSpec(7)
	timed := *plain
	timed.DeadlineSeconds = 60
	bodies := [][]byte{specBody(t, plain), specBody(t, &timed)}
	submitBody(t, p, bodies[0], OutcomeAccepted)

	const goroutines, rounds = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				b := 0
				if g%2 == 1 { // odd goroutines alternate the two bodies
					b = i % 2
				}
				job, outcome, err := p.SubmitJSON(bodies[b])
				if err != nil || outcome != OutcomeCached {
					t.Errorf("resubmission: %v, %v; want cached", outcome, err)
					return
				}
				if s := job.Summary; s.N != 40 || s.Horizon != 600 || s.Kind != KindSim || s.DeadlineSeconds != []float64{0, 60}[b] {
					t.Errorf("job %s of body %d carries spec summary %+v", job.ID, b, s)
				}
				v, changed := job.Watch()
				if ev := job.Event(v); changed != nil || ev.Type != EventDone || ev.Horizon != job.Summary.Horizon {
					t.Errorf("job %s: event %+v, change channel %v", job.ID, ev, changed)
				}
			}
		}(g)
	}
	wg.Wait()
	c := p.Stats().Counters
	if runs.Load() != 1 || c["cache_hits"] != goroutines*rounds || c["jobs_submitted"] != goroutines*rounds+1 {
		t.Fatalf("runs %d, counters %v", runs.Load(), c)
	}
}

// TestWatchFinishedJob: a stream opened on a terminal job gets the done
// view and no channel to wait on.
func TestWatchFinishedJob(t *testing.T) {
	p, _ := instantPool(t, Config{Workers: 1, QueueDepth: 4})
	job := submitBody(t, p, specBody(t, testSpec(3)), OutcomeAccepted)
	v, changed := job.Watch()
	if ev := job.Event(v); changed != nil || ev.Type != EventDone || ev.Result == nil {
		t.Fatalf("finished job's watch: event %+v, change channel %v; want the done view and none", ev, changed)
	}
}
