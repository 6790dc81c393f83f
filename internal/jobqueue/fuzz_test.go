package jobqueue

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"peas/internal/coverage"
	"peas/internal/node"
)

// FuzzSpecNormalize feeds arbitrary submission bodies through the door
// every spec passes — DecodeSpec, then Normalize — and checks the
// properties "no aliased result" rests on: whatever Normalize accepts,
// node.NewNetwork builds, and its coverage lattice holds at most
// maxLatticePoints points; Normalize is idempotent; and the content key
// survives a JSON round trip of the normalized spec.
// The seed corpus is testdata/fuzz/FuzzSpecNormalize.
func FuzzSpecNormalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := DecodeSpec(bytes.NewReader(body))
		if err != nil || spec.Normalize() != nil {
			return
		}
		key := spec.Key()
		normalized, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal a normalized spec: %v", err)
		}

		back, err := DecodeSpec(bytes.NewReader(normalized))
		if err != nil {
			t.Fatalf("a normalized spec does not decode: %v\n%s", err, normalized)
		}
		if back.Key() != key {
			t.Fatalf("key moved across a JSON round trip:\n%s", normalized)
		}

		if err := spec.Normalize(); err != nil {
			t.Fatalf("Normalize refuses its own output: %v\n%s", err, normalized)
		}
		again, _ := json.Marshal(spec)
		if !bytes.Equal(again, normalized) || spec.Key() != key {
			t.Fatalf("Normalize is not idempotent:\n%s\n%s", normalized, again)
		}

		if l := coverage.NewLattice(spec.Network.Field, spec.CoverageSpacing); l.Len() > maxLatticePoints {
			t.Fatalf("Normalize accepted a coverage lattice of %d points\n%s", l.Len(), normalized)
		}
		// How much memory one job may take is not otherwise this door's
		// rule yet: skip deployments whose node count or spatial grids are
		// large.
		if spec.Network.N > 2000 || gridCells(spec.Network) > 1<<20 {
			return
		}
		if _, err := node.NewNetwork(spec.Network); err != nil {
			t.Fatalf("Normalize accepted a network NewNetwork refuses: %v\n%s", err, normalized)
		}
	})
}

// gridCells is the larger of the two grids NewNetwork allocates: the
// neighbour index over the field at the probing range, and the radio's
// 5 m irregularity field over the deployment's extent.
func gridCells(cfg node.Config) float64 {
	index := (cfg.Field.Width/cfg.Protocol.ProbingRange + 2) * (cfg.Field.Height/cfg.Protocol.ProbingRange + 2)
	maxX, maxY := cfg.Field.Width, cfg.Field.Height
	for _, p := range cfg.Positions {
		maxX, maxY = math.Max(maxX, p.X), math.Max(maxY, p.Y)
	}
	irregularity := (maxX/5 + 2) * (maxY/5 + 2)
	return math.Max(index, irregularity)
}

// FuzzReplay feeds arbitrary bytes to New and Recover as the admission
// log of a state dir on a memFS. Nothing may panic or fail, and every ID
// ends in exactly one state: queued, parked, or held in the log for the
// next boot; the log Recover rewrote holds each queued and parked ID as
// that state, and no parked record the pool did not load. The seed corpus
// is the logs of the committed state dirs.
func FuzzReplay(f *testing.F) {
	for _, fx := range []string{"statedir-v2", "statedir-v3"} {
		data, err := os.ReadFile(filepath.Join("testdata/compat", fx, logName))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const dir = "/state"
		mem := newMemFS()
		mem.dirs[dir] = true
		mem.files[filepath.Join(dir, logName)] = data
		pool := New(Config{Workers: 1, QueueDepth: 4, StateDir: dir, FS: mem})
		if _, err := pool.Recover(); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		states := map[string]string{}
		put := func(id, st string) {
			if old, ok := states[id]; ok {
				t.Fatalf("%s is both %s and %s", id, old, st)
			}
			states[id] = st
		}
		for _, j := range pool.Jobs() {
			put(j.ID, "queued")
		}
		pool.mu.Lock()
		for _, e := range pool.keys {
			if e.state == keyParked {
				put(e.park, "parked")
			}
		}
		pool.mu.Unlock()
		recs, _, _ := replayLog(t, mem, dir)
		for id, st := range states {
			if r, ok := recs[id]; !ok || r.parked != (st == "parked") {
				t.Fatalf("%s is %s, and the rewritten log holds %+v (held %v)", id, st, r, ok)
			}
		}
		for id, r := range recs {
			if _, ok := states[id]; !ok && r.parked {
				t.Fatalf("the rewritten log holds a park of %s that the pool did not load", id)
			}
		}
	})
}
