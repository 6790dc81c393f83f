package jobqueue

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"peas/internal/node"
)

// FuzzSpecNormalize feeds arbitrary submission bodies through the door
// every spec passes — DecodeSpec, then Normalize — and checks the
// properties "no aliased result" rests on: whatever Normalize accepts,
// node.NewNetwork builds; Normalize is idempotent; and the content key
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

		// How much memory one job may take is not this door's rule yet:
		// skip deployments whose node count or spatial grids are large.
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
