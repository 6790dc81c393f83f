// Package geom3 provides three-dimensional geometry for the paper's §3
// footnote: "The model applies to three-dimensional as well." It mirrors
// internal/geom for volumes: points, boxes and uniform deployment, enough
// to run the probing rule and check coverage and connectivity in 3-D (see
// the threed experiment).
package geom3

import (
	"math"

	"peas/internal/stats"
)

// Point is a position in 3-D space, in meters.
type Point struct {
	X, Y, Z float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// Box is an axis-aligned volume [0,W] x [0,H] x [0,D].
type Box struct {
	Width, Height, Depth float64
}

// NewBox returns a box of the given dimensions.
func NewBox(w, h, d float64) Box { return Box{Width: w, Height: h, Depth: d} }

// Contains reports whether p lies inside the box (inclusive).
func (b Box) Contains(p Point) bool {
	return p.X >= 0 && p.X <= b.Width &&
		p.Y >= 0 && p.Y <= b.Height &&
		p.Z >= 0 && p.Z <= b.Depth
}

// UniformDeploy places n points uniformly at random in the box.
func UniformDeploy(b Box, n int, rng *stats.RNG) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			X: rng.Uniform(0, b.Width),
			Y: rng.Uniform(0, b.Height),
			Z: rng.Uniform(0, b.Depth),
		}
	}
	return pts
}
