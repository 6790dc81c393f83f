// Package geom provides the two-dimensional geometry used by the PEAS
// simulator: points, distances, rectangular deployment fields, uniform node
// placement, and a bucket-grid spatial index for range queries.
package geom

import (
	"fmt"
	"math"

	"peas/internal/stats"
)

// Point is a position in the 2-D deployment field, in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// Dist2 returns the squared Euclidean distance between p and q. Range
// checks compare against a squared radius to avoid the Sqrt in hot paths.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// String renders the point as "(x, y)" with centimeter precision.
func (p Point) String() string {
	return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y)
}

// Field is an axis-aligned rectangular deployment area [0,W] x [0,H].
type Field struct {
	Width, Height float64
}

// NewField returns a field of the given dimensions in meters.
func NewField(width, height float64) Field {
	return Field{Width: width, Height: height}
}

// Contains reports whether p lies inside the field (inclusive).
func (f Field) Contains(p Point) bool {
	return p.X >= 0 && p.X <= f.Width && p.Y >= 0 && p.Y <= f.Height
}

// Clamp returns p restricted to the field boundary.
func (f Field) Clamp(p Point) Point {
	return Point{
		X: math.Max(0, math.Min(f.Width, p.X)),
		Y: math.Max(0, math.Min(f.Height, p.Y)),
	}
}

// UniformDeploy places n nodes uniformly at random in the field, as in the
// paper's evaluation ("nodes are uniformly distributed in the field
// initially and remain stationary once deployed").
func UniformDeploy(f Field, n int, rng *stats.RNG) []Point {
	return AppendUniformDeploy(make([]Point, 0, n), f, n, rng)
}

// AppendUniformDeploy is UniformDeploy appending the n points to pts.
func AppendUniformDeploy(pts []Point, f Field, n int, rng *stats.RNG) []Point {
	for range n {
		pts = append(pts, Point{X: rng.Uniform(0, f.Width), Y: rng.Uniform(0, f.Height)})
	}
	return pts
}

// ClusterDeploy places n nodes around `clusters` uniformly chosen hotspot
// centers with Gaussian spread sigma, clamped to the field — the "uneven
// distribution" of paper §4, which "may cause the system to function for
// less time because regions with fewer nodes will die out much earlier".
func ClusterDeploy(f Field, n, clusters int, sigma float64, rng *stats.RNG) []Point {
	if n <= 0 {
		return nil
	}
	if clusters < 1 {
		clusters = 1
	}
	centers := UniformDeploy(f, clusters, rng)
	pts := make([]Point, n)
	for i := range pts {
		c := centers[rng.Intn(clusters)]
		pts[i] = f.Clamp(Point{
			X: c.X + sigma*rng.Normal(),
			Y: c.Y + sigma*rng.Normal(),
		})
	}
	return pts
}

// GridDeploy places n nodes on a near-square lattice with optional uniform
// jitter, a deployment alternative discussed in paper §4 ("evenly deployed
// nodes will work longer than those deployed irregularly").
func GridDeploy(f Field, n int, jitter float64, rng *stats.RNG) []Point {
	if n <= 0 {
		return nil
	}
	cols := int(math.Ceil(math.Sqrt(float64(n) * f.Width / f.Height)))
	if cols < 1 {
		cols = 1
	}
	rows := (n + cols - 1) / cols
	dx := f.Width / float64(cols)
	dy := f.Height / float64(rows)
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		r, c := i/cols, i%cols
		p := Point{
			X: (float64(c) + 0.5) * dx,
			Y: (float64(r) + 0.5) * dy,
		}
		if jitter > 0 {
			p.X += rng.Uniform(-jitter, jitter)
			p.Y += rng.Uniform(-jitter, jitter)
		}
		pts = append(pts, f.Clamp(p))
	}
	return pts
}
