package geom

import "math"

// ConvexPoly is a convex polygon with vertices in counter-clockwise order.
// A polygon with one vertex is a point; with two, a segment. It is the
// common currency for spacing (DRC) computations between heterogeneous
// shapes: pads, vias, obstacles, and width-expanded wire segments.
type ConvexPoly []PointF

// PolyFromRect converts a rectangle.
func PolyFromRect(r Rect) ConvexPoly {
	if r.Empty() {
		return nil
	}
	c := r.Corners()
	return ConvexPoly{c[0].F(), c[1].F(), c[2].F(), c[3].F()}
}

// PolyFromSegment returns the convex outline of an octilinear wire segment
// with the given total width: the Minkowski sum of the segment with a
// square (for H/V wires) or a 45°-rotated square (for diagonal wires) of
// half-diagonal halfW, which matches manufactured X-architecture wire
// outlines with flat caps.
func PolyFromSegment(s Segment, halfW float64) ConvexPoly {
	return AppendPolyFromSegment(nil, s, halfW)
}

// AppendPolyFromSegment appends the PolyFromSegment outline of s to dst
// and returns the extended polygon. Passing a zero-length slice of a local
// array builds the outline without allocating.
func AppendPolyFromSegment(dst ConvexPoly, s Segment, halfW float64) ConvexPoly {
	a, b := s.A.F(), s.B.F()
	o := s.Orient()
	switch o {
	case OrientH:
		if a.X > b.X {
			a, b = b, a
		}
		return append(dst,
			PointF{a.X, a.Y - halfW}, PointF{b.X, b.Y - halfW},
			PointF{b.X, b.Y + halfW}, PointF{a.X, a.Y + halfW})
	case OrientV:
		if a.Y > b.Y {
			a, b = b, a
		}
		return append(dst,
			PointF{a.X + halfW, a.Y}, PointF{b.X + halfW, b.Y},
			PointF{b.X - halfW, b.Y}, PointF{a.X - halfW, a.Y})
	case OrientD45, OrientD135:
		// Perpendicular offset of halfW for a diagonal: (±h/√2, ∓h/√2).
		h := halfW / Sqrt2
		var n PointF
		if o == OrientD45 {
			n = PointF{h, -h}
		} else {
			n = PointF{h, h}
		}
		k := len(dst)
		dst = append(dst, a.Sub(n), b.Sub(n), b.Add(n), a.Add(n))
		ensureCCW(dst[k:])
		return dst
	default:
		if s.Degenerate() {
			// A point expanded to a square.
			return append(dst,
				PointF{a.X - halfW, a.Y - halfW}, PointF{a.X + halfW, a.Y - halfW},
				PointF{a.X + halfW, a.Y + halfW}, PointF{a.X - halfW, a.Y + halfW})
		}
		// Non-octilinear fallback: rectangle around the segment direction.
		d := b.Sub(a)
		l := math.Hypot(d.X, d.Y)
		n := PointF{-d.Y / l * halfW, d.X / l * halfW}
		k := len(dst)
		dst = append(dst, a.Sub(n), b.Sub(n), b.Add(n), a.Add(n))
		ensureCCW(dst[k:])
		return dst
	}
}

// ensureCCW reverses the vertex order in place when the polygon's signed
// area is negative (clockwise winding).
func ensureCCW(p ConvexPoly) {
	sum := 0.0
	for i := range p {
		j := (i + 1) % len(p)
		sum += p[i].X*p[j].Y - p[j].X*p[i].Y
	}
	if sum < 0 {
		for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
			p[i], p[j] = p[j], p[i]
		}
	}
}

// BBoxF returns the float bounding box of the polygon as (x0,y0,x1,y1).
func (p ConvexPoly) BBoxF() (x0, y0, x1, y1 float64) {
	if len(p) == 0 {
		return 0, 0, -1, -1
	}
	x0, y0 = p[0].X, p[0].Y
	x1, y1 = x0, y0
	for _, v := range p[1:] {
		x0 = math.Min(x0, v.X)
		y0 = math.Min(y0, v.Y)
		x1 = math.Max(x1, v.X)
		y1 = math.Max(y1, v.Y)
	}
	return
}

// Overlaps reports whether two convex polygons share interior area, by the
// separating-axis theorem over the edge normals of both polygons.
func (p ConvexPoly) Overlaps(q ConvexPoly) bool {
	if len(p) == 0 || len(q) == 0 {
		return false
	}
	return !hasSeparatingAxis(p, q) && !hasSeparatingAxis(q, p)
}

func hasSeparatingAxis(p, q ConvexPoly) bool {
	n := len(p)
	for i := 0; i < n; i++ {
		a := p[i]
		b := p[(i+1)%n]
		// Outward normal of CCW edge a→b is (dy, −dx) rotated: (b−a) ⊥.
		nx := b.Y - a.Y
		ny := a.X - b.X
		if nx == 0 && ny == 0 {
			continue
		}
		pMin, pMax := project(p, nx, ny)
		qMin, qMax := project(q, nx, ny)
		const eps = 1e-9
		if pMax <= qMin+eps || qMax <= pMin+eps {
			return true
		}
	}
	if n == 1 {
		// A point has no edges; check containment via q's axes only
		// (handled by the caller's symmetric call).
		return false
	}
	return false
}

func project(p ConvexPoly, nx, ny float64) (lo, hi float64) {
	lo = math.Inf(1)
	hi = math.Inf(-1)
	for _, v := range p {
		d := v.X*nx + v.Y*ny
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
	}
	return
}

// Dist returns the minimum Euclidean distance between the two convex
// polygons; 0 when they overlap or touch.
func (p ConvexPoly) Dist(q ConvexPoly) float64 {
	if len(p) == 0 || len(q) == 0 {
		return math.Inf(1)
	}
	if p.Overlaps(q) {
		return 0
	}
	best := math.Inf(1)
	np, nq := len(p), len(q)
	for i := 0; i < np; i++ {
		a := p[i]
		b := p[(i+1)%np]
		for j := 0; j < nq; j++ {
			c := q[j]
			d := q[(j+1)%nq]
			best = math.Min(best, segSegDistF(a, b, c, d))
		}
	}
	return best
}

func segSegDistF(a, b, c, d PointF) float64 {
	v := math.Min(pointSegDistF(a, c, d), pointSegDistF(b, c, d))
	v = math.Min(v, pointSegDistF(c, a, b))
	v = math.Min(v, pointSegDistF(d, a, b))
	return v
}

// ContainsF reports whether point r lies inside or on the polygon.
func (p ConvexPoly) ContainsF(r PointF) bool {
	n := len(p)
	if n == 0 {
		return false
	}
	if n == 1 {
		return EuclidF(p[0], r) < 1e-9
	}
	for i := 0; i < n; i++ {
		a := p[i]
		b := p[(i+1)%n]
		cr := (b.X-a.X)*(r.Y-a.Y) - (b.Y-a.Y)*(r.X-a.X)
		if cr < -1e-9 {
			return false
		}
	}
	return true
}
