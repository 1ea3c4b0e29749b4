package geom

import "fmt"

// Oct8 is the paper's octagonal tile model: the intersection of eight
// half-planes with fixed orientations,
//
//	XLo ≤ x ≤ XHi
//	YLo ≤ y ≤ YHi
//	SLo ≤ x+y ≤ SHi   (the 135°-oriented cuts: NE and SW boundary edges)
//	DLo ≤ y−x ≤ DHi   (the 45°-oriented cuts:  NW and SE boundary edges)
//
// The orientation of each boundary edge is fixed but its length is not, so
// an Oct8 also represents every degeneration of an octagon the paper lists:
// rectangles, 45° trapezoids, triangles, segments and points.
type Oct8 struct {
	XLo, XHi int64
	YLo, YHi int64
	SLo, SHi int64 // bounds on x+y
	DLo, DHi int64 // bounds on y−x
}

// OctFromRect returns the Oct8 covering exactly the rectangle r (the
// diagonal constraints are set to the tightest values implied by r, so the
// result is canonical).
func OctFromRect(r Rect) Oct8 {
	return Oct8{
		XLo: r.X0, XHi: r.X1,
		YLo: r.Y0, YHi: r.Y1,
		SLo: r.X0 + r.Y0, SHi: r.X1 + r.Y1,
		DLo: r.Y0 - r.X1, DHi: r.Y1 - r.X0,
	}
}

// RegularOct returns an (approximately) regular octagon centered at c with
// bounding-box width w: the paper's via shape. The corner cut t is the
// nearest integer to w·(2−√2)/2, which makes the axis-aligned and diagonal
// sides equal up to rounding.
func RegularOct(c Point, w int64) Oct8 {
	h := w / 2
	// t = h(2−√2) ≈ 0.5857864·h, rounded to nearest integer.
	t := (h*58579 + 50000) / 100000
	o := Oct8{
		XLo: c.X - h, XHi: c.X + h,
		YLo: c.Y - h, YHi: c.Y + h,
		SLo: c.X + c.Y - (2*h - t), SHi: c.X + c.Y + (2*h - t),
		DLo: c.Y - c.X - (2*h - t), DHi: c.Y - c.X + (2*h - t),
	}
	return o.Canonical()
}

// String implements fmt.Stringer.
func (o Oct8) String() string {
	return fmt.Sprintf("oct{x:[%d,%d] y:[%d,%d] s:[%d,%d] d:[%d,%d]}",
		o.XLo, o.XHi, o.YLo, o.YHi, o.SLo, o.SHi, o.DLo, o.DHi)
}

// Empty reports whether the region contains no integer or real point.
// It canonicalizes first, so redundant-looking bounds do not cause false
// positives.
func (o Oct8) Empty() bool { return o.Canonical().inverted() }

// inverted reports whether some lower bound of o exceeds its upper bound.
// On a canonical region that is exactly Empty.
func (o Oct8) inverted() bool {
	return o.XLo > o.XHi || o.YLo > o.YHi || o.SLo > o.SHi || o.DLo > o.DHi
}

// Contains reports whether p satisfies all eight half-plane constraints.
func (o Oct8) Contains(p Point) bool {
	return p.X >= o.XLo && p.X <= o.XHi &&
		p.Y >= o.YLo && p.Y <= o.YHi &&
		p.X+p.Y >= o.SLo && p.X+p.Y <= o.SHi &&
		p.Y-p.X >= o.DLo && p.Y-p.X <= o.DHi
}

// Canonical returns the tightest equivalent bounds: each of the eight
// constraints is reduced to the minimum implied by the other six that
// interact with it. Tightening is run to a fixed point; for this constraint
// family two passes suffice, a third pass is done defensively.
func (o Oct8) Canonical() Oct8 {
	c := o
	for i := 0; i < 3; i++ {
		prev := c
		// x from s,d: x = (s − d… ) relations: x+y≥SLo & y≤YHi ⇒ x ≥ SLo−YHi.
		c.XLo = Max64(c.XLo, c.SLo-c.YHi)
		c.XLo = Max64(c.XLo, c.YLo-c.DHi) // y−x≤DHi & y≥YLo ⇒ x ≥ YLo−DHi
		c.XHi = Min64(c.XHi, c.SHi-c.YLo)
		c.XHi = Min64(c.XHi, c.YHi-c.DLo)
		c.YLo = Max64(c.YLo, c.SLo-c.XHi)
		c.YLo = Max64(c.YLo, c.DLo+c.XLo)
		c.YHi = Min64(c.YHi, c.SHi-c.XLo)
		c.YHi = Min64(c.YHi, c.DHi+c.XHi)
		c.SLo = Max64(c.SLo, c.XLo+c.YLo)
		c.SHi = Min64(c.SHi, c.XHi+c.YHi)
		c.DLo = Max64(c.DLo, c.YLo-c.XHi)
		c.DHi = Min64(c.DHi, c.YHi-c.XLo)
		if c == prev {
			break
		}
	}
	return c
}

// BBox returns the bounding rectangle of the canonical region.
func (o Oct8) BBox() Rect {
	c := o.Canonical()
	return Rect{c.XLo, c.YLo, c.XHi, c.YHi}
}

// Shrink insets every boundary edge of o by d (d in DBU for the axis
// constraints; the diagonal constraints move by the amount that keeps the
// inset uniform in Euclidean distance, i.e. d·√2 rounded up on x±y).
func (o Oct8) Shrink(d int64) Oct8 {
	ds := (d*141422 + 99999) / 100000 // ceil(d·√2)
	return Oct8{
		XLo: o.XLo + d, XHi: o.XHi - d,
		YLo: o.YLo + d, YHi: o.YHi - d,
		SLo: o.SLo + ds, SHi: o.SHi - ds,
		DLo: o.DLo + ds, DHi: o.DHi - ds,
	}
}

// Grow outsets every boundary edge of o by d, the inverse of Shrink up to
// diagonal rounding.
func (o Oct8) Grow(d int64) Oct8 {
	ds := (d*141422 + 99999) / 100000
	return Oct8{
		XLo: o.XLo - d, XHi: o.XHi + d,
		YLo: o.YLo - d, YHi: o.YHi + d,
		SLo: o.SLo - ds, SHi: o.SHi + ds,
		DLo: o.DLo - ds, DHi: o.DHi + ds,
	}
}

// IntersectOct returns the intersection of two Oct8 regions (the family is
// closed under intersection).
func (o Oct8) IntersectOct(q Oct8) Oct8 {
	return Oct8{
		XLo: Max64(o.XLo, q.XLo), XHi: Min64(o.XHi, q.XHi),
		YLo: Max64(o.YLo, q.YLo), YHi: Min64(o.YHi, q.YHi),
		SLo: Max64(o.SLo, q.SLo), SHi: Min64(o.SHi, q.SHi),
		DLo: Max64(o.DLo, q.DLo), DHi: Min64(o.DHi, q.DHi),
	}
}

// Intersects reports whether the two regions share at least one real point.
func (o Oct8) Intersects(q Oct8) bool { return !o.IntersectOct(q).Empty() }

// Vertices returns the polygon vertices of the canonical region in
// counter-clockwise order, with consecutive duplicates (degenerate edges)
// removed. Vertices may have half-integer coordinates where a diagonal cut
// meets an axis bound, hence the float result. The result has 3..8 vertices
// for a 2D region, fewer for degenerate segments/points.
func (o Oct8) Vertices() []PointF {
	c := o.Canonical()
	if c.inverted() {
		return nil
	}
	// Walk the eight boundary lines in CCW order starting at the south edge
	// (y = YLo): S, SE(y−x=DLo), E(x=XHi), NE(x+y=SHi), N(y=YHi),
	// NW(y−x=DHi), W(x=XLo), SW(x+y=SLo). Consecutive boundary lines meet at
	// the candidate vertices.
	type hp struct {
		o Orient
		c int64
	}
	bounds := []hp{
		{OrientH, c.YLo},    // S
		{OrientD45, c.DLo},  // SE cut
		{OrientV, c.XHi},    // E
		{OrientD135, c.SHi}, // NE cut
		{OrientH, c.YHi},    // N
		{OrientD45, c.DHi},  // NW cut
		{OrientV, c.XLo},    // W
		{OrientD135, c.SLo}, // SW cut
	}
	var verts []PointF
	for i := range bounds {
		j := (i + 1) % len(bounds)
		p, ok := LineIntersection(bounds[i].o, bounds[i].c, bounds[j].o, bounds[j].c)
		if !ok {
			continue
		}
		// Keep only vertices on the region (within a small tolerance for
		// the half-integer diagonal meets).
		if !containsF(c, p, 1e-9) {
			continue
		}
		if n := len(verts); n > 0 && EuclidF(verts[n-1], p) < 1e-9 {
			continue
		}
		verts = append(verts, p)
	}
	if n := len(verts); n > 1 && EuclidF(verts[0], verts[n-1]) < 1e-9 {
		verts = verts[:n-1]
	}
	return verts
}

func containsF(o Oct8, p PointF, eps float64) bool {
	return p.X >= float64(o.XLo)-eps && p.X <= float64(o.XHi)+eps &&
		p.Y >= float64(o.YLo)-eps && p.Y <= float64(o.YHi)+eps &&
		p.X+p.Y >= float64(o.SLo)-eps && p.X+p.Y <= float64(o.SHi)+eps &&
		p.Y-p.X >= float64(o.DLo)-eps && p.Y-p.X <= float64(o.DHi)+eps
}

// Area returns the area of the region via the shoelace formula on its
// vertices.
func (o Oct8) Area() float64 {
	v := o.Vertices()
	if len(v) < 3 {
		return 0
	}
	sum := 0.0
	for i := range v {
		j := (i + 1) % len(v)
		sum += v[i].X*v[j].Y - v[j].X*v[i].Y
	}
	if sum < 0 {
		sum = -sum
	}
	return sum / 2
}

// Center returns the centroid of the region's bounding box restricted to
// the region when possible; for degenerate regions it returns any
// contained point.
func (o Oct8) Center() Point {
	c := o.Canonical()
	p := Point{(c.XLo + c.XHi) / 2, (c.YLo + c.YHi) / 2}
	if c.Contains(p) {
		return p
	}
	// Clamp p into the diagonal bands.
	s := p.X + p.Y
	if s < c.SLo {
		d := c.SLo - s
		p.X += (d + 1) / 2
		p.Y += d / 2
	} else if s > c.SHi {
		d := s - c.SHi
		p.X -= (d + 1) / 2
		p.Y -= d / 2
	}
	dd := p.Y - p.X
	if dd < c.DLo {
		d := c.DLo - dd
		p.Y += (d + 1) / 2
		p.X -= d / 2
	} else if dd > c.DHi {
		d := dd - c.DHi
		p.Y -= (d + 1) / 2
		p.X += d / 2
	}
	if c.Contains(p) {
		return p
	}
	// Exact contained-integer-point search. A column x holds an integer
	// point iff ylo(x) = max(YLo, SLo−x, DLo+x) ≤ yhi(x) = min(YHi,
	// SHi−x, DHi+x); expanding the nine pairwise combinations (the three
	// x-free ones hold for any non-empty canonical region) shows the
	// feasible columns are exactly the interval below. The earlier
	// truncated-vertex fallback could return a point outside the region
	// when a half-integer vertex was the only candidate.
	xlo := Max64(Max64(c.XLo, c.YLo-c.DHi), Max64(c.SLo-c.YHi, ceilHalf(c.SLo-c.DHi)))
	xhi := Min64(Min64(c.XHi, c.YHi-c.DLo), Min64(c.SHi-c.YLo, floorHalf(c.SHi-c.DLo)))
	if xlo <= xhi {
		x := clamp64((c.XLo+c.XHi)/2, xlo, xhi)
		ylo := Max64(c.YLo, Max64(c.SLo-x, c.DLo+x))
		yhi := Min64(c.YHi, Min64(c.SHi-x, c.DHi+x))
		return Point{x, clamp64((c.YLo+c.YHi)/2, ylo, yhi)}
	}
	// No integer point exists (e.g. a sub-unit diagonal sliver); best
	// effort for callers that only need a nearby anchor.
	v := c.Vertices()
	if len(v) > 0 {
		return Point{int64(v[0].X), int64(v[0].Y)}
	}
	return Point{c.XLo, c.YLo}
}

// floorHalf and ceilHalf are floor(v/2) and ceil(v/2), exact for negative
// v (Go's / truncates toward zero).
func floorHalf(v int64) int64 { return v >> 1 }
func ceilHalf(v int64) int64  { return (v + 1) >> 1 }

func clamp64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Poly returns the region as a convex polygon for distance computations.
func (o Oct8) Poly() ConvexPoly { return ConvexPoly(o.Vertices()) }

// OctAroundSegment returns the smallest Oct8 containing every point within
// Euclidean distance r of the octilinear segment s: the Minkowski sum of s
// with the regular octagon of inradius r (diagonal cuts at r·√2, rounded
// up). Exact for H, V and diagonal segments.
func OctAroundSegment(s Segment, r int64) Oct8 {
	rd := (r*141422 + 99999) / 100000 // ceil(r·√2)
	sA, sB := s.A.X+s.A.Y, s.B.X+s.B.Y
	dA, dB := s.A.Y-s.A.X, s.B.Y-s.B.X
	return Oct8{
		XLo: Min64(s.A.X, s.B.X) - r, XHi: Max64(s.A.X, s.B.X) + r,
		YLo: Min64(s.A.Y, s.B.Y) - r, YHi: Max64(s.A.Y, s.B.Y) + r,
		SLo: Min64(sA, sB) - rd, SHi: Max64(sA, sB) + rd,
		DLo: Min64(dA, dB) - rd, DHi: Max64(dA, dB) + rd,
	}
}

// SubtractOct returns o \ b as a set of disjoint Oct8 pieces, by peeling
// one half-plane of b at a time. The pieces tile o minus b exactly.
func (o Oct8) SubtractOct(b Oct8) []Oct8 { return o.AppendSubtractOct(nil, b) }

// AppendSubtractOct appends the pieces of o \ b to dst and returns the
// extended slice: o itself when it misses b (nothing when o is empty),
// else one canonical non-empty piece per half-plane of b that cuts o. The
// half-planes are peeled in the order x ≥ XLo, x ≤ XHi, y ≥ YLo, y ≤ YHi,
// x+y ≥ SLo, x+y ≤ SHi, y−x ≥ DLo, y−x ≤ DHi: each emits the part of the
// remainder outside it (integer complement: outside x ≥ lo is x ≤ lo−1)
// and keeps the part inside, until the remainder is empty. It allocates
// only when dst must grow.
func (o Oct8) AppendSubtractOct(dst []Oct8, b Oct8) []Oct8 {
	if !o.Intersects(b) {
		if o.Empty() {
			return dst
		}
		return append(dst, o)
	}
	b = b.Canonical()
	rem := o
	for cut := 0; cut < 8; cut++ {
		out := rem
		switch cut {
		case 0:
			out.XHi = Min64(out.XHi, b.XLo-1)
			rem.XLo = Max64(rem.XLo, b.XLo)
		case 1:
			out.XLo = Max64(out.XLo, b.XHi+1)
			rem.XHi = Min64(rem.XHi, b.XHi)
		case 2:
			out.YHi = Min64(out.YHi, b.YLo-1)
			rem.YLo = Max64(rem.YLo, b.YLo)
		case 3:
			out.YLo = Max64(out.YLo, b.YHi+1)
			rem.YHi = Min64(rem.YHi, b.YHi)
		case 4:
			out.SHi = Min64(out.SHi, b.SLo-1)
			rem.SLo = Max64(rem.SLo, b.SLo)
		case 5:
			out.SLo = Max64(out.SLo, b.SHi+1)
			rem.SHi = Min64(rem.SHi, b.SHi)
		case 6:
			out.DHi = Min64(out.DHi, b.DLo-1)
			rem.DLo = Max64(rem.DLo, b.DLo)
		case 7:
			out.DLo = Max64(out.DLo, b.DHi+1)
			rem.DHi = Min64(rem.DHi, b.DHi)
		}
		if piece := out.Canonical(); !piece.inverted() {
			dst = append(dst, piece)
		}
		if rem.Empty() {
			break
		}
	}
	return dst
}
