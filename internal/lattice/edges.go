package lattice

import (
	"math"

	"rdlroute/internal/geom"
)

// Edge-occupancy guard.
//
// Node marks (markDisk) guarantee clearance at lattice nodes, but the wire
// SEGMENT between two clear nodes can pass closer to a foreign shape than
// either endpoint does: the distance from a convex shape to a straight
// segment is convex along the segment, so its minimum may fall strictly
// between the nodes (corner cutting). On the standard grid (pitch 12, wire
// width 4) a 45° wire between two nodes that both clear a rectangle corner
// by 12 dips to 12/√2 ≈ 8.49 from it — clean at spacing 5 or 6, a real
// spacing violation at spacing 8. The same mechanism applies near wire
// elbows and via pads once spacing grows past the node-quantization slack.
//
// The guard closes the gap exactly: every marked shape, wire and via also
// claims the cell EDGES (the four swept segments a wire move can occupy:
// E, N and the two cell diagonals) whose wire polygon would violate DRC
// spacing against the item's polygon — the identical polygons and strict
// `dist < spacing` predicate the checker uses, so an edge is forbidden iff
// committing wire along it would produce a spacing/crossing violation.
// Ownership semantics mirror node marks: a net may use edges claimed only
// by itself; conflicting claims collapse to hard.
const (
	edgeE  = 0 // node(i,j) → node(i+1,j)
	edgeN  = 1 // node(i,j) → node(i,j+1)
	edgeNE = 2 // node(i,j) → node(i+1,j+1)
	edgeNW = 3 // node(i+1,j) → node(i,j+1)
)

// edgeSeg returns the swept segment of edge kind at cell (i, j).
func (la *Lattice) edgeSeg(kind, i, j int) geom.Segment {
	a := la.NodePoint(i, j)
	switch kind {
	case edgeE:
		return geom.Seg(a, la.NodePoint(i+1, j))
	case edgeN:
		return geom.Seg(a, la.NodePoint(i, j+1))
	case edgeNE:
		return geom.Seg(a, la.NodePoint(i+1, j+1))
	default: // edgeNW
		return geom.Seg(la.NodePoint(i+1, j), la.NodePoint(i, j+1))
	}
}

// ensureEdgeOcc allocates the edge-occupancy slabs on first use; lattices
// whose designs never produce an edge mark skip the allocation and the
// search's edge probe stays on its nil fast path.
func (la *Lattice) ensureEdgeOcc() {
	if la.edgeOcc[0] != nil {
		return
	}
	n := la.Layers * la.NX * la.NY
	for k := range la.edgeOcc {
		la.edgeOcc[k] = make([]int32, n)
	}
}

// claimEps is the margin the projection bounds in markEdgesPoly keep from
// the two thresholds they decide without the reference test: overlap
// (reference distance 0) and the spacing s. Gaps are measured on unit
// axes in layout units, where float error stays orders of magnitude below
// it (DESIGN.md §5, "Lattice edge claims").
const claimEps = 1e-6

// The two axis pairs of lattice edge polygons: E and N edges are
// axis-aligned rectangles, NE and NW edges diagonal ones.
var (
	orthoAxes = [2]geom.PointF{{X: 1}, {Y: 1}}
	diagAxes  = [2]geom.PointF{{X: 1 / geom.Sqrt2, Y: 1 / geom.Sqrt2}, {X: 1 / geom.Sqrt2, Y: -1 / geom.Sqrt2}}
)

// axisSpan is an item polygon's projection [lo, hi] onto the unit axis
// (ux, uy).
type axisSpan struct{ ux, uy, lo, hi float64 }

// appendAxes appends the separating axes for edges whose own axes are
// own: those two, then the unit normals of poly's edges. Zero-length
// edges and normals parallel to an axis already listed are skipped (u
// and −u bound the same gap). Each span carries poly's projection.
func appendAxes(dst []axisSpan, poly geom.ConvexPoly, own [2]geom.PointF) []axisSpan {
	dst = appendAxis(dst, poly, own[0].X, own[0].Y)
	dst = appendAxis(dst, poly, own[1].X, own[1].Y)
	for i := range poly {
		a, b := poly[i], poly[(i+1)%len(poly)]
		nx, ny := b.Y-a.Y, a.X-b.X
		if l := math.Hypot(nx, ny); l > 0 {
			dst = appendAxis(dst, poly, nx/l, ny/l)
		}
	}
	return dst
}

func appendAxis(dst []axisSpan, poly geom.ConvexPoly, ux, uy float64) []axisSpan {
	for _, a := range dst {
		if math.Abs(a.ux*uy-a.uy*ux) < 1e-9 {
			return dst
		}
	}
	lo, hi := projectPoly(poly, ux, uy)
	return append(dst, axisSpan{ux, uy, lo, hi})
}

// projectPoly returns the extent of p's projection onto (ux, uy). It
// compares directly where geom's projection calls math.Min and math.Max,
// since it runs for every candidate edge.
func projectPoly(p geom.ConvexPoly, ux, uy float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range p {
		d := v.X*ux + v.Y*uy
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	return lo, hi
}

// maxGap returns the largest gap between wp's projection and the item's
// span over axes, stopping once it reaches stop. A gap on any unit axis is
// a lower bound on the distance between the two polygons; a negative gap
// on every axis of the separating-axis set means they overlap.
func maxGap(axes []axisSpan, wp geom.ConvexPoly, stop float64) float64 {
	g := math.Inf(-1)
	for _, a := range axes {
		lo, hi := projectPoly(wp, a.ux, a.uy)
		if d := lo - a.hi; d > g {
			g = d
		}
		if d := a.lo - hi; d > g {
			g = d
		}
		if g >= stop {
			break
		}
	}
	return g
}

// markEdgesPoly claims every cell edge whose wire polygon would violate
// spacing against the item polygon (DRC's own predicate: strict <). bbox
// is the item's bounding box, used to window the scan.
//
// The reference predicate is poly.Dist(wp) < s. Projection bounds decide
// most edges exactly without it: an overlap beyond claimEps on every
// separating axis means distance 0 (claim), and a gap of s+claimEps on
// any unit axis means distance at least that (free). Only the band in
// between runs the reference.
func (la *Lattice) markEdgesPoly(layer int, poly geom.ConvexPoly, bbox geom.Rect, owner int32) {
	if len(poly) == 0 {
		return
	}
	s := float64(la.D.Rules.Spacing)
	halfW := float64(la.D.Rules.WireWidth) / 2
	// An edge can violate only when its centerline is within s+halfW of the
	// item; edges extend one pitch beyond their base cell.
	margin := int64(s+halfW) + 1
	i0 := int((bbox.X0 - margin - la.X0) / la.Pitch)
	i1 := int((bbox.X1+margin-la.X0)/la.Pitch) + 1
	j0 := int((bbox.Y0 - margin - la.Y0) / la.Pitch)
	j1 := int((bbox.Y1+margin-la.Y0)/la.Pitch) + 1
	i0, j0 = maxInt(i0-1, 0), maxInt(j0-1, 0)
	i1, j1 = minInt(i1, la.NX-1), minInt(j1, la.NY-1)
	// Bounding-box fast reject: the edge polygon lives within halfW of the
	// edge's own bbox, so a bbox gap of s+halfW or more cannot violate.
	px0, py0, px1, py1 := poly.BBoxF()
	reject := s + halfW
	// Octilinear items (every pad, obstacle, via and wire) add no axis
	// beyond x, y and the two diagonals, so four spans fit either list.
	var orthoBuf, diagBuf [4]axisSpan
	ortho := appendAxes(orthoBuf[:0], poly, orthoAxes)
	diag := appendAxes(diagBuf[:0], poly, diagAxes)
	var wbuf [4]geom.PointF
	n := la.NX * la.NY
	for j := j0; j <= j1; j++ {
		for i := i0; i <= i1; i++ {
			base := la.NodePoint(i, j)
			for kind := 0; kind < 4; kind++ {
				var ei, ej int
				switch kind {
				case edgeE:
					ei, ej = i+1, j
				case edgeN:
					ei, ej = i, j+1
				default:
					ei, ej = i+1, j+1
				}
				if ei >= la.NX || ej >= la.NY {
					continue
				}
				// Edge bbox: base node to base+pitch on the axes the kind
				// spans (edgeNW spans both, shifted to the same cell box).
				ex0, ey0 := float64(base.X), float64(base.Y)
				ex1, ey1 := ex0, ey0
				if kind != edgeN {
					ex1 += float64(la.Pitch)
				}
				if kind != edgeE {
					ey1 += float64(la.Pitch)
				}
				if px0-ex1 >= reject || ex0-px1 >= reject ||
					py0-ey1 >= reject || ey0-py1 >= reject {
					continue
				}
				la.edgeTests++
				wp := geom.AppendPolyFromSegment(wbuf[:0], la.edgeSeg(kind, i, j), halfW)
				axes := ortho
				if kind >= edgeNE {
					axes = diag
				}
				switch g := maxGap(axes, wp, s+claimEps); {
				case g < -claimEps: // overlap: the reference distance is 0
				case g >= s+claimEps: // clear of the item by more than s
					continue
				default: // within claimEps of a threshold
					la.edgeRefTests++
					if poly.Dist(wp) >= s {
						continue
					}
				}
				la.edgeClaims++
				la.ensureEdgeOcc()
				k := layer*n + la.idx(i, j)
				switch cur := la.edgeOcc[kind][k]; {
				case cur == owner:
				case cur == free:
					la.edgeOcc[kind][k] = owner
				default:
					la.edgeOcc[kind][k] = hard
				}
			}
		}
	}
}

// dirEdge maps a move direction id to the cell edge the move sweeps: the
// edge kind and the offset of the edge's base cell from the move's start
// node.
var dirEdge = [8]struct{ kind, di, dj int }{
	{edgeE, 0, 0}, {edgeNE, 0, 0}, {edgeN, 0, 0}, {edgeNW, -1, 0},
	{edgeE, -1, 0}, {edgeNE, -1, -1}, {edgeN, 0, -1}, {edgeNW, 0, -1},
}

// edgeOwnerAt returns the raw claim on the cell edge that a wire from node
// (i, j) in move direction nd sweeps, for OwnersOnPath.
func (la *Lattice) edgeOwnerAt(l, i, j, nd int) int32 {
	if la.edgeOcc[0] == nil {
		return free
	}
	e := dirEdge[nd]
	return la.edgeOcc[e.kind][la.nodeID(l, i+e.di, j+e.dj)]
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
