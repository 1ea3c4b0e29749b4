// Package lattice implements the detailed-routing engine underneath both
// routing stages: a per-wire-layer X-architecture track lattice with exact
// clearance bookkeeping. Wires run between lattice nodes in the eight
// compass directions (H, V, 45°, 135°), vias sit on lattice nodes, and the
// occupancy model guarantees that any route accepted by the search is
// DRC-clean by construction:
//
//   - wire↔wire: centerlines of different nets stay ≥ wireWidth+spacing
//     apart, so edge-to-edge gaps are ≥ spacing and crossings are
//     impossible (any crossing of lattice-aligned octilinear segments
//     passes within that radius of an endpoint node);
//   - wire↔via, via↔via, and shapes from the design (pads, obstacles) get
//     analogous clearance radii.
//
// The node pitch must be ≥ wireWidth+spacing; the design generator aligns
// pad centers to the lattice so pads are directly reachable.
package lattice

import (
	"fmt"
	"math"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
	"rdlroute/internal/obs"
)

// Owner encoding inside occupancy slabs.
const (
	free = int32(0)
	hard = int32(-1) // obstacle or netless shape: blocks everyone
	// positive values are net index + 1
)

// Lattice is the multi-layer routing lattice for one design.
type Lattice struct {
	D      *design.Design
	Pitch  int64
	X0, Y0 int64
	NX, NY int
	Layers int // number of wire layers

	// wireOcc[l*NX*NY + j*NX + i]: who owns the wire space at the node.
	wireOcc []int32
	// viaOcc[s*NX*NY + ...]: who owns via space on slab s (between wire
	// layers s and s+1); Layers−1 slabs.
	viaOcc []int32
	// edgeOcc[kind][l*NX*NY + j*NX + i]: who owns the swept wire segment of
	// cell edge kind (E, N, NE, NW) based at node (i, j) — the corner-cut
	// guard (see edges.go). Allocated lazily on the first mark.
	edgeOcc [4][]int32

	// Derived clearance radii (float comparisons, strict <).
	rWireWire float64 // foreign wire centerline to node
	rWireVia  float64 // foreign via center to wire node (and vice versa)
	rViaVia   float64 // foreign via center to via node
	rShapeW   float64 // design shape edge to wire node
	rShapeV   float64 // design shape edge to via node

	search *searchState

	// tr, when non-nil, receives per-search effort metrics
	// (astar.expanded / astar.visited observations and search counters).
	tr obs.Tracer

	// Edge-claim effort since the last FlushTrace: candidate edges past
	// markEdgesPoly's bounding-box reject, the ones left to the reference
	// distance test, and claims.
	edgeTests, edgeRefTests, edgeClaims int64
}

// SetTracer attaches an observability tracer to the lattice. Disabled
// tracers are dropped so the search never pays for them.
func (la *Lattice) SetTracer(t obs.Tracer) {
	if t != nil && t.Enabled() {
		la.tr = t
	} else {
		la.tr = nil
	}
}

// FlushTrace emits the edge-claim counters accumulated since the last
// flush — lattice.edge_tests, lattice.edge_ref_tests and
// lattice.edge_claims — to the attached tracer, then resets them. The
// router calls it once per route, at the end of stage 4.
func (la *Lattice) FlushTrace() {
	if la.tr != nil {
		la.tr.Count("lattice.edge_tests", la.edgeTests)
		la.tr.Count("lattice.edge_ref_tests", la.edgeRefTests)
		la.tr.Count("lattice.edge_claims", la.edgeClaims)
	}
	la.edgeTests, la.edgeRefTests, la.edgeClaims = 0, 0, 0
}

// New builds a lattice over the design outline and pre-blocks design
// shapes (obstacles on their layers, I/O pads on the top layer, bump pads
// on the bottom layer). Pads referenced by nets are owned by those nets;
// unreferenced pads block everyone.
func New(d *design.Design, pitch int64) (*Lattice, error) {
	if pitch < d.Rules.WireWidth+d.Rules.Spacing {
		return nil, fmt.Errorf("lattice: pitch %d below wire pitch %d",
			pitch, d.Rules.WireWidth+d.Rules.Spacing)
	}
	nx := int((d.Outline.W())/pitch) + 1
	ny := int((d.Outline.H())/pitch) + 1
	if s := stateSpace(d.WireLayers, nx, ny); s > math.MaxInt32 {
		return nil, fmt.Errorf(
			"lattice: %d layers × %d×%d nodes needs %d search states, beyond the int32 id space (%d); use a coarser pitch",
			d.WireLayers, nx, ny, s, math.MaxInt32)
	}
	la := &Lattice{
		D: d, Pitch: pitch,
		X0: d.Outline.X0, Y0: d.Outline.Y0,
		NX: nx, NY: ny, Layers: d.WireLayers,
	}
	la.wireOcc = make([]int32, la.Layers*nx*ny)
	if la.Layers > 1 {
		la.viaOcc = make([]int32, (la.Layers-1)*nx*ny)
	}
	r := d.Rules
	la.rWireWire = float64(r.WireWidth + r.Spacing)
	la.rWireVia = float64(r.Spacing + r.WireWidth/2 + r.ViaWidth/2)
	la.rViaVia = float64(r.ViaWidth + r.Spacing)
	la.rShapeW = float64(r.Spacing + r.WireWidth/2)
	la.rShapeV = float64(r.Spacing + r.ViaWidth/2)

	// Owners of pads: net index per pad, or −1.
	ioOwner := make([]int32, len(d.IOPads))
	bumpOwner := make([]int32, len(d.BumpPads))
	for i := range ioOwner {
		ioOwner[i] = hard
	}
	for i := range bumpOwner {
		bumpOwner[i] = hard
	}
	for ni, n := range d.Nets {
		for _, ref := range []design.PadRef{n.P1, n.P2} {
			if ref.Kind == design.IOKind {
				ioOwner[ref.Index] = int32(ni) + 1
			} else {
				bumpOwner[ref.Index] = int32(ni) + 1
			}
		}
	}

	for _, o := range d.Obstacles {
		la.blockRect(o.Layer, o.Box, hard)
		la.markEdgesPoly(o.Layer, geom.PolyFromRect(o.Box), o.Box, hard)
	}
	for pi, p := range d.IOPads {
		la.blockRect(0, p.Box(), ioOwner[pi])
		la.markEdgesPoly(0, geom.PolyFromRect(p.Box()), p.Box(), ioOwner[pi])
	}
	for pi, p := range d.BumpPads {
		oct := p.Oct()
		la.blockRect(la.Layers-1, oct.BBox(), bumpOwner[pi])
		la.markEdgesPoly(la.Layers-1, oct.Poly(), oct.BBox(), bumpOwner[pi])
	}
	for _, v := range d.FixedVias {
		owner := hard
		if v.Net >= 0 {
			owner = int32(v.Net) + 1
		}
		la.blockVia(v.Slab, v.Center, owner)
	}
	return la, nil
}

// stateSpace is the number of A* states the lattice would need: 9
// directional states per node. stateID packs a state into an int32, so New
// rejects lattices whose state space exceeds math.MaxInt32 — beyond that
// the packing silently wraps and the search corrupts its buffers.
func stateSpace(layers, nx, ny int) int64 {
	return int64(layers) * int64(nx) * int64(ny) * 9
}

// Fingerprint hashes the occupancy state (wire and via ownership of every
// node). Two lattices over the same design agree iff the same set of
// commits was applied — markDisk is commutative (same-owner marks are
// idempotent and conflicting marks collapse to hard regardless of order),
// so commit order does not matter.
func (la *Lattice) Fingerprint() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(occ []int32) {
		for _, v := range occ {
			h ^= uint64(uint32(v))
			h *= prime
		}
	}
	mix(la.wireOcc)
	mix(la.viaOcc)
	for _, e := range la.edgeOcc {
		mix(e)
	}
	return h
}

// blockVia blocks wire and via space around a pre-assigned via.
func (la *Lattice) blockVia(s int, p geom.Point, owner int32) {
	bbox := geom.RectOf(p, p)
	dist := func(q geom.Point) float64 { return geom.Euclid(p, q) }
	for _, l := range []int{s, s + 1} {
		la.markDisk(la.wireOcc, l, bbox, la.rWireVia, dist, owner)
	}
	for _, slab := range []int{s - 1, s, s + 1} {
		if slab >= 0 && slab < la.Layers-1 {
			la.markDisk(la.viaOcc, slab, bbox, la.rViaVia, dist, owner)
		}
	}
	la.markViaEdges(s, p, owner)
}

// markViaEdges claims the cell edges too close to a via's landing pad on
// the two wire layers it joins, using the checker's octagonal via shape.
func (la *Lattice) markViaEdges(s int, p geom.Point, owner int32) {
	oct := geom.RegularOct(p, la.D.Rules.ViaWidth)
	poly := oct.Poly()
	bbox := oct.BBox()
	for _, l := range []int{s, s + 1} {
		la.markEdgesPoly(l, poly, bbox, owner)
	}
}

// idx returns the slab-relative node index.
func (la *Lattice) idx(i, j int) int { return j*la.NX + i }

// NodePoint returns the coordinates of node (i, j).
func (la *Lattice) NodePoint(i, j int) geom.Point {
	return geom.Pt(la.X0+int64(i)*la.Pitch, la.Y0+int64(j)*la.Pitch)
}

// NodeAt returns the lattice indices of p when p lies exactly on a node.
func (la *Lattice) NodeAt(p geom.Point) (i, j int, ok bool) {
	dx := p.X - la.X0
	dy := p.Y - la.Y0
	if dx < 0 || dy < 0 || dx%la.Pitch != 0 || dy%la.Pitch != 0 {
		return 0, 0, false
	}
	i = int(dx / la.Pitch)
	j = int(dy / la.Pitch)
	if i >= la.NX || j >= la.NY {
		return 0, 0, false
	}
	return i, j, true
}

// Snap returns the nearest lattice node indices for p (clamped to range).
func (la *Lattice) Snap(p geom.Point) (i, j int) {
	i = int((p.X - la.X0 + la.Pitch/2) / la.Pitch)
	j = int((p.Y - la.Y0 + la.Pitch/2) / la.Pitch)
	if i < 0 {
		i = 0
	}
	if j < 0 {
		j = 0
	}
	if i >= la.NX {
		i = la.NX - 1
	}
	if j >= la.NY {
		j = la.NY - 1
	}
	return
}

// passable reports whether the wire node is usable by net (owner encoding).
func passableFor(owner int32, net int) bool {
	return owner == free || owner == int32(net)+1
}

// WireFree reports whether net may put a wire on node (i,j) of layer l.
func (la *Lattice) WireFree(l, i, j int, net int) bool {
	return passableFor(la.wireOcc[l*la.NX*la.NY+la.idx(i, j)], net)
}

// ViaFree reports whether net may put a via on slab s (layers s↔s+1) at
// node (i,j). The via also needs the wire space on both layers.
func (la *Lattice) ViaFree(s, i, j int, net int) bool {
	n := la.NX * la.NY
	return passableFor(la.viaOcc[s*n+la.idx(i, j)], net) &&
		passableFor(la.wireOcc[s*n+la.idx(i, j)], net) &&
		passableFor(la.wireOcc[(s+1)*n+la.idx(i, j)], net)
}

// markDisk sets owner on every node of the slab within radius of the
// point/segment distance function, unless already claimed. Hard blocks
// override net owners; net owners never override other nets (first
// committed wins, which is correct: the search only accepts clear nodes).
func (la *Lattice) markDisk(occ []int32, slab int, bbox geom.Rect, radius float64, dist func(geom.Point) float64, owner int32) {
	n := la.NX * la.NY
	i0 := int(math.Floor(float64(bbox.X0-la.X0)/float64(la.Pitch) - radius/float64(la.Pitch)))
	i1 := int(math.Ceil(float64(bbox.X1-la.X0)/float64(la.Pitch) + radius/float64(la.Pitch)))
	j0 := int(math.Floor(float64(bbox.Y0-la.Y0)/float64(la.Pitch) - radius/float64(la.Pitch)))
	j1 := int(math.Ceil(float64(bbox.Y1-la.Y0)/float64(la.Pitch) + radius/float64(la.Pitch)))
	if i0 < 0 {
		i0 = 0
	}
	if j0 < 0 {
		j0 = 0
	}
	if i1 >= la.NX {
		i1 = la.NX - 1
	}
	if j1 >= la.NY {
		j1 = la.NY - 1
	}
	for j := j0; j <= j1; j++ {
		for i := i0; i <= i1; i++ {
			if dist(la.NodePoint(i, j)) >= radius {
				continue
			}
			k := slab*n + la.idx(i, j)
			switch cur := occ[k]; {
			case cur == owner:
				// already claimed by the same owner
			case cur == free:
				occ[k] = owner
			default:
				// Claimed by a different net (or hard): nobody may use a
				// node inside two different clearance disks.
				occ[k] = hard
			}
		}
	}
}

// blockRect blocks wire and via space around a design rectangle.
func (la *Lattice) blockRect(layer int, box geom.Rect, owner int32) {
	dist := func(p geom.Point) float64 { return box.DistToPoint(p) }
	la.markDisk(la.wireOcc, layer, box, la.rShapeW, dist, owner)
	// Vias landing on this layer come from slabs layer−1 and layer.
	for _, s := range []int{layer - 1, layer} {
		if s >= 0 && s < la.Layers-1 {
			la.markDisk(la.viaOcc, s, box, la.rShapeV, dist, owner)
		}
	}
}

// commitWire blocks space around a committed wire segment of the net.
func (la *Lattice) commitWire(layer int, seg geom.Segment, net int) {
	owner := int32(net) + 1
	bbox := seg.BBox()
	dist := func(p geom.Point) float64 { return geom.PointSegDist(p, seg) }
	la.markDisk(la.wireOcc, layer, bbox, la.rWireWire, dist, owner)
	for _, s := range []int{layer - 1, layer} {
		if s >= 0 && s < la.Layers-1 {
			la.markDisk(la.viaOcc, s, bbox, la.rWireVia, dist, owner)
		}
	}
	halfW := float64(la.D.Rules.WireWidth) / 2
	la.markEdgesPoly(layer, geom.PolyFromSegment(seg, halfW), bbox, owner)
}

// commitVia blocks space around a committed via on slab s at point p.
func (la *Lattice) commitVia(s int, p geom.Point, net int) {
	owner := int32(net) + 1
	bbox := geom.RectOf(p, p)
	dist := func(q geom.Point) float64 { return geom.Euclid(p, q) }
	for _, l := range []int{s, s + 1} {
		la.markDisk(la.wireOcc, l, bbox, la.rWireVia, dist, owner)
	}
	for _, slab := range []int{s - 1, s, s + 1} {
		if slab >= 0 && slab < la.Layers-1 {
			la.markDisk(la.viaOcc, slab, bbox, la.rViaVia, dist, owner)
		}
	}
	la.markViaEdges(s, p, owner)
}

// PathStep is one node of a routed path.
type PathStep struct {
	Layer int
	Pt    geom.Point
}

// Commit records a search result: wires between consecutive same-layer
// steps and vias at layer changes.
func (la *Lattice) Commit(path []PathStep, net int) {
	for k := 0; k+1 < len(path); k++ {
		a, b := path[k], path[k+1]
		if a.Layer == b.Layer {
			if !a.Pt.Eq(b.Pt) {
				la.commitWire(a.Layer, geom.Seg(a.Pt, b.Pt), net)
			}
			continue
		}
		s := a.Layer
		if b.Layer < s {
			s = b.Layer
		}
		la.commitVia(s, a.Pt, net)
	}
}

// CommitViaAt records a standalone via (e.g. a pad stack element).
func (la *Lattice) CommitViaAt(slab int, p geom.Point, net int) {
	la.commitVia(slab, p, net)
}

// OwnersOnPath returns the foreign nets whose claims a path would collide
// with: the owners of wire/via space at the path's nodes. Used by rip-up
// planning after a ghost (IgnoreForeign) search.
func (la *Lattice) OwnersOnPath(path []PathStep, net int) []int {
	n := la.NX * la.NY
	seen := map[int32]bool{}
	var owners []int
	note := func(o int32) {
		if o > 0 && o != int32(net)+1 && !seen[o] {
			seen[o] = true
			owners = append(owners, int(o-1))
		}
	}
	for k, st := range path {
		i, j, ok := la.NodeAt(st.Pt)
		if !ok {
			continue
		}
		if k > 0 && path[k-1].Layer == st.Layer {
			// Walk the merged segment node by node.
			pi, pj, ok2 := la.NodeAt(path[k-1].Pt)
			if ok2 {
				di, dj := sgn(i-pi), sgn(j-pj)
				nd := dirIndex(di, dj)
				for x, y := pi, pj; x != i || y != j; x, y = x+di, y+dj {
					note(la.wireOcc[st.Layer*n+la.idx(x, y)])
					if nd >= 0 {
						note(la.edgeOwnerAt(st.Layer, x, y, nd))
					}
				}
			}
		}
		note(la.wireOcc[st.Layer*n+la.idx(i, j)])
		if k > 0 && path[k-1].Layer != st.Layer {
			s := st.Layer
			if path[k-1].Layer < s {
				s = path[k-1].Layer
			}
			note(la.viaOcc[s*n+la.idx(i, j)])
		}
	}
	return owners
}

// dirIndex maps a unit move (di, dj) to its index in the moves table, or
// −1 for a zero move.
func dirIndex(di, dj int) int {
	for nd, mv := range moves {
		if mv.dx == di && mv.dy == dj {
			return nd
		}
	}
	return -1
}

func sgn(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// StackFree reports whether a via stack covering wire layers [l0, l1] at
// point p is placeable by net. p must be a lattice node.
func (la *Lattice) StackFree(p geom.Point, l0, l1, net int) bool {
	i, j, ok := la.NodeAt(p)
	if !ok {
		return false
	}
	for s := l0; s < l1; s++ {
		if !la.ViaFree(s, i, j, net) {
			return false
		}
	}
	return true
}

// CommitStack records a via stack covering wire layers [l0, l1] at p.
func (la *Lattice) CommitStack(p geom.Point, l0, l1, net int) {
	for s := l0; s < l1; s++ {
		la.commitVia(s, p, net)
	}
}
