package lattice

import (
	"math"
	"math/rand"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
)

// wide returns a 600×600 single-chip design with the given spacing rule.
func wide(spacing int64) *design.Design {
	return &design.Design{
		Name:       "edges",
		Outline:    geom.RectWH(0, 0, 600, 600),
		WireLayers: 1,
		Rules:      design.Rules{Spacing: spacing, WireWidth: 4, ViaWidth: 16},
	}
}

// edgeFree reports whether net may sweep wire from node (i,j) in move
// direction nd (the index into moves); ignoreForeign mirrors the ghost
// search: only hard claims block. It decodes the direction with its own
// switch, independent of the dirEdge table Route reads.
func (la *Lattice) edgeFree(l, i, j, nd, net int, ignoreForeign bool) bool {
	if la.edgeOcc[0] == nil {
		return true
	}
	var kind, ci, cj int
	switch nd {
	case 0:
		kind, ci, cj = edgeE, i, j
	case 4:
		kind, ci, cj = edgeE, i-1, j
	case 2:
		kind, ci, cj = edgeN, i, j
	case 6:
		kind, ci, cj = edgeN, i, j-1
	case 1:
		kind, ci, cj = edgeNE, i, j
	case 5:
		kind, ci, cj = edgeNE, i-1, j-1
	case 3:
		kind, ci, cj = edgeNW, i-1, j
	default: // 7
		kind, ci, cj = edgeNW, i, j-1
	}
	o := la.edgeOcc[kind][l*la.NX*la.NY+cj*la.NX+ci]
	if ignoreForeign {
		return o != hard
	}
	return passableFor(o, net)
}

// TestEdgeGuardBlocksCornerCut pins the corner-cutting fix. An obstacle
// with a corner at (120,120): the lattice nodes (132,120) and (120,132)
// both clear it by 12 ≥ s+w/2, but the 45° wire between them dips to
// 12/√2 ≈ 8.49 from the corner — polygon gap ≈ 6.49, a violation at
// spacing 8 and legal at spacing 5. Node occupancy alone cannot see the
// difference; the edge guard must.
func TestEdgeGuardBlocksCornerCut(t *testing.T) {
	for _, tc := range []struct {
		spacing  int64
		wantFree bool
	}{
		{spacing: 8, wantFree: false},
		{spacing: 5, wantFree: true},
	} {
		d := wide(tc.spacing)
		d.Obstacles = []design.Obstacle{{Layer: 0, Box: geom.RectWH(0, 0, 120, 120)}}
		la := mustNew(t, d)
		for _, n := range [][2]int{{11, 10}, {10, 11}} {
			if !la.WireFree(0, n[0], n[1], 0) {
				t.Fatalf("spacing %d: node (%d,%d) should be clear of the obstacle", tc.spacing, n[0], n[1])
			}
		}
		// Move direction 3 is (−1,+1): the NW diagonal from (132,120) to
		// (120,132), grazing the obstacle corner.
		if got := la.edgeFree(0, 11, 10, 3, 0, false); got != tc.wantFree {
			t.Errorf("spacing %d: corner-cutting edge free = %v, want %v", tc.spacing, got, tc.wantFree)
		}
	}
}

// TestEdgeGuardForcesDetour drives the same geometry through the search:
// the all-diagonal line from (156,96) to (96,156) runs straight through
// the corner-cutting edge, so at spacing 8 the route must detour around
// it (one diagonal step replaced by an axis-aligned pair) while at
// spacing 5 it stays on the pure diagonal.
func TestEdgeGuardForcesDetour(t *testing.T) {
	diag := 5 * 12 * geom.Sqrt2
	for _, tc := range []struct {
		spacing int64
		want    float64
	}{
		{spacing: 8, want: diag - 12*geom.Sqrt2 + 24},
		{spacing: 5, want: diag},
	} {
		d := wide(tc.spacing)
		d.Obstacles = []design.Obstacle{{Layer: 0, Box: geom.RectWH(0, 0, 120, 120)}}
		la := mustNew(t, d)
		_, cost, ok := la.Route(Request{
			Net: 0, From: geom.Pt(156, 96), To: geom.Pt(96, 156),
		})
		if !ok {
			t.Fatalf("spacing %d: no route", tc.spacing)
		}
		if math.Abs(cost-tc.want) > 1e-6 {
			t.Errorf("spacing %d: cost = %v, want %v", tc.spacing, cost, tc.want)
		}
	}
}

// TestEdgeOwnership: committed wire claims its edges for its net — the
// owner may re-use them, other nets may not, and OwnersOnPath reports the
// claim so rip-up can attribute edge blockages to their victims.
func TestEdgeOwnership(t *testing.T) {
	la := mustNew(t, wide(5))
	path := []PathStep{
		{Layer: 0, Pt: geom.Pt(48, 240)},
		{Layer: 0, Pt: geom.Pt(480, 240)},
	}
	la.Commit(path, 0)
	// Edge E from (120,240) to (132,240) lies on the wire itself.
	if !la.edgeFree(0, 10, 20, 0, 0, false) {
		t.Error("owner net blocked by its own edge claim")
	}
	if la.edgeFree(0, 10, 20, 0, 1, false) {
		t.Error("foreign net allowed onto a claimed edge")
	}
	// Ghost searches see the single-owner claim as passable.
	if !la.edgeFree(0, 10, 20, 0, 1, true) {
		t.Error("ghost search blocked by a rippable single-owner edge")
	}
	foreign := []PathStep{
		{Layer: 0, Pt: geom.Pt(120, 240)},
		{Layer: 0, Pt: geom.Pt(132, 240)},
	}
	victims := la.OwnersOnPath(foreign, 1)
	if len(victims) != 1 || victims[0] != 0 {
		t.Errorf("OwnersOnPath over a claimed edge = %v, want [0]", victims)
	}
}

// markEdgesPolyRef is the reference claim loop: every candidate edge past
// the bounding-box reject is decided by PolyFromSegment and
// ConvexPoly.Dist alone. It returns the candidates it tested and the
// claims it made.
func (la *Lattice) markEdgesPolyRef(layer int, poly geom.ConvexPoly, bbox geom.Rect, owner int32) (tests, claims int64) {
	if len(poly) == 0 {
		return 0, 0
	}
	s := float64(la.D.Rules.Spacing)
	halfW := float64(la.D.Rules.WireWidth) / 2
	margin := int64(s+halfW) + 1
	i0 := int((bbox.X0 - margin - la.X0) / la.Pitch)
	i1 := int((bbox.X1+margin-la.X0)/la.Pitch) + 1
	j0 := int((bbox.Y0 - margin - la.Y0) / la.Pitch)
	j1 := int((bbox.Y1+margin-la.Y0)/la.Pitch) + 1
	i0, j0 = maxInt(i0-1, 0), maxInt(j0-1, 0)
	i1, j1 = minInt(i1, la.NX-1), minInt(j1, la.NY-1)
	px0, py0, px1, py1 := poly.BBoxF()
	reject := s + halfW
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
				tests++
				wp := geom.PolyFromSegment(la.edgeSeg(kind, i, j), halfW)
				if poly.Dist(wp) >= s {
					continue
				}
				claims++
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
	return tests, claims
}

// randomClaimItem returns a seeded random item polygon and its bounding
// box near the lattice: a rectangle on or off the lattice, a regular
// octagon, an H/V/45°/135° wire of 1–20 pitches, a via, or a rectangle or
// parallel wire exactly at spacing s from a row or column of lattice
// edges.
func randomClaimItem(rng *rand.Rand, la *Lattice) (geom.ConvexPoly, geom.Rect) {
	r := la.D.Rules
	node := func() geom.Point {
		return la.NodePoint(rng.Intn(la.NX), rng.Intn(la.NY))
	}
	anywhere := func() geom.Point {
		span := int64(la.NX) * la.Pitch
		return geom.Pt(la.X0-2*la.Pitch+rng.Int63n(span+4*la.Pitch),
			la.Y0-2*la.Pitch+rng.Int63n(span+4*la.Pitch))
	}
	rect := func(b geom.Rect) (geom.ConvexPoly, geom.Rect) { return geom.PolyFromRect(b), b }
	wire := func(a geom.Point, dx, dy, steps, width int64) (geom.ConvexPoly, geom.Rect) {
		seg := geom.Seg(a, a.Add(geom.Pt(dx*steps*la.Pitch, dy*steps*la.Pitch)))
		return geom.PolyFromSegment(seg, float64(width)/2), seg.BBox()
	}
	dirs := [4][2]int64{{1, 0}, {0, 1}, {1, 1}, {1, -1}}
	switch rng.Intn(7) {
	case 0: // rectangle with corners on lattice nodes
		a := node()
		return rect(geom.RectWH(a.X, a.Y, (1+rng.Int63n(4))*la.Pitch, (1+rng.Int63n(4))*la.Pitch))
	case 1: // rectangle anywhere, possibly degenerate
		a := anywhere()
		return rect(geom.RectWH(a.X, a.Y, rng.Int63n(5*la.Pitch), rng.Int63n(5*la.Pitch)))
	case 2: // regular octagon anywhere
		oct := geom.RegularOct(anywhere(), 2+rng.Int63n(4*la.Pitch))
		return oct.Poly(), oct.BBox()
	case 3: // wire from a node, 1–20 pitches, random width
		dir := dirs[rng.Intn(4)]
		return wire(node(), dir[0], dir[1], 1+rng.Int63n(20), 1+rng.Int63n(2*r.WireWidth))
	case 4: // via on a node
		oct := geom.RegularOct(node(), r.ViaWidth)
		return oct.Poly(), oct.BBox()
	case 5: // rectangle beside a node row or column: at s exactly when the wire width is even
		a := node()
		off := (r.WireWidth+1)/2 + r.Spacing
		l := (1 + rng.Int63n(4)) * la.Pitch
		switch rng.Intn(4) {
		case 0:
			return rect(geom.RectWH(a.X+off, a.Y, l, l))
		case 1:
			return rect(geom.RectWH(a.X-off-l, a.Y, l, l))
		case 2:
			return rect(geom.RectWH(a.X, a.Y+off, l, l))
		default:
			return rect(geom.RectWH(a.X, a.Y-off-l, l, l))
		}
	default: // same-width H or V wire at spacing s exactly from a lattice line
		a := node()
		off := r.WireWidth + r.Spacing
		if rng.Intn(2) == 0 {
			off = -off
		}
		steps := 1 + rng.Int63n(20)
		if rng.Intn(2) == 0 {
			return wire(a.Add(geom.Pt(0, off)), 1, 0, steps, r.WireWidth)
		}
		return wire(a.Add(geom.Pt(off, 0)), 0, 1, steps, r.WireWidth)
	}
}

// TestEdgeClaimsMatchReference holds markEdgesPoly's projection bounds to
// the reference loop: seeded random items marked on two lattices, one per
// path, must leave identical edge claims and make the same tests and
// claims. Random spacing (1–12), wire width (2–9, odd included), pitch and
// owners make colliding claims turn hard and put many edges within float
// reach of the spacing threshold.
func TestEdgeClaimsMatchReference(t *testing.T) {
	owners := []int32{hard, 1, 2, 3}
	var refTests int64
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spacing := 1 + rng.Int63n(12)
		width := 2 + rng.Int63n(8)
		pitch := width + spacing + rng.Int63n(4)
		d := &design.Design{
			Name:       "claims",
			Outline:    geom.RectWH(-5*pitch, -3*pitch, 30*pitch, 30*pitch),
			WireLayers: 2,
			Rules:      design.Rules{Spacing: spacing, WireWidth: width, ViaWidth: width + rng.Int63n(3*width)},
		}
		prod, err := New(d, pitch)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(d, pitch)
		if err != nil {
			t.Fatal(err)
		}
		var tests, claims int64
		for k := 0; k < 120; k++ {
			poly, bbox := randomClaimItem(rng, prod)
			layer := rng.Intn(2)
			owner := owners[rng.Intn(len(owners))]
			prod.markEdgesPoly(layer, poly, bbox, owner)
			nt, nc := ref.markEdgesPolyRef(layer, poly, bbox, owner)
			tests += nt
			claims += nc
		}
		if prod.edgeTests != tests || prod.edgeClaims != claims {
			t.Errorf("seed %d: %d tests, %d claims; reference %d tests, %d claims",
				seed, prod.edgeTests, prod.edgeClaims, tests, claims)
		}
		refTests += prod.edgeRefTests
		for kind := range prod.edgeOcc {
			got, want := prod.edgeOcc[kind], ref.edgeOcc[kind]
			if len(got) != len(want) {
				t.Fatalf("seed %d kind %d: %d edges, reference %d", seed, kind, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					n := prod.NX * prod.NY
					t.Fatalf("seed %d (s=%d w=%d pitch=%d): edge kind %d layer %d at (%d,%d) owned by %d, reference %d",
						seed, spacing, width, pitch, kind, k/n, k%n%prod.NX, k%n/prod.NX, got[k], want[k])
				}
			}
		}
	}
	if refTests == 0 {
		t.Fatal("no edge reached the reference test; the items no longer exercise the band")
	}
}
