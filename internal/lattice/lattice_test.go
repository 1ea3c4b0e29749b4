package lattice

import (
	"math"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
)

// bare returns a small empty design: 600×600, 2 wire layers, no shapes.
func bare(layers int) *design.Design {
	return &design.Design{
		Name:       "bare",
		Outline:    geom.RectWH(0, 0, 600, 600),
		WireLayers: layers,
		Rules:      design.Rules{Spacing: 5, WireWidth: 4, ViaWidth: 16},
	}
}

func mustNew(t *testing.T, d *design.Design) *Lattice {
	t.Helper()
	la, err := New(d, 12)
	if err != nil {
		t.Fatal(err)
	}
	return la
}

func TestNodeAtSnap(t *testing.T) {
	la := mustNew(t, bare(1))
	if _, _, ok := la.NodeAt(geom.Pt(24, 36)); !ok {
		t.Error("on-lattice point rejected")
	}
	if _, _, ok := la.NodeAt(geom.Pt(25, 36)); ok {
		t.Error("off-lattice point accepted")
	}
	i, j := la.Snap(geom.Pt(29, 31))
	if p := la.NodePoint(i, j); !p.Eq(geom.Pt(24, 36)) {
		t.Errorf("snap = %v", p)
	}
}

func TestPitchValidation(t *testing.T) {
	if _, err := New(bare(1), 8); err == nil {
		t.Error("pitch below wire pitch accepted")
	}
}

func TestStraightRoute(t *testing.T) {
	la := mustNew(t, bare(1))
	path, cost, ok := la.Route(Request{
		Net: 0, From: geom.Pt(48, 300), To: geom.Pt(480, 300),
	})
	if !ok {
		t.Fatal("no route")
	}
	if math.Abs(cost-432) > 1e-9 {
		t.Errorf("cost = %v, want 432", cost)
	}
	if len(path) != 2 {
		t.Errorf("straight route should merge to 2 steps, got %v", path)
	}
}

func TestDiagonalRouteUsesX(t *testing.T) {
	la := mustNew(t, bare(1))
	_, cost, ok := la.Route(Request{
		Net: 0, From: geom.Pt(48, 48), To: geom.Pt(240, 240),
	})
	if !ok {
		t.Fatal("no route")
	}
	want := 192 * geom.Sqrt2
	if math.Abs(cost-want) > 1e-6 {
		t.Errorf("diagonal cost = %v, want %v", cost, want)
	}
}

func TestRouteAvoidsObstacle(t *testing.T) {
	d := bare(1)
	// Wall across the middle with a gap at the top.
	d.Obstacles = append(d.Obstacles, design.Obstacle{
		Layer: 0, Box: geom.RectWH(294, 0, 12, 480),
	})
	la := mustNew(t, d)
	path, cost, ok := la.Route(Request{
		Net: 0, From: geom.Pt(48, 60), To: geom.Pt(552, 60),
	})
	if !ok {
		t.Fatal("no route around obstacle")
	}
	if cost <= 504 {
		t.Errorf("cost %v should exceed the direct distance", cost)
	}
	for k := 0; k+1 < len(path); k++ {
		seg := geom.Seg(path[k].Pt, path[k+1].Pt)
		obs := geom.PolyFromRect(d.Obstacles[0].Box)
		wire := geom.PolyFromSegment(seg, float64(d.Rules.WireWidth)/2)
		if dd := obs.Dist(wire); dd < float64(d.Rules.Spacing) {
			t.Errorf("segment %v too close to obstacle: %v", seg, dd)
		}
	}
}

func TestTwoNetSpacing(t *testing.T) {
	la := mustNew(t, bare(1))
	p1, _, ok := la.Route(Request{Net: 0, From: geom.Pt(48, 120), To: geom.Pt(552, 120)})
	if !ok {
		t.Fatal("net 0 failed")
	}
	la.Commit(p1, 0)
	// Net 1 wants the same track: it must shift at least one pitch away.
	p2, _, ok := la.Route(Request{Net: 1, From: geom.Pt(48, 132), To: geom.Pt(552, 132)})
	if !ok {
		t.Fatal("net 1 failed")
	}
	la.Commit(p2, 1)
	minD := math.Inf(1)
	for a := 0; a+1 < len(p1); a++ {
		s1 := geom.Seg(p1[a].Pt, p1[a+1].Pt)
		for b := 0; b+1 < len(p2); b++ {
			s2 := geom.Seg(p2[b].Pt, p2[b+1].Pt)
			minD = math.Min(minD, geom.SegSegDist(s1, s2))
		}
	}
	wirePitch := float64(la.D.Rules.WireWidth + la.D.Rules.Spacing)
	if minD < wirePitch {
		t.Errorf("centerline separation %v < %v", minD, wirePitch)
	}
}

func TestForeignWireBlocks(t *testing.T) {
	la := mustNew(t, bare(1))
	// Net 0 builds a full-height wall.
	p1, _, ok := la.Route(Request{Net: 0, From: geom.Pt(300, 0), To: geom.Pt(300, 600)})
	if !ok {
		t.Fatal("wall route failed")
	}
	la.Commit(p1, 0)
	// Net 1 cannot cross on the same (only) layer.
	if _, _, ok := la.Route(Request{Net: 1, From: geom.Pt(48, 300), To: geom.Pt(552, 300)}); ok {
		t.Error("crossing route should be impossible on one layer")
	}
}

func TestViaEscapesBlockage(t *testing.T) {
	d := bare(2)
	la := mustNew(t, d)
	// Net 0 wall on layer 0.
	p1, _, ok := la.Route(Request{
		Net: 0, From: geom.Pt(300, 0), To: geom.Pt(300, 600),
		LayerMask: []bool{true, false},
	})
	if !ok {
		t.Fatal("wall route failed")
	}
	la.Commit(p1, 0)
	// Net 1 crosses using layer 1 via a pair of vias.
	p2, _, ok := la.Route(Request{Net: 1, From: geom.Pt(48, 300), To: geom.Pt(552, 300)})
	if !ok {
		t.Fatal("via-assisted crossing failed")
	}
	vias := 0
	for k := 0; k+1 < len(p2); k++ {
		if p2[k].Layer != p2[k+1].Layer {
			vias++
		}
	}
	if vias < 2 {
		t.Errorf("expected at least 2 vias, got %d (path %v)", vias, p2)
	}
}

func TestTurnLegality(t *testing.T) {
	// Every pair of consecutive segments in any routed path must be a
	// legal joint (no 45° interior angles, no U-turns). Two layers, since
	// the three nets mutually cross.
	d := bare(2)
	d.Obstacles = append(d.Obstacles,
		design.Obstacle{Layer: 0, Box: geom.RectWH(120, 120, 120, 60)},
		design.Obstacle{Layer: 0, Box: geom.RectWH(360, 240, 60, 180)},
		design.Obstacle{Layer: 0, Box: geom.RectWH(120, 360, 240, 36)},
	)
	la := mustNew(t, d)
	terms := [][2]geom.Point{
		{geom.Pt(48, 48), geom.Pt(552, 552)},
		{geom.Pt(48, 552), geom.Pt(552, 48)},
		{geom.Pt(48, 300), geom.Pt(552, 312)},
	}
	for net, tt := range terms {
		path, _, ok := la.Route(Request{Net: net, From: tt[0], To: tt[1]})
		if !ok {
			t.Fatalf("net %d unroutable", net)
		}
		la.Commit(path, net)
		for k := 0; k+2 < len(path); k++ {
			if path[k].Layer != path[k+1].Layer || path[k+1].Layer != path[k+2].Layer {
				continue
			}
			s1 := geom.Seg(path[k].Pt, path[k+1].Pt)
			s2 := geom.Seg(path[k+1].Pt, path[k+2].Pt)
			if !geom.DirTurnOK(s1.Dir(), s2.Dir()) {
				t.Errorf("net %d: illegal turn at %v", net, path[k+1].Pt)
			}
			if !s1.Octilinear() || !s2.Octilinear() {
				t.Errorf("net %d: non-octilinear segment", net)
			}
		}
	}
}

// TestRegionRestriction: a RegionMask confines the search. The region is
// the bottom half minus a wall across the straight line between the
// terminals, so the route must detour under the wall without leaving the
// region at any lattice node it passes.
func TestRegionRestriction(t *testing.T) {
	la := mustNew(t, bare(1))
	region := la.NewRegionMask()
	region.AllowRect(0, geom.Rect{X0: 0, Y0: 0, X1: 600, Y1: 300})
	wall := geom.Rect{X0: 288, Y0: 120, X1: 312, Y1: 300}
	region.ClearRect(0, wall)
	path, _, ok := la.Route(Request{
		Net: 0, From: geom.Pt(48, 240), To: geom.Pt(552, 240), RegionMask: region,
	})
	if !ok {
		t.Fatal("in-region route failed")
	}
	for k := 0; k+1 < len(path); k++ {
		a, b := path[k].Pt, path[k+1].Pt
		n := geom.Max64(geom.Abs64(b.X-a.X), geom.Abs64(b.Y-a.Y)) / la.Pitch
		for s := int64(0); s <= n; s++ {
			p := a
			if n > 0 {
				p = geom.Pt(a.X+(b.X-a.X)*s/n, a.Y+(b.Y-a.Y)*s/n)
			}
			if p.Y > 300 || wall.Contains(p) {
				t.Fatalf("path leaves the region at %v", p)
			}
		}
	}
}

func TestPadOwnership(t *testing.T) {
	d := bare(1)
	d.Chips = []design.Chip{{Name: "c", Box: geom.RectWH(0, 0, 600, 600)}}
	d.IOPads = []design.IOPad{
		{ID: 0, Chip: 0, Center: geom.Pt(120, 300), HalfW: 8},
		{ID: 1, Chip: 0, Center: geom.Pt(480, 300), HalfW: 8},
		{ID: 2, Chip: 0, Center: geom.Pt(300, 300), HalfW: 8}, // foreign pad in the way
	}
	d.Nets = []design.Net{{
		ID: 0,
		P1: design.PadRef{Kind: design.IOKind, Index: 0},
		P2: design.PadRef{Kind: design.IOKind, Index: 1},
	}}
	la := mustNew(t, d)
	path, _, ok := la.Route(Request{Net: 0, From: geom.Pt(120, 300), To: geom.Pt(480, 300)})
	if !ok {
		t.Fatal("route between own pads failed")
	}
	// The path must detour around the foreign pad at (300,300).
	for k := 0; k+1 < len(path); k++ {
		seg := geom.Seg(path[k].Pt, path[k+1].Pt)
		pad := geom.PolyFromRect(d.IOPads[2].Box())
		wire := geom.PolyFromSegment(seg, float64(d.Rules.WireWidth)/2)
		if dd := pad.Dist(wire); dd < float64(d.Rules.Spacing) {
			t.Errorf("wire too close to foreign pad: %v", dd)
		}
	}
}

func TestStackFreeAndCommit(t *testing.T) {
	d := bare(3)
	la := mustNew(t, d)
	p := geom.Pt(300, 300)
	if !la.StackFree(p, 0, 2, 0) {
		t.Fatal("stack should be free on empty lattice")
	}
	la.CommitStack(p, 0, 2, 0)
	// A foreign stack too close must be rejected.
	if la.StackFree(geom.Pt(312, 300), 0, 2, 1) {
		t.Error("foreign stack 12 away should be blocked (via spacing 21)")
	}
	if !la.StackFree(geom.Pt(324, 300), 0, 2, 1) {
		t.Error("foreign stack 24 away should be legal")
	}
	// The same net may land wires on its own stack node.
	i, j, _ := la.NodeAt(p)
	if !la.WireFree(0, i, j, 0) {
		t.Error("own stack node should stay wire-passable for the owner")
	}
	if la.WireFree(0, i, j, 1) {
		t.Error("foreign net must not wire over the stack")
	}
}

func TestUnroutableReportsFalse(t *testing.T) {
	d := bare(1)
	d.Obstacles = append(d.Obstacles, design.Obstacle{
		Layer: 0, Box: geom.RectWH(294, 0, 12, 601),
	})
	la := mustNew(t, d)
	if _, _, ok := la.Route(Request{Net: 0, From: geom.Pt(48, 300), To: geom.Pt(552, 300)}); ok {
		t.Error("fully walled route should fail")
	}
}

func TestMaxCostAborts(t *testing.T) {
	la := mustNew(t, bare(1))
	_, _, ok := la.Route(Request{
		Net: 0, From: geom.Pt(48, 48), To: geom.Pt(552, 552), MaxCost: 10,
	})
	if ok {
		t.Error("route should abort under tiny MaxCost")
	}
}

func TestGhostSearchAndOwners(t *testing.T) {
	la := mustNew(t, bare(1))
	// Net 0 wall.
	p0, _, ok := la.Route(Request{Net: 0, From: geom.Pt(300, 0), To: geom.Pt(300, 600)})
	if !ok {
		t.Fatal("wall failed")
	}
	la.Commit(p0, 0)
	// Normal search for net 1 fails; ghost search succeeds and names net 0.
	req := Request{Net: 1, From: geom.Pt(48, 300), To: geom.Pt(552, 300)}
	if _, _, ok := la.Route(req); ok {
		t.Fatal("normal search should fail through the wall")
	}
	req.IgnoreForeign = true
	ghost, _, ok := la.Route(req)
	if !ok {
		t.Fatal("ghost search should pass through foreign claims")
	}
	owners := la.OwnersOnPath(ghost, 1)
	if len(owners) != 1 || owners[0] != 0 {
		t.Errorf("owners = %v, want [0]", owners)
	}
	// Ghost search must still respect hard blockages.
	d2 := bare(1)
	d2.Obstacles = append(d2.Obstacles, design.Obstacle{Layer: 0, Box: geom.RectWH(294, 0, 12, 601)})
	la2 := mustNew(t, d2)
	if _, _, ok := la2.Route(Request{
		Net: 1, From: geom.Pt(48, 300), To: geom.Pt(552, 300), IgnoreForeign: true,
	}); ok {
		t.Error("ghost search must not pass hard obstacles")
	}
}

func TestOwnersOnMergedSegments(t *testing.T) {
	// OwnersOnPath must walk merged collinear runs node by node: a foreign
	// wire claims only the middle of a long straight ghost path.
	la := mustNew(t, bare(1))
	short, _, ok := la.Route(Request{Net: 0, From: geom.Pt(300, 288), To: geom.Pt(300, 312)})
	if !ok {
		t.Fatal("short wall failed")
	}
	la.Commit(short, 0)
	ghost, _, ok := la.Route(Request{
		Net: 1, From: geom.Pt(48, 300), To: geom.Pt(552, 300), IgnoreForeign: true,
	})
	if !ok {
		t.Fatal("ghost failed")
	}
	owners := la.OwnersOnPath(ghost, 1)
	if len(owners) != 1 || owners[0] != 0 {
		t.Errorf("owners = %v, want [0]", owners)
	}
}
