package lpopt

import (
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/drc"
	"rdlroute/internal/geom"
	"rdlroute/internal/lattice"
	"rdlroute/internal/layout"
)

func dsn(layers int) *design.Design {
	d := &design.Design{
		Name:       "t",
		Outline:    geom.RectWH(0, 0, 1200, 600),
		WireLayers: layers,
		Rules:      design.Rules{Spacing: 5, WireWidth: 4, ViaWidth: 16},
		Chips:      []design.Chip{{Name: "c", Box: geom.RectWH(0, 0, 1200, 600)}},
		IOPads: []design.IOPad{
			{ID: 0, Chip: 0, Center: geom.Pt(48, 48), HalfW: 8},
			{ID: 1, Chip: 0, Center: geom.Pt(480, 48), HalfW: 8},
			{ID: 2, Chip: 0, Center: geom.Pt(48, 240), HalfW: 8},
			{ID: 3, Chip: 0, Center: geom.Pt(480, 240), HalfW: 8},
		},
		Nets: []design.Net{
			{ID: 0, P1: design.PadRef{Kind: design.IOKind, Index: 0}, P2: design.PadRef{Kind: design.IOKind, Index: 1}},
			{ID: 1, P1: design.PadRef{Kind: design.IOKind, Index: 2}, P2: design.PadRef{Kind: design.IOKind, Index: 3}},
		},
	}
	return d
}

// detourPath is a legal staircase detour between the pads of net 0.
func detourPath() []lattice.PathStep {
	pts := []geom.Point{
		geom.Pt(48, 48), geom.Pt(120, 48),
		geom.Pt(192, 120), // 45° up
		geom.Pt(288, 120), // across
		geom.Pt(360, 48),  // 45° down
		geom.Pt(480, 48),
	}
	var steps []lattice.PathStep
	for _, p := range pts {
		steps = append(steps, lattice.PathStep{Layer: 0, Pt: p})
	}
	return steps
}

func TestOptimizeShortensDetour(t *testing.T) {
	l := layout.New(dsn(1))
	l.AddPath(0, detourPath())
	l.MarkRouted(0)
	before := l.Wirelength()
	st := Optimize(l, Options{})
	after := l.Wirelength()
	if after >= before {
		t.Fatalf("wirelength not reduced: %v -> %v (stats %+v)", before, after, st)
	}
	if vs := drc.Check(l); len(vs) != 0 {
		t.Fatalf("optimized layout has violations: %v", vs)
	}
	if !l.Connected(0) {
		t.Fatal("optimization broke connectivity")
	}
	// The optimum pulls the detour almost flat; expect to get close to the
	// direct length 432 (the minimum-segment-length floor adds a little).
	if after > 460 {
		t.Errorf("after = %v, want near 432", after)
	}
	if st.Iterations < 1 || st.Components < 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestOptimizeRespectsNeighborSpacing(t *testing.T) {
	// Net 1 runs straight between the detour and its baseline. The LP must
	// stop the detour's descent at the spacing margin instead of plowing
	// through net 1.
	l := layout.New(dsn(1))
	l.AddPath(0, detourPath())
	l.MarkRouted(0)
	// Net 1's wire sits under the detour's middle span only (clear of the
	// diagonals, which cross y=84 at x=156 and x=324).
	l.Routes = append(l.Routes, layout.Route{
		Net: 1, Layer: 0,
		Pts: []geom.Point{geom.Pt(204, 84), geom.Pt(276, 84)},
	})
	before := l.Wirelength()
	Optimize(l, Options{})
	if vs := drc.Check(l); len(vs) != 0 {
		t.Fatalf("optimized layout has violations: %v", vs)
	}
	if !l.Connected(0) {
		t.Fatal("net 0 disconnected")
	}
	after := l.Wirelength()
	if after > before {
		t.Errorf("wirelength grew: %v -> %v", before, after)
	}
	// Net 0 segments overlapping net 1's x-span [204,276] must stay ≥ 9
	// away from its centerline at y=84.
	for _, r := range l.Routes {
		if r.Net != 0 {
			continue
		}
		for i := 0; i+1 < len(r.Pts); i++ {
			s := geom.Seg(r.Pts[i], r.Pts[i+1])
			if d := geom.SegSegDist(s, geom.Seg(geom.Pt(204, 84), geom.Pt(276, 84))); d < 9 {
				t.Errorf("segment %v only %v from the neighbor wire", s, d)
			}
		}
	}
}

func TestOptimizeKeepsViasFixed(t *testing.T) {
	// Net with a mid-path via pair detouring on layer 1, neither via at a
	// pad: via centers are not LP variables, so both must stay where
	// stage 4 put them while the layout stays legal.
	l := layout.New(dsn(2))
	steps := []lattice.PathStep{
		{Layer: 0, Pt: geom.Pt(48, 48)},
		{Layer: 0, Pt: geom.Pt(120, 48)},
		{Layer: 0, Pt: geom.Pt(192, 120)},
		{Layer: 1, Pt: geom.Pt(192, 120)}, // via down
		{Layer: 1, Pt: geom.Pt(288, 120)},
		{Layer: 0, Pt: geom.Pt(288, 120)}, // via up
		{Layer: 0, Pt: geom.Pt(360, 48)},
		{Layer: 0, Pt: geom.Pt(480, 48)},
	}
	l.AddPath(0, steps)
	l.MarkRouted(0)
	centers := make([]geom.Point, len(l.Vias))
	for i, v := range l.Vias {
		centers[i] = v.Center
	}
	if len(centers) == 0 {
		t.Fatal("detour has no vias")
	}
	before := l.Wirelength()
	Optimize(l, Options{})
	for i, v := range l.Vias {
		if v.Center != centers[i] {
			t.Errorf("via %d moved %v -> %v", i, centers[i], v.Center)
		}
	}
	if after := l.Wirelength(); after > before {
		t.Errorf("via-path wirelength grew: %v -> %v", before, after)
	}
	if vs := drc.Check(l); len(vs) != 0 {
		t.Fatalf("violations after optimization: %v", vs)
	}
	if !l.Connected(0) {
		t.Fatal("connectivity broken")
	}
}

func TestOptimizeFixedStacksStayPut(t *testing.T) {
	// A stack at a pad center must not move (it anchors to the pad).
	l := layout.New(dsn(2))
	l.AddStack(0, geom.Pt(48, 48), 0, 1)
	l.AddStack(0, geom.Pt(480, 48), 0, 1)
	l.AddPath(0, []lattice.PathStep{
		{Layer: 1, Pt: geom.Pt(48, 48)},
		{Layer: 1, Pt: geom.Pt(264, 264)},
		{Layer: 1, Pt: geom.Pt(480, 48)},
	})
	l.MarkRouted(0)
	Optimize(l, Options{})
	for _, v := range l.Vias {
		if v.Center != geom.Pt(48, 48) && v.Center != geom.Pt(480, 48) {
			t.Errorf("pad stack moved to %v", v.Center)
		}
	}
	if vs := drc.Check(l); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
	if !l.Connected(0) {
		t.Fatal("connectivity broken")
	}
}

func TestOptimizeEmptyLayout(t *testing.T) {
	l := layout.New(dsn(1))
	st := Optimize(l, Options{})
	if st.Before != 0 || st.After != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestOptimizeStraightRouteUnchanged(t *testing.T) {
	l := layout.New(dsn(1))
	l.AddPath(0, []lattice.PathStep{
		{Layer: 0, Pt: geom.Pt(48, 48)},
		{Layer: 0, Pt: geom.Pt(480, 48)},
	})
	l.MarkRouted(0)
	before := l.Wirelength()
	Optimize(l, Options{})
	if got := l.Wirelength(); got != before {
		t.Errorf("straight route changed length: %v -> %v", before, got)
	}
	if vs := drc.Check(l); len(vs) != 0 {
		t.Errorf("violations: %v", vs)
	}
}
