package ctile

import (
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
)

func dsn(layers int) *design.Design {
	return &design.Design{
		Name:       "t",
		Outline:    geom.RectWH(0, 0, 1200, 1200),
		WireLayers: layers,
		Rules:      design.Rules{Spacing: 5, WireWidth: 4, ViaWidth: 16},
	}
}

func TestEmptyDesignTiles(t *testing.T) {
	m := NewModel(dsn(2), 4)
	// With no blockages, each cell is a single rectangular tile.
	for l := 0; l < 2; l++ {
		if got := m.TileCount(l); got != 16 {
			t.Errorf("layer %d tiles = %d, want 16", l, got)
		}
	}
	r, ok := m.TileAt(0, geom.Pt(600, 600))
	if !ok {
		t.Fatal("center point not in any tile")
	}
	if m.Region(r).Empty() {
		t.Error("tile region empty")
	}
}

func TestObstacleSplitsTiles(t *testing.T) {
	d := dsn(1)
	d.Obstacles = append(d.Obstacles, design.Obstacle{
		Layer: 0, Box: geom.RectWH(500, 500, 200, 200),
	})
	m := NewModel(d, 2)
	// The obstacle (plus clearance) must not be inside any tile.
	if _, ok := m.TileAt(0, geom.Pt(600, 600)); ok {
		t.Error("obstacle interior should not be covered by tiles")
	}
	// Free space around it must be.
	pts := []geom.Point{geom.Pt(100, 100), geom.Pt(1100, 1100), geom.Pt(600, 200), geom.Pt(200, 600)}
	for _, p := range pts {
		if _, ok := m.TileAt(0, p); !ok {
			t.Errorf("free point %v not covered", p)
		}
	}
}

func TestDiagonalWireSplitsFrame(t *testing.T) {
	m := NewModel(dsn(1), 1)
	before := m.TileCount(0)
	m.AddWire(0, geom.Seg(geom.Pt(0, 0), geom.Pt(1200, 1200)))
	after := m.TileCount(0)
	if after <= before {
		t.Errorf("diagonal wire should split tiles: %d -> %d", before, after)
	}
	// Points on opposite sides are in different tiles; band is uncovered.
	nw, okNW := m.TileAt(0, geom.Pt(200, 1000))
	se, okSE := m.TileAt(0, geom.Pt(1000, 200))
	if !okNW || !okSE {
		t.Fatal("side points not covered")
	}
	if nw == se {
		t.Error("points on opposite sides of the wire share a tile")
	}
	if _, ok := m.TileAt(0, geom.Pt(600, 600)); ok {
		t.Error("wire band should not be covered")
	}
}

func TestCorridorStraight(t *testing.T) {
	m := NewModel(dsn(1), 4)
	path, ok := m.FindCorridor(geom.Pt(60, 600), 0, geom.Pt(1140, 600), 0, nil, 100)
	if !ok {
		t.Fatal("no corridor in empty design")
	}
	if len(path) < 2 {
		t.Errorf("corridor too short: %v", path)
	}
	for _, r := range path {
		if r.Layer != 0 {
			t.Error("single-layer corridor should stay on layer 0")
		}
	}
}

func TestCorridorUsesViaSites(t *testing.T) {
	d := dsn(2)
	// A wall on layer 0 splits it; layer 1 is open.
	d.Obstacles = append(d.Obstacles, design.Obstacle{
		Layer: 0, Box: geom.RectWH(590, 0, 20, 1200),
	})
	m := NewModel(d, 4)
	sites := m.InsertVias()
	if len(sites) == 0 {
		t.Fatal("no via sites inserted")
	}
	for _, v := range sites {
		if v.L0 != 0 || v.L1 != 1 {
			t.Errorf("site %+v should span both layers", v)
		}
	}
	path, ok := m.FindCorridor(geom.Pt(60, 600), 0, geom.Pt(1140, 600), 0, sites, 100)
	if !ok {
		t.Fatal("corridor should exist through layer 1")
	}
	usedL1 := false
	for _, r := range path {
		if r.Layer == 1 {
			usedL1 = true
		}
	}
	if !usedL1 {
		t.Error("corridor should pass through layer 1")
	}
	// Without via sites the corridor is impossible.
	if _, ok := m.FindCorridor(geom.Pt(60, 600), 0, geom.Pt(1140, 600), 0, nil, 100); ok {
		t.Error("corridor should fail without via sites")
	}
}

func TestTileNearBlockedTerminal(t *testing.T) {
	d := dsn(1)
	d.IOPads = append(d.IOPads, design.IOPad{ID: 0, Chip: -1, Center: geom.Pt(600, 600), HalfW: 8})
	m := NewModel(d, 2)
	// The pad center is inside its own clearance blockage, but TileNear
	// still finds the closest tile.
	if _, ok := m.TileAt(0, geom.Pt(600, 600)); ok {
		t.Error("pad center should be blocked")
	}
	r, ok := m.TileNear(0, geom.Pt(600, 600))
	if !ok {
		t.Fatal("TileNear failed")
	}
	if d := m.Region(r).BBox().DistToPoint(geom.Pt(600, 600)); d > 40 {
		t.Errorf("nearest tile unexpectedly far: %v", d)
	}
}

func TestIncrementalUpdateBlocksCorridor(t *testing.T) {
	d := dsn(1)
	m := NewModel(d, 4)
	if _, ok := m.FindCorridor(geom.Pt(60, 600), 0, geom.Pt(1140, 600), 0, nil, 100); !ok {
		t.Fatal("initial corridor missing")
	}
	// Commit a full-height vertical wire: corridor must disappear.
	m.AddWire(0, geom.Seg(geom.Pt(600, 0), geom.Pt(600, 1200)))
	if _, ok := m.FindCorridor(geom.Pt(60, 600), 0, geom.Pt(1140, 600), 0, nil, 100); ok {
		t.Error("corridor should be blocked after wire commit")
	}
}

func TestViaInsertionProjectionStopsAtBlockage(t *testing.T) {
	d := dsn(3)
	// Fill layer 1 entirely: projections cannot pass through it.
	d.Obstacles = append(d.Obstacles, design.Obstacle{Layer: 1, Box: geom.RectWH(0, 0, 1200, 1200)})
	m := NewModel(d, 2)
	for _, v := range m.InsertVias() {
		if v.L0 <= 1 && v.L1 >= 1 {
			t.Errorf("site %+v projects through fully blocked layer 1", v)
		}
	}
}

func TestTileCountScalesWithBlockage(t *testing.T) {
	// The octagonal tile model's selling point: tile count tracks geometry
	// complexity, not area.
	m := NewModel(dsn(1), 8)
	empty := m.TileCount(0)
	for i := 0; i < 10; i++ {
		m.AddVia(0, geom.Pt(int64(100+100*i), int64(100+100*i)))
	}
	withVias := m.TileCount(0)
	if withVias <= empty {
		t.Errorf("tile count should grow with blockages: %d -> %d", empty, withVias)
	}
	// Each via adds a bounded number of tiles (frames × octagon cuts in
	// the cells it touches) — far below a uniform fine grid's node count.
	if withVias > empty+500 {
		t.Errorf("tile count grew unreasonably: %d -> %d", empty, withVias)
	}
}

func TestTileBBsMatchTiles(t *testing.T) {
	d := dsn(1)
	d.Obstacles = append(d.Obstacles, design.Obstacle{Layer: 0, Box: geom.RectWH(480, 480, 240, 240)})
	m := NewModel(d, 3)
	for c := 0; c < 9; c++ {
		tiles := m.Tiles(0, c)
		bbs := m.TileBBs(0, c)
		if len(tiles) != len(bbs) {
			t.Fatalf("cell %d: %d tiles vs %d bboxes", c, len(tiles), len(bbs))
		}
		for i := range tiles {
			if tiles[i].BBox() != bbs[i] {
				t.Errorf("cell %d tile %d: bbox cache mismatch", c, i)
			}
		}
	}
}

// TestCellsTouchingMatchesCellBox maps every coordinate of the Table-I
// outlines to a cell and checks it is the lowest-index cell whose CellBox
// contains the coordinate, on both axes.
func TestCellsTouchingMatchesCellBox(t *testing.T) {
	for _, spec := range design.DenseSuite() {
		d, err := design.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		m := NewModel(d, 30)
		o := d.Outline
		bad := 0
		for x := o.X0; x <= o.X1; x++ {
			p := geom.Pt(x, o.Y0)
			got := m.cellsTouching(geom.RectOf(p, p))
			want := 0
			for m.CellBox(want).X1 < x {
				want++
			}
			if len(got) != 1 || got[0] != want {
				bad++
				if bad <= 3 {
					t.Errorf("%s: x=%d maps to cells %v, want [%d] (box %v)", spec.Name, x, got, want, m.CellBox(want))
				}
			}
		}
		for y := o.Y0; y <= o.Y1; y++ {
			p := geom.Pt(o.X0, y)
			got := m.cellsTouching(geom.RectOf(p, p))
			want := 0
			for m.CellBox(want).Y1 < y {
				want += m.CellsX
			}
			if len(got) != 1 || got[0] != want {
				bad++
				if bad <= 3 {
					t.Errorf("%s: y=%d maps to cells %v, want [%d] (box %v)", spec.Name, y, got, want, m.CellBox(want))
				}
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d coordinates mapped to the wrong cell", spec.Name, bad)
		}
	}
}
