package ctile

import (
	"math/rand"
	"reflect"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
)

// cacheOp is one incremental model update: a committed wire or via.
type cacheOp struct {
	via   bool
	layer int // wire layer, or via slab
	seg   geom.Segment
}

func (op cacheOp) apply(m *Model) {
	if op.via {
		m.AddVia(op.layer, op.seg.A)
		return
	}
	m.AddWire(op.layer, op.seg)
}

// randomOp draws a wire along one of the four X-architecture axes, or a
// via, anchored on the lattice inside the outline. The ops cluster in
// the outline's lower-left quadrant so cells split into several
// components and neighbouring cells re-partition in every pattern.
func randomOp(rng *rand.Rand, d *design.Design) cacheOp {
	o := d.Outline
	pt := func() geom.Point {
		x := o.X0 + rng.Int63n(o.W()/2)/design.Grid*design.Grid
		y := o.Y0 + rng.Int63n(o.H()/2)/design.Grid*design.Grid
		return geom.Pt(x, y)
	}
	if rng.Intn(4) == 0 && d.WireLayers > 1 {
		p := pt()
		return cacheOp{via: true, layer: rng.Intn(d.WireLayers - 1), seg: geom.Seg(p, p)}
	}
	dirs := [][2]int64{{1, 0}, {0, 1}, {1, 1}, {1, -1}}
	dir := dirs[rng.Intn(len(dirs))]
	n := int64(2 + rng.Intn(30))
	a := pt()
	b := geom.Pt(a.X+dir[0]*n*design.Grid, a.Y+dir[1]*n*design.Grid)
	if !o.Contains(b) {
		b = a
	}
	return cacheOp{layer: rng.Intn(d.WireLayers), seg: geom.Seg(a, b)}
}

func cacheDesign(t *testing.T, seed int64) *design.Design {
	t.Helper()
	d, err := design.Generate(design.GenSpec{
		Name: "cache", Chips: 2, IOPads: 24, BumpPads: 64, WireLayers: 3,
		Obstacles: 2, FixedVias: 3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// bruteReach is the reference for one cell's reach masks: the adjacency
// test over every tile pair of the cell and each ring neighbour.
func bruteReach(m *Model, l, c int) (masks [9][maxComp]uint8) {
	tiles, bbs, comp := m.Tiles(l, c), m.TileBBs(l, c), m.components(l, c)
	cx, cy := c%m.CellsX, c/m.CellsX
	for s := range masks {
		nx, ny := cx+s%3-1, cy+s/3-1
		if s == 4 || nx < 0 || ny < 0 || nx >= m.CellsX || ny >= m.CellsY {
			continue
		}
		rc := ny*m.CellsX + nx
		rTiles, rBBs, rComp := m.Tiles(l, rc), m.TileBBs(l, rc), m.components(l, rc)
		for i := range tiles {
			for j := range rTiles {
				if m.adjacent(tiles[i], bbs[i], rTiles[j], rBBs[j]) {
					masks[s][comp[i]] |= 1 << rComp[j]
				}
			}
		}
	}
	return masks
}

// checkCaches compares every (layer, cell) component labelling and reach
// mask of m — read through the same validated accessors the corridor
// search uses — against ref, a model built from scratch, whose masks are
// computed by brute force.
func checkCaches(t *testing.T, m, ref *Model) {
	t.Helper()
	for l := 0; l < m.D.WireLayers; l++ {
		for c := 0; c < m.CellsX*m.CellsY; c++ {
			if got, want := m.compOf(l, c), ref.components(l, c); !reflect.DeepEqual(got, want) {
				t.Fatalf("layer %d cell %d component labels %v, from scratch %v", l, c, got, want)
			}
			if got, want := m.reachOf(l, c).mask, bruteReach(ref, l, c); got != want {
				t.Fatalf("layer %d cell %d reach masks %v, from scratch %v", l, c, got, want)
			}
		}
	}
}

// TestCorridorCacheConsistency drives seeded sequences of AddWire/AddVia
// interleaved with corridor searches. After every step the incremental
// model's component labels and reach masks must equal a fresh model fed
// the same blockers, and FindCorridor must answer identically on the
// incremental model and the fresh one.
func TestCorridorCacheConsistency(t *testing.T) {
	const cells, steps = 8, 30
	for seed := int64(1); seed <= 3; seed++ {
		d := cacheDesign(t, seed)
		rng := rand.New(rand.NewSource(seed))
		inc := NewModel(d, cells)
		sites := inc.InsertVias()
		var ops []cacheOp
		for step := 0; step < steps; step++ {
			op := randomOp(rng, d)
			ops = append(ops, op)
			op.apply(inc)
			fresh := NewModel(d, cells)
			for _, o := range ops {
				o.apply(fresh)
			}
			if step%2 == 0 {
				from, to := randomOp(rng, d).seg.A, randomOp(rng, d).seg.A
				fl, tl := rng.Intn(d.WireLayers), rng.Intn(d.WireLayers)
				want, wantOK := fresh.FindCorridor(from, fl, to, tl, sites, 36)
				got, ok := inc.FindCorridor(from, fl, to, tl, sites, 36)
				if ok != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: incremental corridor %v (ok %v), fresh model %v (ok %v)",
						seed, step, got, ok, want, wantOK)
				}
			}
			checkCaches(t, inc, fresh)
		}
	}
}

// TestReachRebuildsOnlyChangedPair pins the invalidation granularity: a
// re-partition of one cell rebuilds, in a neighbour, only the ring slot
// facing that cell — and in the cell itself, every slot.
func TestReachRebuildsOnlyChangedPair(t *testing.T) {
	m := NewModel(dsn(1), 4)
	for c := 0; c < 16; c++ {
		m.reachOf(0, c)
	}
	// A via centred in cell 5 (x, y in [300, 600)) re-partitions only it.
	m.AddVia(0, geom.Pt(450, 450))
	m.reachRebuilds = 0
	m.reachOf(0, 6) // east neighbour: one slot faces cell 5
	if m.reachRebuilds != 1 {
		t.Errorf("neighbour rebuilt %d slots, want 1", m.reachRebuilds)
	}
	m.reachRebuilds = 0
	m.reachOf(0, 5) // interior cell: all eight slots depend on it
	if m.reachRebuilds != 8 {
		t.Errorf("re-partitioned cell rebuilt %d slots, want 8", m.reachRebuilds)
	}
	m.reachRebuilds = 0
	m.reachOf(0, 15) // not in cell 5's ring
	if m.reachRebuilds != 0 {
		t.Errorf("unrelated cell rebuilt %d slots, want 0", m.reachRebuilds)
	}
}
