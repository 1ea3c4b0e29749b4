package ctile

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
)

// refBuildCell is the reference for buildCell's tiles and their order:
// the same frame partition and subtraction with a fresh piece slice per
// blocker and a SubtractOct call for every piece and every blocker, with
// no skips.
func refBuildCell(m *Model, layer, cell int) []geom.Oct8 {
	box := m.cellBox(cell)
	blockers := m.blockers[layer][cell]
	xs := []int64{box.X0, box.X1}
	ys := []int64{box.Y0, box.Y1}
	for _, b := range blockers {
		bb := b.BBox()
		for _, x := range []int64{bb.X0, bb.X1} {
			if x > box.X0 && x < box.X1 {
				xs = append(xs, x)
			}
		}
		for _, y := range []int64{bb.Y0, bb.Y1} {
			if y > box.Y0 && y < box.Y1 {
				ys = append(ys, y)
			}
		}
	}
	xs = uniq(xs)
	ys = uniq(ys)
	var tiles []geom.Oct8
	for yi := 0; yi+1 < len(ys); yi++ {
		for xi := 0; xi+1 < len(xs); xi++ {
			frame := geom.Rect{X0: xs[xi], Y0: ys[yi], X1: xs[xi+1], Y1: ys[yi+1]}
			if frame.W() < m.minDim && frame.H() < m.minDim {
				continue
			}
			pieces := []geom.Oct8{geom.OctFromRect(frame)}
			for _, b := range blockers {
				if len(pieces) == 0 {
					break
				}
				var next []geom.Oct8
				for _, p := range pieces {
					next = append(next, p.SubtractOct(b)...)
				}
				pieces = next
			}
			for _, p := range pieces {
				bb := p.BBox()
				if bb.W() < m.minDim && bb.H() < m.minDim {
					continue
				}
				tiles = append(tiles, p)
			}
		}
	}
	sort.Slice(tiles, func(i, j int) bool {
		bi, bj := tiles[i].BBox(), tiles[j].BBox()
		if bi.Y0 != bj.Y0 {
			return bi.Y0 < bj.Y0
		}
		return bi.X0 < bj.X0
	})
	return tiles
}

// TestBuildCellMatchesReference holds buildCell to refBuildCell on every
// (layer, cell) of seeded generated designs and of dense1, before and
// after seeded AddWire/AddVia steps: the same tiles with the same values
// in the same order.
func TestBuildCellMatchesReference(t *testing.T) {
	dense1, err := design.Generate(design.DenseSuite()[0])
	if err != nil {
		t.Fatal(err)
	}
	models := []struct {
		name  string
		d     *design.Design
		cells int
		seed  int64
	}{
		{"dense1", dense1, 30, 1},
	}
	for seed := int64(1); seed <= 3; seed++ {
		models = append(models, struct {
			name  string
			d     *design.Design
			cells int
			seed  int64
		}{"cache", cacheDesign(t, seed), 4 + 6*int(seed), seed})
	}
	var cells, tiles int
	for _, tc := range models {
		m := NewModel(tc.d, tc.cells)
		rng := rand.New(rand.NewSource(tc.seed))
		for step := 0; step <= 40; step++ {
			if step > 0 {
				randomOp(rng, tc.d).apply(m)
			}
			if step%10 != 0 {
				continue
			}
			for l := 0; l < tc.d.WireLayers; l++ {
				for c := 0; c < m.CellsX*m.CellsY; c++ {
					got, want := m.buildCell(l, c), refBuildCell(m, l, c)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s seed %d step %d layer %d cell %d: tiles %v, reference %v",
							tc.name, tc.seed, step, l, c, got, want)
					}
					cells++
					tiles += len(want)
				}
			}
		}
	}
	if tiles < 2*cells {
		t.Fatalf("%d tiles over %d cells: the designs no longer split their cells", tiles, cells)
	}
}
