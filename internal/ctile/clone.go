package ctile

import "rdlroute/internal/geom"

// CloneScratch returns an independent copy of the model for scratch
// routing (the ordering-portfolio racer gives each candidate policy its
// own clone of the post-stage-3 model). The clone mutates independently:
// AddWire/AddVia on it dirty only its own cells, and its lazy rebuilds
// derive exactly the tiles the original would — buildCell is a pure
// function of the cell's blockers, which are deep-copied.
//
// Sharing discipline: blocker lists are copied at exact length (the only
// in-place-growing state — a shared backing array would let sibling
// clones append over each other), tile/bbox/component-label slices are
// shared read-only (rebuilds replace the slice, never mutate it), and the
// per-cell generation counters and reach masks are copied by value, so
// the clone's cache invalidation starts from the original's state. The
// tracer and the corridor journal/memo are dropped: a scratch run is
// unobserved and must not observe — or pollute — a cross-run memo.
func (m *Model) CloneScratch() *Model {
	cp := &Model{
		D:      m.D,
		CellsX: m.CellsX, CellsY: m.CellsY,
		clear: m.clear, minDim: m.minDim,
	}
	layers := len(m.blockers)
	n := m.CellsX * m.CellsY
	cp.blockers = make([][][]geom.Oct8, layers)
	cp.tiles = make([][][]geom.Oct8, layers)
	cp.tileBB = make([][][]geom.Rect, layers)
	cp.gen = make([][]uint32, layers)
	cp.comp = make([][][]uint8, layers)
	cp.reach = make([][]cellReach, layers)
	for l := 0; l < layers; l++ {
		cp.blockers[l] = make([][]geom.Oct8, n)
		for c, b := range m.blockers[l] {
			if len(b) > 0 {
				nb := make([]geom.Oct8, len(b))
				copy(nb, b)
				cp.blockers[l][c] = nb
			}
		}
		cp.tiles[l] = append([][]geom.Oct8(nil), m.tiles[l]...)
		cp.tileBB[l] = append([][]geom.Rect(nil), m.tileBB[l]...)
		cp.gen[l] = append([]uint32(nil), m.gen[l]...)
		cp.comp[l] = append([][]uint8(nil), m.comp[l]...)
		cp.reach[l] = append([]cellReach(nil), m.reach[l]...)
	}
	return cp
}
