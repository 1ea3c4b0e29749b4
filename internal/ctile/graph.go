package ctile

import (
	"math"

	"rdlroute/internal/geom"
	"rdlroute/internal/graphs"
)

// ViaSite is an inserted via column: a position where the router may
// change layers, usable between wire layers [L0, L1] (paper III-C-3).
type ViaSite struct {
	Cell   int
	P      geom.Point
	L0, L1 int
}

// InsertVias performs the paper's via insertion: for every global cell,
// place a via at the center of the largest tile in the cell and project it
// through upper and lower layers until a blockage (a layer where the point
// is not in free space) stops it.
func (m *Model) InsertVias() []ViaSite {
	var sites []ViaSite
	for c := 0; c < m.CellsX*m.CellsY; c++ {
		bestLayer, bestIdx := -1, -1
		bestArea := 0.0
		for l := 0; l < m.D.WireLayers; l++ {
			for i, t := range m.Tiles(l, c) {
				if a := t.Area(); a > bestArea {
					bestArea = a
					bestLayer, bestIdx = l, i
				}
			}
		}
		if bestLayer < 0 {
			continue
		}
		p := m.Tiles(bestLayer, c)[bestIdx].Center()
		l0, l1 := bestLayer, bestLayer
		for l0 > 0 {
			if _, ok := m.TileAt(l0-1, p); !ok {
				break
			}
			l0--
		}
		for l1 < m.D.WireLayers-1 {
			if _, ok := m.TileAt(l1+1, p); !ok {
				break
			}
			l1++
		}
		if l1 > l0 {
			sites = append(sites, ViaSite{Cell: c, P: p, L0: l0, L1: l1})
		}
	}
	return sites
}

// minTouch is the minimum shared-boundary extent for two tiles to count as
// connected (a wire must fit through).
func (m *Model) minTouch() int64 { return m.D.Rules.WireWidth }

// adjacent reports whether two tiles on the same layer touch along a
// usable boundary. Both tiles must be canonical (as stored by Tiles).
func (m *Model) adjacent(a geom.Oct8, abb geom.Rect, b geom.Oct8, bbb geom.Rect) bool {
	if !abb.Expand(1).Intersects(bbb) {
		return false
	}
	in := a.Grow(1).IntersectOct(b).Canonical()
	if in.XLo > in.XHi || in.YLo > in.YHi || in.SLo > in.SHi || in.DLo > in.DHi {
		return false
	}
	return geom.Max64(in.XHi-in.XLo, in.YHi-in.YLo) >= m.minTouch()
}

// maxComp caps the intra-cell components the corridor graph tells apart.
// Component ids at or above it share the last slot; the resulting (rare,
// optimistic) merges can only cost a masked search a fallback, never a
// wrong route.
const maxComp = 8

// cellReach caches the cross-cell moves of one (layer, cell) in the
// corridor graph, one mask set per ring slot: slot (dy+1)*3 + (dx+1)
// addresses the neighbour at offset (dx, dy), and slot 4 (the cell
// itself) stays empty, as do slots off the grid. mask[s][comp] has bit
// rcomp set when some tile of component comp shares a usable boundary
// with some tile of the neighbour's component rcomp.
//
// A slot depends on the tiles of exactly two cells, so it carries both
// generations: own for the cell (shared by all slots) and gen[s] for the
// neighbour. A re-partition therefore rebuilds, in each neighbour, only
// the slot facing the changed cell. Generations start at 1 on a cell's
// first build, so gen[s] == 0 marks a slot that was never built.
type cellReach struct {
	own  uint32
	gen  [9]uint32
	mask [9][maxComp]uint8
}

// reachOf returns the cell's reach masks, rebuilding each slot whose
// neighbour (or the cell itself) was re-partitioned since the slot's last
// build.
func (m *Model) reachOf(layer, cell int) *cellReach {
	m.Tiles(layer, cell) // bring this cell's generation up to date
	r := &m.reach[layer][cell]
	if g := m.gen[layer][cell]; r.own != g {
		r.own, r.gen = g, [9]uint32{}
	}
	cx, cy := cell%m.CellsX, cell/m.CellsX
	for s := range r.gen {
		nx, ny := cx+s%3-1, cy+s/3-1
		if s == 4 || nx < 0 || ny < 0 || nx >= m.CellsX || ny >= m.CellsY {
			continue
		}
		rc := ny*m.CellsX + nx
		m.Tiles(layer, rc)
		if g := m.gen[layer][rc]; r.gen[s] != g {
			r.mask[s] = m.buildReach(layer, cell, rc)
			r.gen[s] = g
		}
	}
	return r
}

// buildReach computes one reach-mask slot: which components of rc each
// component of cell can step into. Tiles never leave their cell's box, so
// only tiles whose box, grown by one DBU as adjacent grows it, meets the
// other cell's box can pass adjacent's bounding-box test. A (component,
// neighbour-component) bit, once set, needs no further adjacency tests.
func (m *Model) buildReach(layer, cell, rc int) [maxComp]uint8 {
	tiles, bbs, comp := m.Tiles(layer, cell), m.TileBBs(layer, cell), m.compOf(layer, cell)
	rTiles, rBBs, rComp := m.Tiles(layer, rc), m.TileBBs(layer, rc), m.compOf(layer, rc)
	box, rbox := m.cellBox(cell), m.cellBox(rc)
	near := m.nearBuf[:0]
	for j, bb := range rBBs {
		if bb.Expand(1).Intersects(box) {
			near = append(near, j)
		}
	}
	m.nearBuf = near
	var mask [maxComp]uint8
	for i, bb := range bbs {
		if !bb.Expand(1).Intersects(rbox) {
			continue
		}
		for _, j := range near {
			bit := uint8(1) << rComp[j]
			if mask[comp[i]]&bit != 0 {
				continue
			}
			m.adjTests++
			if m.adjacent(tiles[i], bbs[i], rTiles[j], rBBs[j]) {
				mask[comp[i]] |= bit
			}
		}
	}
	m.reachRebuilds++
	return mask
}

// compOf returns the cell's per-tile component labels, computing them on
// first use after each re-partition of the cell.
func (m *Model) compOf(layer, cell int) []uint8 {
	m.Tiles(layer, cell) // a rebuild drops the stale labels
	if c := m.comp[layer][cell]; c != nil {
		return c
	}
	c := m.components(layer, cell)
	m.comp[layer][cell] = c
	return c
}

// components labels the cell's tiles with intra-cell connectivity
// component ids: two tiles share an id iff they are linked by a chain of
// usable boundaries within this cell alone. Ids are assigned in tile-index
// order (component of the lowest-indexed tile is 0, and so on) and clamped
// to maxComp-1, reading only this cell's tiles.
func (m *Model) components(layer, cell int) []uint8 {
	tiles := m.Tiles(layer, cell)
	bbs := m.TileBBs(layer, cell)
	n := len(tiles)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ri, rj := find(i), find(j)
			if ri == rj {
				continue
			}
			m.adjTests++
			if m.adjacent(tiles[i], bbs[i], tiles[j], bbs[j]) {
				parent[rj] = ri
			}
		}
	}
	comp := make([]uint8, n)
	label := make([]int, n) // root -> id+1; 0 = unlabelled
	next := 0
	for i := 0; i < n; i++ {
		r := find(i)
		if label[r] == 0 {
			next++
			label[r] = next
		}
		comp[i] = uint8(min(label[r]-1, maxComp-1))
	}
	return comp
}

// neighborCells returns cells within one ring of c plus c itself.
func (m *Model) neighborCells(c int) []int {
	cx, cy := c%m.CellsX, c/m.CellsX
	var out []int
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			nx, ny := cx+dx, cy+dy
			if nx < 0 || ny < 0 || nx >= m.CellsX || ny >= m.CellsY {
				continue
			}
			out = append(out, ny*m.CellsX+nx)
		}
	}
	return out
}

// TileNear returns the tile on the layer closest to p (searching p's cell
// and its ring), for terminals whose exact point sits inside a pad's
// clearance blockage.
func (m *Model) TileNear(layer int, p geom.Point) (TileRef, bool) {
	if r, ok := m.TileAt(layer, p); ok {
		return r, true
	}
	cells := m.cellsTouching(geom.RectOf(p, p))
	if len(cells) == 0 {
		return TileRef{}, false
	}
	best := TileRef{}
	bestD := math.Inf(1)
	found := false
	for _, c := range m.neighborCells(cells[0]) {
		for i, t := range m.Tiles(layer, c) {
			d := t.BBox().DistToPoint(p)
			if d < bestD {
				bestD = d
				best = TileRef{layer, c, i}
				found = true
			}
		}
	}
	return best, found
}

// FindCorridor runs A* on the cell-adjacency graph the octagonal tile
// model induces: states are (layer, cell) pairs, two cells on a layer are
// connected when any tile of one shares a usable boundary with any tile of
// the other, and layers change only at cells holding an inserted via site
// spanning both. It returns the corridor as a (layer, cell) chain (TileRefs
// with Idx 0 — the downstream region mask is cell-granular and never
// addresses individual tiles).
//
// Searching cells rather than tiles is what makes corridors stable under
// ECO edits: state ids are fixed functions of the grid, move costs are
// cell-center distances, and the expansion never reads tile shapes or
// indices — so re-partitioning a cell's tiles (a committed band shifting
// one pitch) cannot perturb equal-cost tie-breaking anywhere. Only a real
// connectivity change — a passage opening or closing — can alter the
// corridor, which is exactly the global-routing signal the paper's tile
// graph exists to provide.
func (m *Model) FindCorridor(from geom.Point, fromLayer int, to geom.Point, toLayer int, sites []ViaSite, viaCost float64) ([]TileRef, bool) {
	path, ok, _ := m.findCorridor(from, fromLayer, to, toLayer, sites, viaCost, false)
	return path, ok
}

// CorridorProof is the footprint evidence of one corridor search: the
// content hash of every (layer, cell) and via-site list the search read.
// While ProofValid holds, a live FindCorridor with the same arguments
// would re-derive the identical result bit for bit.
type CorridorProof struct {
	e *corEntry
}

// FindCorridorProof is FindCorridor plus a CorridorProof for speculative
// callers. The model must have a journal attached (AttachMemo or
// AttachJournal); without one the proof is nil.
func (m *Model) FindCorridorProof(from geom.Point, fromLayer int, to geom.Point, toLayer int, sites []ViaSite, viaCost float64) ([]TileRef, bool, *CorridorProof) {
	return m.findCorridor(from, fromLayer, to, toLayer, sites, viaCost, true)
}

// ProofValid reports whether the proof's entire footprint still matches
// the journal — i.e. no blocker committed since the search ran touched
// any cell content or via-site list it read.
func (m *Model) ProofValid(p *CorridorProof, sites []ViaSite) bool {
	if m.cj == nil || p == nil || p.e == nil {
		return false
	}
	return p.e.valid(m.cj, m.cj.ensureSiteHashes(m, sites))
}

func (m *Model) findCorridor(from geom.Point, fromLayer int, to geom.Point, toLayer int, sites []ViaSite, viaCost float64, wantProof bool) (path []TileRef, ok bool, proof *CorridorProof) {
	expanded := 0
	defer func() { m.noteSearch(ok, expanded) }()
	// Footprints are tracked for the memo and for proofs alike; a journal
	// attached without a memo tracks only when a proof was asked for.
	track := m.cj != nil && (m.cj.memo != nil || wantProof)
	// Memo consult: a recorded corridor whose cell-content and via-site
	// footprint still matches is re-derived bit for bit — serve it and skip
	// the snapshot and the tile-graph A* entirely. The served entry is its
	// own proof: lookup just revalidated its footprint against the journal.
	var ckey corKey
	var siteHash []uint64
	if track {
		siteHash = m.cj.ensureSiteHashes(m, sites)
	}
	if m.cj != nil && m.cj.memo != nil {
		ckey = m.corKeyFor(from, fromLayer, to, toLayer, viaCost)
		if e, hit := m.cj.memo.lookup(ckey, m.cj, siteHash); hit {
			// Replay the recorded effort so a traced run reads the same
			// corridor.expanded stream as a live search would have produced.
			expanded = e.expanded
			if wantProof {
				proof = &CorridorProof{e: e}
			}
			if !e.ok {
				return nil, false, proof
			}
			out := make([]TileRef, len(e.path))
			copy(out, e.path)
			return out, true, proof
		}
	}
	if track {
		m.cj.fpReset()
		// TileNear reads the tiles of the ring around each endpoint's cell.
		for _, c := range m.cellsTouching(geom.RectOf(from, from)) {
			m.fpMarkRing(fromLayer, c)
		}
		for _, c := range m.cellsTouching(geom.RectOf(to, to)) {
			m.fpMarkRing(toLayer, c)
		}
	}
	corStore := func(ok bool, path []TileRef) *CorridorProof {
		if !track {
			return nil
		}
		e := m.cj.snapshotEntry(siteHash, ok, path, expanded)
		if m.cj.memo != nil {
			m.cj.memo.store(ckey, e)
		}
		if !wantProof {
			return nil
		}
		return &CorridorProof{e: e}
	}
	startRef, ok1 := m.TileNear(fromLayer, from)
	goalRef, ok2 := m.TileNear(toLayer, to)
	if !ok1 || !ok2 {
		return nil, false, corStore(false, nil)
	}
	if track {
		// Endpoint component lookups read the rings of the resolved cells
		// (which TileNear may have picked a ring away from the query point).
		m.fpMarkRing(startRef.Layer, startRef.Cell)
		m.fpMarkRing(goalRef.Layer, goalRef.Cell)
	}
	ncells := m.CellsX * m.CellsY
	siteByCell := make(map[int][]ViaSite)
	for _, v := range sites {
		siteByCell[v.Cell] = append(siteByCell[v.Cell], v)
	}
	// States are (layer, cell, component): the component factor keeps the
	// graph honest about cells whose free space is internally split — a
	// corridor may pass through a walled cell only on the side its entry
	// tile can actually reach (labels are clamped to maxComp).
	stateOf := func(l, c, comp int) int { return (l*ncells+c)*maxComp + comp }
	compAt := func(l int, ref TileRef) int { return int(m.compOf(l, ref.Cell)[ref.Idx]) }
	startID := stateOf(startRef.Layer, startRef.Cell, compAt(startRef.Layer, startRef))
	goalID := stateOf(goalRef.Layer, goalRef.Cell, compAt(goalRef.Layer, goalRef))

	expand := func(u int, emit func(int, float64)) {
		expanded++
		lc := u / maxComp
		l, c, comp := lc/ncells, lc%ncells, u%maxComp
		if track {
			// Footprint: expanding here reads the ring's tiles (through the
			// reach masks) on this layer and this cell's site list.
			m.fpMarkRing(l, c)
			m.cj.spMark(c)
		}
		// Cross-cell moves from the reach masks: (rc, rcomp) is reachable
		// when any tile of this component shares a usable boundary with a
		// tile of rc's component rcomp. Emit in ring-slot order, then
		// component order, for deterministic tie-breaking.
		r := m.reachOf(l, c)
		center := m.cellBox(c).Center()
		cx, cy := c%m.CellsX, c/m.CellsX
		for s := range r.mask {
			bits := r.mask[s][comp]
			if bits == 0 {
				continue
			}
			rc := (cy+s/3-1)*m.CellsX + cx + s%3 - 1
			cost := geom.OctDist(center, m.cellBox(rc).Center())
			for rcomp := 0; bits != 0; rcomp, bits = rcomp+1, bits>>1 {
				if bits&1 != 0 {
					emit((l*ncells+rc)*maxComp+rcomp, cost)
				}
			}
		}
		// Layer moves at this cell's via sites: the site point must sit in
		// free space of this component and of the target layer.
		for _, v := range siteByCell[c] {
			ref, ok := m.TileAt(l, v.P)
			if !ok || ref.Cell != c || compAt(l, ref) != comp {
				continue
			}
			for _, nl := range []int{l - 1, l + 1} {
				if nl < v.L0 || nl > v.L1 || nl < 0 || nl >= m.D.WireLayers {
					continue
				}
				if track {
					m.fpMarkRing(nl, c)
				}
				nref, ok := m.TileAt(nl, v.P)
				if !ok || nref.Cell != c {
					continue
				}
				emit(stateOf(nl, c, compAt(nl, nref)), viaCost)
			}
		}
	}
	h := func(u int) float64 {
		lc := u / maxComp
		l, c := lc/ncells, lc%ncells
		// Cell-center based, matching the move costs: the estimate must not
		// read tile geometry or it would reintroduce the center-drift
		// sensitivity the cell graph removes.
		d := geom.OctDist(m.cellBox(c).Center(), to)
		dl := l - toLayer
		if dl < 0 {
			dl = -dl
		}
		return d*0.5 + float64(dl)*viaCost*0.5
	}
	ids, _, found := graphs.AStar(m.D.WireLayers*ncells*maxComp,
		[]graphs.StartState{{State: startID}},
		func(u int) bool { return u == goalID },
		expand, h)
	if !found {
		return nil, false, corStore(false, nil)
	}
	out := make([]TileRef, 0, len(ids))
	for i, id := range ids {
		l, c := id/maxComp/ncells, id/maxComp%ncells
		// Collapse component moves within one (layer, cell): the mask is
		// cell-granular, so duplicates carry no information.
		if i > 0 && len(out) > 0 {
			if last := out[len(out)-1]; last.Layer == l && last.Cell == c {
				continue
			}
		}
		out = append(out, TileRef{Layer: l, Cell: c})
	}
	return out, true, corStore(true, out)
}
