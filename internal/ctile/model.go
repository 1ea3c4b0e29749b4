// Package ctile implements the paper's Routing Graph Construction stage
// (Section III-C): global cells, frame partitioning by corner extension,
// the octagonal tile model for free-space decomposition under
// X-architecture blockages, tile adjacency, per-cell via insertion, and
// the incremental re-partitioning performed after each sequentially routed
// net.
package ctile

import (
	"context"
	"sort"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
	"rdlroute/internal/obs"
	"rdlroute/internal/par"
)

// Tile is one octagonal free-space tile on a wire layer.
type Tile struct {
	Region geom.Oct8
	Layer  int
	Cell   int // owning global cell index
}

// Model is the tile decomposition of a design's free routing space.
type Model struct {
	D      *design.Design
	CellsX int
	CellsY int
	clear  int64 // blockage growth radius: spacing + wireWidth/2

	// blockers[layer][cell]: clearance-grown blockage shapes clipped to cell.
	blockers [][][]geom.Oct8
	// tiles[layer][cell]: current decomposition; nil means dirty.
	tiles [][][]geom.Oct8
	// tileBB mirrors tiles with cached bounding boxes for quick rejects.
	tileBB [][][]geom.Rect
	// gen[layer][cell] counts re-partitions of the cell, validating reach.
	gen [][]uint32
	// comp[layer][cell] caches the cell's per-tile component labels (see
	// compOf); nil means not computed since the last re-partition.
	comp [][][]uint8
	// reach[layer][cell] caches the corridor graph's cross-cell moves, one
	// mask set per ring neighbour; see reachOf.
	reach [][]cellReach
	// minDim: tiles thinner than this in bounding box are dropped (too
	// narrow for any wire).
	minDim int64

	// tr, when non-nil, receives corridor-search effort; see SetTracer.
	// The counters below accumulate until FlushTrace emits them.
	tr                                          obs.Tracer
	searches, failures, reachRebuilds, adjTests int64

	// nearBuf is buildReach's scratch list of candidate neighbour tiles.
	nearBuf []int

	// cj, when non-nil, journals per-cell blocker content and memoizes
	// corridor searches across runs; see memo.go. Strictly observational.
	cj *corJournal
}

// NewModel builds the decomposition over the design with a cells×cells
// global-cell grid (the paper uses 30×30), seeded with the design's static
// shapes: obstacles on their layers, I/O pads on the top layer, bump pads
// on the bottom layer.
func NewModel(d *design.Design, cells int) *Model {
	if cells < 1 {
		cells = 1
	}
	m := &Model{
		D:      d,
		CellsX: cells,
		CellsY: cells,
		clear:  d.Rules.Spacing + d.Rules.WireWidth/2,
		minDim: d.Rules.WireWidth,
	}
	n := cells * cells
	m.blockers = make([][][]geom.Oct8, d.WireLayers)
	m.tiles = make([][][]geom.Oct8, d.WireLayers)
	m.tileBB = make([][][]geom.Rect, d.WireLayers)
	m.gen = make([][]uint32, d.WireLayers)
	m.comp = make([][][]uint8, d.WireLayers)
	m.reach = make([][]cellReach, d.WireLayers)
	for l := range m.blockers {
		m.blockers[l] = make([][]geom.Oct8, n)
		m.tiles[l] = make([][]geom.Oct8, n)
		m.tileBB[l] = make([][]geom.Rect, n)
		m.gen[l] = make([]uint32, n)
		m.comp[l] = make([][]uint8, n)
		m.reach[l] = make([]cellReach, n)
	}
	for _, o := range d.Obstacles {
		m.addBlocker(o.Layer, geom.OctFromRect(o.Box).Grow(m.clear))
	}
	for _, p := range d.IOPads {
		m.addBlocker(0, geom.OctFromRect(p.Box()).Grow(m.clear))
	}
	for _, p := range d.BumpPads {
		m.addBlocker(d.WireLayers-1, p.Oct().Grow(m.clear))
	}
	for _, v := range d.FixedVias {
		oct := v.Oct(d.Rules).Grow(m.clear)
		m.addBlocker(v.Slab, oct)
		m.addBlocker(v.Slab+1, oct)
	}
	return m
}

// CellBox returns the rectangle of global cell c.
func (m *Model) CellBox(c int) geom.Rect { return m.cellBox(c) }

// cellBox returns the rectangle of global cell c.
func (m *Model) cellBox(c int) geom.Rect {
	cx := c % m.CellsX
	cy := c / m.CellsX
	w := m.D.Outline.W()
	h := m.D.Outline.H()
	x0 := m.D.Outline.X0 + w*int64(cx)/int64(m.CellsX)
	x1 := m.D.Outline.X0 + w*int64(cx+1)/int64(m.CellsX)
	y0 := m.D.Outline.Y0 + h*int64(cy)/int64(m.CellsY)
	y1 := m.D.Outline.Y0 + h*int64(cy+1)/int64(m.CellsY)
	return geom.Rect{X0: x0, Y0: y0, X1: x1, Y1: y1}
}

// cellSpan maps an offset d from the outline origin, along an axis of
// extent w split into n cells as cellBox splits it, to the lowest-index
// cell whose closed span [w·i/n, w·(i+1)/n] contains d: the smallest i
// with ⌊w·(i+1)/n⌋ ≥ d, which is ⌈d·n/w⌉ − 1. Offsets outside [0, w]
// clamp to the first or last cell.
func cellSpan(d, w int64, n int) int {
	if d <= 0 || w <= 0 {
		return 0
	}
	return min(int((d*int64(n)+w-1)/w)-1, n-1)
}

// cellsTouching returns the indices of global cells intersecting the box.
// Each corner coordinate maps to the lowest-index cell containing it, so
// a box that only touches a shared cell boundary stays in the lower cell.
func (m *Model) cellsTouching(b geom.Rect) []int {
	o := m.D.Outline
	cx0, cx1 := cellSpan(b.X0-o.X0, o.W(), m.CellsX), cellSpan(b.X1-o.X0, o.W(), m.CellsX)
	cy0, cy1 := cellSpan(b.Y0-o.Y0, o.H(), m.CellsY), cellSpan(b.Y1-o.Y0, o.H(), m.CellsY)
	var out []int
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			out = append(out, cy*m.CellsX+cx)
		}
	}
	return out
}

// addBlocker records a grown blockage shape and dirties affected cells.
func (m *Model) addBlocker(layer int, shape geom.Oct8) {
	if layer < 0 || layer >= len(m.blockers) {
		return
	}
	bb := shape.BBox()
	for _, c := range m.cellsTouching(bb) {
		box := m.cellBox(c)
		if shape.Intersects(geom.OctFromRect(box)) {
			m.blockers[layer][c] = append(m.blockers[layer][c], shape)
			m.tiles[layer][c] = nil // dirty
			if m.cj != nil {
				m.cj.fold(layer, c, m.CellsX*m.CellsY, cellClampHash(shape, box))
			}
		}
	}
}

// AddWire inserts a committed wire's clearance band and re-partitions the
// frames it crosses (the incremental update of Section III-D).
func (m *Model) AddWire(layer int, seg geom.Segment) {
	m.addBlocker(layer, geom.OctAroundSegment(seg, m.clear+m.D.Rules.WireWidth/2))
}

// AddVia inserts a committed via's clearance shape on both wire layers it
// lands on.
func (m *Model) AddVia(slab int, center geom.Point) {
	oct := geom.RegularOct(center, m.D.Rules.ViaWidth).Grow(m.clear)
	m.addBlocker(slab, oct)
	m.addBlocker(slab+1, oct)
}

// Tiles returns the (lazily rebuilt) tile set of one layer and cell. Tiles
// are stored in canonical form.
func (m *Model) Tiles(layer, cell int) []geom.Oct8 {
	if t := m.tiles[layer][cell]; t != nil {
		return t
	}
	t := m.buildCell(layer, cell)
	if t == nil {
		// Distinguish "built, empty" from "dirty": a nil result would be
		// rebuilt on every call, bumping gen and invalidating the reach
		// masks of the whole ring each time.
		t = []geom.Oct8{}
	}
	m.tiles[layer][cell] = t
	bb := make([]geom.Rect, len(t))
	for i := range t {
		bb[i] = geom.Rect{X0: t[i].XLo, Y0: t[i].YLo, X1: t[i].XHi, Y1: t[i].YHi}
	}
	m.tileBB[layer][cell] = bb
	m.gen[layer][cell]++
	m.comp[layer][cell] = nil
	return t
}

// BuildAll warms the tile decomposition of every (layer, cell) on the
// worker pool (see internal/par; workers 0 = GOMAXPROCS). Each index owns
// exactly one cell's cache slots and buildCell is a pure function of the
// cell's blockers, so concurrent builds never share state and the warmed
// caches are identical to what lazy Tiles calls would have produced. Call
// it only while no other goroutine uses the model; afterwards the model
// is warm but remains single-goroutine (via insertion and the corridor
// graph caches still mutate lazily).
func (m *Model) BuildAll(ctx context.Context, workers int) error {
	cells := m.CellsX * m.CellsY
	return par.ForEach(ctx, workers, len(m.blockers)*cells, func(i int) error {
		m.Tiles(i/cells, i%cells)
		return nil
	})
}

// TileBBs returns the cached bounding boxes parallel to Tiles.
func (m *Model) TileBBs(layer, cell int) []geom.Rect {
	m.Tiles(layer, cell)
	return m.tileBB[layer][cell]
}

// buildCell performs frame partitioning then octagonal-tile subtraction
// for one (layer, cell).
func (m *Model) buildCell(layer, cell int) []geom.Oct8 {
	box := m.cellBox(cell)
	blockers := m.blockers[layer][cell]

	// Frame partitioning: extend vertical and horizontal lines from the
	// corner points (bounding boxes) of blockers across the cell.
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

// TileRef addresses one tile.
type TileRef struct {
	Layer, Cell, Idx int
}

// TileAt returns the tile containing p on the layer, if any.
func (m *Model) TileAt(layer int, p geom.Point) (TileRef, bool) {
	if !m.D.Outline.Contains(p) {
		return TileRef{}, false
	}
	for _, c := range m.cellsTouching(geom.RectOf(p, p)) {
		for i, t := range m.Tiles(layer, c) {
			if t.Contains(p) {
				return TileRef{layer, c, i}, true
			}
		}
	}
	return TileRef{}, false
}

// Region returns the tile's region.
func (m *Model) Region(r TileRef) geom.Oct8 { return m.Tiles(r.Layer, r.Cell)[r.Idx] }

// TileCount returns the number of tiles on the layer (rebuilding as
// needed) — the graph-size statistic the octagonal model is about.
func (m *Model) TileCount(layer int) int {
	total := 0
	for c := 0; c < m.CellsX*m.CellsY; c++ {
		total += len(m.Tiles(layer, c))
	}
	return total
}

// SetTracer attaches an observability tracer for corridor-search effort:
// a corridor.expanded observation per FindCorridor call, and the counters
// FlushTrace emits. Disabled tracers are dropped so the search never pays
// for them.
func (m *Model) SetTracer(t obs.Tracer) {
	if t != nil && t.Enabled() {
		m.tr = t
	} else {
		m.tr = nil
	}
	m.FlushTrace()
}

// noteSearch records one corridor search: its expansions as an
// observation, its outcome in the counters FlushTrace emits.
func (m *Model) noteSearch(ok bool, expanded int) {
	m.searches++
	if !ok {
		m.failures++
	}
	if m.tr != nil {
		m.tr.Observe("corridor.expanded", float64(expanded))
	}
}

// FlushTrace emits the corridor counters accumulated since the last flush
// — corridor.searches, corridor.failures, and the ctile.reach_rebuilds and
// ctile.adjacency_tests spent keeping the corridor graph current — then
// resets them. The router flushes once at the end of stage 4, so a trace
// carries one record per counter per route, not per search.
func (m *Model) FlushTrace() {
	if m.tr != nil {
		m.tr.Count("corridor.searches", m.searches)
		m.tr.Count("corridor.failures", m.failures)
		m.tr.Count("ctile.reach_rebuilds", m.reachRebuilds)
		m.tr.Count("ctile.adjacency_tests", m.adjTests)
	}
	m.searches, m.failures, m.reachRebuilds, m.adjTests = 0, 0, 0, 0
}

// TraceStats emits one "ctile.layer" event per wire layer — tile count
// and the via sites usable on the layer — plus graph-wide counters, when
// the tracer is enabled. The router calls it after stage 3 so traces
// expose the routing graph the sequential stage searches.
func (m *Model) TraceStats(tr obs.Tracer, sites []ViaSite) {
	if tr == nil || !tr.Enabled() {
		return
	}
	totalTiles := 0
	for l := 0; l < m.D.WireLayers; l++ {
		tiles := m.TileCount(l)
		totalTiles += tiles
		siteCount := 0
		for _, s := range sites {
			if s.L0 <= l && l <= s.L1 {
				siteCount++
			}
		}
		tr.Event("ctile.layer",
			obs.Int("layer", l),
			obs.Int("tiles", tiles),
			obs.Int("via_sites", siteCount))
	}
	tr.Count("ctile.tiles", int64(totalTiles))
	tr.Count("ctile.via_sites", int64(len(sites)))
}

func uniq(v []int64) []int64 {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
