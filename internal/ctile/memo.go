package ctile

import (
	"math"

	"rdlroute/internal/geom"
)

// Corridor-search memoization for incremental (ECO) rerouting — the tile
// graph's counterpart of the lattice search memo (internal/lattice memo.go).
//
// Every observable the corridor A* reads is a pure function of per-(layer,
// cell) blocker lists: Tiles, TileBBs, the component labels and the reach
// masks are all derived from the blockers of a cell and its ring, and the
// per-cell via sites are an explicit input. The model therefore keeps a
// journal — one order-sensitive content hash per (layer, cell), folded
// over every blocker the cell ever received — and a recorded corridor
// search stores the hashes of every (layer, cell) whose content it read
// plus the via-site content of every cell it expanded through. A hit is
// served only when all of them still match, which proves a live search
// would re-derive the identical tile path.
//
// Corridor A* states are (layer, cell) pairs with grid-derived ids, so the
// footprint is naturally local: a search's outcome depends only on the
// connectivity and via sites of the cells it expanded through (plus the
// endpoint rings TileNear scans), never on distant cells' content.
type CorridorMemo struct {
	prev, cur map[corKey][]*corEntry
	hits      int
	misses    int
	missNoKey int
	bytes     int64
}

// NewCorridorMemo returns an empty memo: the first run only records.
func NewCorridorMemo() *CorridorMemo {
	return &CorridorMemo{prev: map[corKey][]*corEntry{}, cur: map[corKey][]*corEntry{}}
}

// Next returns the memo for a follow-up run: this run's recordings become
// the read-only prev of the next.
func (m *CorridorMemo) Next() *CorridorMemo {
	return &CorridorMemo{prev: m.cur, cur: map[corKey][]*corEntry{}}
}

// Stats returns the hit/miss counters of the runs this memo was attached to.
func (m *CorridorMemo) Stats() (hits, misses int) { return m.hits, m.misses }

// MissKinds splits the miss counter: noKey misses had no recording under
// the request key, stale ones had recordings with changed cell content.
func (m *CorridorMemo) MissKinds() (noKey, stale int) {
	return m.missNoKey, m.misses - m.missNoKey
}

// SizeBytes approximates the heap retained by this run's recordings.
func (m *CorridorMemo) SizeBytes() int64 { return m.bytes }

type corKey struct{ a, b uint64 }

type corEntry struct {
	ok       bool
	path     []TileRef
	expanded int // corridor states the recorded search expanded
	// cells/hashes: journal content of every (layer, cell) the search read,
	// addressed as layer*ncells+cell.
	cells  []int32
	hashes []uint64
	// siteCells/siteHashes: via-site content of every cell the search
	// expanded a tile in (sites are read per popped cell).
	siteCells  []int32
	siteHashes []uint64
}

const corEntryBase = 160

func corEntrySize(e *corEntry) int64 {
	return corEntryBase + int64(len(e.path))*24 +
		int64(len(e.cells))*12 + int64(len(e.siteCells))*12
}

// valid reports whether every (layer, cell) content hash and via-site hash
// the recorded search read still matches the journal — the proof that a
// live search now would re-derive the identical result.
func (e *corEntry) valid(cj *corJournal, siteHash []uint64) bool {
	for n, ci := range e.cells {
		if cj.cells[ci] != e.hashes[n] {
			return false
		}
	}
	for n, c := range e.siteCells {
		if siteHash[c] != e.siteHashes[n] {
			return false
		}
	}
	return true
}

func (m *CorridorMemo) lookup(k corKey, cj *corJournal, siteHash []uint64) (*corEntry, bool) {
	for _, e := range m.cur[k] {
		if e.valid(cj, siteHash) {
			m.hits++
			return e, true
		}
	}
	for _, e := range m.prev[k] {
		if e.valid(cj, siteHash) {
			m.hits++
			m.cur[k] = append(m.cur[k], e)
			m.bytes += corEntrySize(e)
			return e, true
		}
	}
	m.misses++
	if len(m.cur[k]) == 0 && len(m.prev[k]) == 0 {
		m.missNoKey++
	}
	return nil, false
}

func (m *CorridorMemo) store(k corKey, e *corEntry) {
	m.cur[k] = append(m.cur[k], e)
	m.bytes += corEntrySize(e)
}

// corJournal tracks per-(layer, cell) blocker content for the memo, plus
// reusable scratch for one search's footprint (FindCorridor calls are
// sequential within a run). memo may be nil (AttachJournal): content
// hashing and footprints run for corridor-proof validation only, with
// nothing recorded across runs.
type corJournal struct {
	memo  *CorridorMemo
	cells []uint64 // [layer*ncells + cell] content hash

	// Via-site hashes per cell, rebuilt when the sites slice changes (the
	// router computes sites once per run and passes the same slice to every
	// FindCorridor call).
	siteHash []uint64
	sitesRef []ViaSite

	// Footprint scratch: cell-content reads and site reads of one search.
	fpBits []uint64
	fpList []int32
	spBits []uint64
	spList []int32
}

const (
	corFnvOffset = 14695981039346656037
	corFnvPrime  = 1099511628211
)

// corOpHash folds words into one well-distributed journal word (same
// construction as the lattice journal's opHash).
func corOpHash(words ...uint64) uint64 {
	h := uint64(corFnvOffset)
	for _, w := range words {
		h = (h ^ w) * corFnvPrime
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return h
}

// cellClampHash hashes the part of a blocker that can influence one cell's
// tiles. buildCell consumes a blocker through two paths only: its canonical
// bbox corners seed frame lines when strictly inside the cell box, and
// SubtractOct applies its eight canonical half-plane bounds as monotone
// min/max clamps against pieces confined to the cell. Along both paths,
// every bound value outside the cell's achievable range behaves exactly
// like the range endpoint (the frame-line test fails either way; the clamp
// either never binds or empties the piece either way), so clamping each
// canonical bound to the cell's range collapses precisely the values the
// cell cannot distinguish: equal clamped bounds imply an identical cell
// partition. This keeps a cell's journal hash stable when a long clearance
// band crossing it moves an endpoint several cells away.
func cellClampHash(shape geom.Oct8, box geom.Rect) uint64 {
	c := shape.Canonical()
	cl := func(v, lo, hi int64) uint64 {
		if v < lo {
			v = lo
		} else if v > hi {
			v = hi
		}
		return uint64(v)
	}
	sLo, sHi := box.X0+box.Y0, box.X1+box.Y1
	dLo, dHi := box.Y0-box.X1, box.Y1-box.X0
	return corOpHash(
		cl(c.XLo, box.X0, box.X1), cl(c.XHi, box.X0, box.X1),
		cl(c.YLo, box.Y0, box.Y1), cl(c.YHi, box.Y0, box.Y1),
		cl(c.SLo, sLo, sHi), cl(c.SHi, sLo, sHi),
		cl(c.DLo, dLo, dHi), cl(c.DHi, dLo, dHi))
}

// fold mixes one blocker op into a cell's content hash, order-sensitively.
func (cj *corJournal) fold(layer, cell, ncells int, h uint64) {
	k := layer*ncells + cell
	cj.cells[k] = (cj.cells[k]^h)*corFnvPrime ^ (h >> 17)
}

// AttachMemo enables corridor memoization on this model. It may be called at
// any point before the first FindCorridor: the blockers already present are
// folded into the journal here (per cell, in append order — the lists are
// the ground truth the tiles derive from) and later addBlocker calls fold
// incrementally. A nil memo detaches.
func (m *Model) AttachMemo(cm *CorridorMemo) {
	if cm == nil {
		m.cj = nil
		return
	}
	m.attachJournal(cm)
}

// AttachJournal enables cell-content journaling without a memo: corridor
// searches gain footprints and proofs (FindCorridorProof/ProofValid) but
// nothing is recorded across runs. The speculative router uses this when
// no corridor memo was supplied.
func (m *Model) AttachJournal() { m.attachJournal(nil) }

func (m *Model) attachJournal(cm *CorridorMemo) {
	n := m.CellsX * m.CellsY
	cj := &corJournal{memo: cm, cells: make([]uint64, m.D.WireLayers*n)}
	for k := range cj.cells {
		cj.cells[k] = corFnvOffset
	}
	for l := range m.blockers {
		for c, shapes := range m.blockers[l] {
			box := m.cellBox(c)
			for _, s := range shapes {
				cj.fold(l, c, n, cellClampHash(s, box))
			}
		}
	}
	cj.fpBits = make([]uint64, (m.D.WireLayers*n+63)/64)
	cj.spBits = make([]uint64, (n+63)/64)
	m.cj = cj
}

// CorridorMemoAttached returns the attached memo, or nil.
func (m *Model) CorridorMemoAttached() *CorridorMemo {
	if m.cj == nil {
		return nil
	}
	return m.cj.memo
}

// ensureSiteHashes returns the per-cell via-site content hashes for the
// given sites slice, rebuilding the cache when the slice changes.
func (cj *corJournal) ensureSiteHashes(m *Model, sites []ViaSite) []uint64 {
	same := cj.siteHash != nil && len(sites) == len(cj.sitesRef) &&
		(len(sites) == 0 || &sites[0] == &cj.sitesRef[0])
	if same {
		return cj.siteHash
	}
	n := m.CellsX * m.CellsY
	if cj.siteHash == nil {
		cj.siteHash = make([]uint64, n)
	} else {
		for i := range cj.siteHash {
			cj.siteHash[i] = 0
		}
	}
	for _, v := range sites {
		if v.Cell >= 0 && v.Cell < n {
			cj.siteHash[v.Cell] = corOpHash(uint64(v.Cell),
				uint64(v.P.X), uint64(v.P.Y), uint64(v.L0), uint64(v.L1))
		}
	}
	cj.sitesRef = sites
	return cj.siteHash
}

func (cj *corJournal) fpReset() {
	for _, k := range cj.fpList {
		cj.fpBits[k>>6] &^= 1 << (uint(k) & 63)
	}
	cj.fpList = cj.fpList[:0]
	for _, k := range cj.spList {
		cj.spBits[k>>6] &^= 1 << (uint(k) & 63)
	}
	cj.spList = cj.spList[:0]
}

// fpMarkRing records that the search read the content of the cell's ring on
// layers [layer−1, layer+1]: tile expansion reads the ring's tiles and
// reach masks on its own layer, and via moves probe tiles and component
// labels one layer up and down.
func (m *Model) fpMarkRing(layer, cell int) {
	cj := m.cj
	n := m.CellsX * m.CellsY
	l0, l1 := layer-1, layer+1
	if l0 < 0 {
		l0 = 0
	}
	if l1 > m.D.WireLayers-1 {
		l1 = m.D.WireLayers - 1
	}
	for _, rc := range m.neighborCells(cell) {
		for l := l0; l <= l1; l++ {
			k := int32(l*n + rc)
			if cj.fpBits[k>>6]&(1<<(uint(k)&63)) == 0 {
				cj.fpBits[k>>6] |= 1 << (uint(k) & 63)
				cj.fpList = append(cj.fpList, k)
			}
		}
	}
}

// spMark records that the search read the via sites of one cell.
func (cj *corJournal) spMark(cell int) {
	k := int32(cell)
	if cj.spBits[k>>6]&(1<<(uint(k)&63)) == 0 {
		cj.spBits[k>>6] |= 1 << (uint(k) & 63)
		cj.spList = append(cj.spList, k)
	}
}

// snapshotEntry freezes the footprint scratch into a memo entry.
func (cj *corJournal) snapshotEntry(siteHash []uint64, ok bool, path []TileRef, expanded int) *corEntry {
	e := &corEntry{ok: ok, expanded: expanded}
	if len(path) > 0 {
		e.path = make([]TileRef, len(path))
		copy(e.path, path)
	}
	e.cells = make([]int32, len(cj.fpList))
	e.hashes = make([]uint64, len(cj.fpList))
	for n, k := range cj.fpList {
		e.cells[n] = k
		e.hashes[n] = cj.cells[k]
	}
	e.siteCells = make([]int32, len(cj.spList))
	e.siteHashes = make([]uint64, len(cj.spList))
	for n, k := range cj.spList {
		e.siteCells[n] = k
		e.siteHashes[n] = siteHash[k]
	}
	return e
}

// corKeyFor hashes the request-determined inputs of a corridor search: the
// endpoints, layers, via cost and the model's frame (grid, outline, rules-
// derived clearances). Cell and site content is proven by the footprint.
func (m *Model) corKeyFor(from geom.Point, fromLayer int, to geom.Point, toLayer int, viaCost float64) corKey {
	a := uint64(corFnvOffset)
	b := uint64(0x9e3779b97f4a7c15)
	mix := func(v uint64) {
		a = (a ^ v) * corFnvPrime
		b += v + 0x9e3779b97f4a7c15
		b = (b ^ (b >> 31)) * 0xbf58476d1ce4e5b9
		b ^= b >> 27
	}
	mix(uint64(m.CellsX)<<32 | uint64(m.CellsY))
	mix(uint64(m.D.WireLayers))
	mix(uint64(m.D.Outline.X0))
	mix(uint64(m.D.Outline.Y0))
	mix(uint64(m.D.Outline.X1))
	mix(uint64(m.D.Outline.Y1))
	mix(uint64(m.clear))
	mix(uint64(m.minDim))
	mix(uint64(from.X))
	mix(uint64(from.Y))
	mix(uint64(to.X))
	mix(uint64(to.Y))
	mix(uint64(fromLayer)<<32 | uint64(toLayer))
	mix(math.Float64bits(viaCost))
	return corKey{a, b}
}
