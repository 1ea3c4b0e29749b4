package lattice

import "rdlroute/internal/geom"

// RegionMask is a routing region rasterized at lattice resolution: one
// bit per (layer, node), indexed like wireOcc. The router builds one per
// net — rasterizing corridor octagons or the chip/fan-out predicate once
// — so the A* inner loop tests a bit instead of re-evaluating a geometric
// closure for every probed neighbor. A clear bit means the node is
// disallowed (terminals are exempted by the search itself).
type RegionMask struct {
	nx, ny, layers int
	x0, y0         int64
	pitch          int64
	bits           []uint64
}

// NewRegionMask returns an empty (all-disallowed) mask sized to the
// lattice.
func (la *Lattice) NewRegionMask() *RegionMask {
	n := la.Layers * la.NX * la.NY
	return &RegionMask{
		nx: la.NX, ny: la.NY, layers: la.Layers,
		x0: la.X0, y0: la.Y0, pitch: la.Pitch,
		bits: make([]uint64, (n+63)/64),
	}
}

// Allowed reports whether the node (layer l, indices i,j) is in the
// region. Out-of-range layers are disallowed.
func (m *RegionMask) Allowed(l, i, j int) bool {
	if l < 0 || l >= m.layers {
		return false
	}
	k := (l*m.ny+j)*m.nx + i
	return m.bits[k>>6]&(1<<(uint(k)&63)) != 0
}

// allowRun sets the bits for nodes i in [ia, ib] of row j on layer l,
// clamping to the lattice. Word-sized fills keep rasterization cheap.
func (m *RegionMask) allowRun(l, j, ia, ib int) { m.setRun(l, j, ia, ib, true) }

// clearRun clears the same range.
func (m *RegionMask) clearRun(l, j, ia, ib int) { m.setRun(l, j, ia, ib, false) }

func (m *RegionMask) setRun(l, j, ia, ib int, v bool) {
	if j < 0 || j >= m.ny || l < 0 || l >= m.layers {
		return
	}
	if ia < 0 {
		ia = 0
	}
	if ib >= m.nx {
		ib = m.nx - 1
	}
	if ia > ib {
		return
	}
	base := (l*m.ny + j) * m.nx
	lo, hi := base+ia, base+ib
	wlo, whi := lo>>6, hi>>6
	mlo := ^uint64(0) << (uint(lo) & 63)
	mhi := ^uint64(0) >> (63 - uint(hi)&63)
	if wlo == whi {
		if v {
			m.bits[wlo] |= mlo & mhi
		} else {
			m.bits[wlo] &^= mlo & mhi
		}
		return
	}
	if v {
		m.bits[wlo] |= mlo
		for w := wlo + 1; w < whi; w++ {
			m.bits[w] = ^uint64(0)
		}
		m.bits[whi] |= mhi
	} else {
		m.bits[wlo] &^= mlo
		for w := wlo + 1; w < whi; w++ {
			m.bits[w] = 0
		}
		m.bits[whi] &^= mhi
	}
}

// nodeCeil returns the smallest node index whose coordinate is ≥ v,
// given the axis origin.
func nodeCeil(v, origin, pitch int64) int {
	d := v - origin
	if d <= 0 {
		// Negative coordinates round toward the origin: node 0 is the
		// first candidate, and the caller clamps.
		if d%pitch == 0 {
			return int(d / pitch)
		}
		return int(d / pitch) // trunc toward zero == ceil for negatives
	}
	return int((d + pitch - 1) / pitch)
}

// nodeFloor returns the largest node index whose coordinate is ≤ v.
func nodeFloor(v, origin, pitch int64) int {
	d := v - origin
	if d < 0 {
		if d%pitch == 0 {
			return int(d / pitch)
		}
		return int(d/pitch) - 1
	}
	return int(d / pitch)
}

// AllowOct rasterizes the octagon onto layer l: every lattice node the
// canonical region contains becomes allowed. Row by row, the eight
// half-plane bounds reduce to one x-interval, so rasterization is
// O(rows), not O(rows·cols).
func (m *RegionMask) AllowOct(l int, o geom.Oct8) {
	c := o.Canonical()
	if c.XLo > c.XHi || c.YLo > c.YHi || c.SLo > c.SHi || c.DLo > c.DHi {
		return
	}
	j0 := nodeCeil(c.YLo, m.y0, m.pitch)
	j1 := nodeFloor(c.YHi, m.y0, m.pitch)
	if j0 < 0 {
		j0 = 0
	}
	if j1 >= m.ny {
		j1 = m.ny - 1
	}
	for j := j0; j <= j1; j++ {
		y := m.y0 + int64(j)*m.pitch
		xlo := geom.Max64(c.XLo, geom.Max64(c.SLo-y, y-c.DHi))
		xhi := geom.Min64(c.XHi, geom.Min64(c.SHi-y, y-c.DLo))
		if xlo > xhi {
			continue
		}
		m.allowRun(l, j, nodeCeil(xlo, m.x0, m.pitch), nodeFloor(xhi, m.x0, m.pitch))
	}
}

// AllowRect rasterizes the rectangle (inclusive bounds, matching
// Rect.Contains) onto layer l.
func (m *RegionMask) AllowRect(l int, r geom.Rect) {
	m.rectRun(l, r, true)
}

// ClearRect removes the rectangle's nodes from layer l, e.g. a foreign
// chip's fan-in region carved out of the fan-out mask.
func (m *RegionMask) ClearRect(l int, r geom.Rect) {
	m.rectRun(l, r, false)
}

func (m *RegionMask) rectRun(l int, r geom.Rect, v bool) {
	if r.Empty() {
		return
	}
	j0 := nodeCeil(r.Y0, m.y0, m.pitch)
	j1 := nodeFloor(r.Y1, m.y0, m.pitch)
	ia := nodeCeil(r.X0, m.x0, m.pitch)
	ib := nodeFloor(r.X1, m.x0, m.pitch)
	for j := j0; j <= j1; j++ {
		m.setRun(l, j, ia, ib, v)
	}
}

// AllowWindow fills the inclusive node-index window on layer l.
func (m *RegionMask) AllowWindow(l, i0, j0, i1, j1 int) {
	for j := j0; j <= j1; j++ {
		m.allowRun(l, j, i0, i1)
	}
}
