// Package fanout implements the paper's Preprocessing stage (Section
// III-A): peripheral I/O identification with fan-out access points,
// Ohtsuki-style partitioning of the fan-out region with Lee-style grid
// merging, the fan-out grid graph with track capacities, its minimum
// spanning tree, the circular model built by walking a closed shape
// enclosing the MST, and the chord weights of Eq. (2).
package fanout

import (
	"fmt"
	"math"
	"sort"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
)

// Config tunes preprocessing.
type Config struct {
	// PeripheralDist is the maximum distance from a pad center to its chip
	// boundary for the pad to count as peripheral I/O.
	PeripheralDist int64
	// TrackPitch is the center-to-center pitch of parallel wires, used to
	// convert border lengths into edge capacities. Zero means
	// WireWidth + Spacing from the design rules.
	TrackPitch int64
}

// DefaultConfig returns the configuration used by the router.
func DefaultConfig() Config {
	return Config{PeripheralDist: 36}
}

// Grid is a merged fan-out grid: one vertex of the fan-out grid graph.
type Grid struct {
	ID  int
	Box geom.Rect
}

// AccessPoint is a peripheral pad's projection onto its chip boundary, the
// point where the net enters the fan-out region.
type AccessPoint struct {
	Pad   int        // I/O pad index in the design
	Point geom.Point // on the chip boundary
	Side  geom.SegDir
	Grid  int // fan-out grid the access point opens into
}

// peripheralSide returns the nearest chip-boundary side for the pad and
// whether the pad is within dist of the boundary.
func peripheralSide(box geom.Rect, c geom.Point, dist int64) (geom.SegDir, bool) {
	dW := c.X - box.X0
	dE := box.X1 - c.X
	dS := c.Y - box.Y0
	dN := box.Y1 - c.Y
	min := geom.Min64(geom.Min64(dW, dE), geom.Min64(dS, dN))
	if min > dist {
		return geom.SegDir{}, false
	}
	switch min {
	case dW:
		return geom.SegDir{DX: -1}, true
	case dE:
		return geom.SegDir{DX: 1}, true
	case dS:
		return geom.SegDir{DY: -1}, true
	default:
		return geom.SegDir{DY: 1}, true
	}
}

// projectToBoundary returns the pad center projected to the chip boundary
// along the given outward side.
func projectToBoundary(box geom.Rect, c geom.Point, side geom.SegDir) geom.Point {
	switch {
	case side.DX < 0:
		return geom.Pt(box.X0, c.Y)
	case side.DX > 0:
		return geom.Pt(box.X1, c.Y)
	case side.DY < 0:
		return geom.Pt(c.X, box.Y0)
	default:
		return geom.Pt(c.X, box.Y1)
	}
}

// partitionFanOut splits the fan-out region (outline minus chip boxes)
// into merged rectangular grids. It refines Ohtsuki's boundary-extension
// partition by using every chip boundary coordinate as a cut line, then
// merges fragments row-wise and column-wise (after Lee et al.) so grids
// stay large.
func partitionFanOut(d *design.Design) []Grid {
	xs := []int64{d.Outline.X0, d.Outline.X1}
	ys := []int64{d.Outline.Y0, d.Outline.Y1}
	for _, c := range d.Chips {
		xs = append(xs, c.Box.X0, c.Box.X1)
		ys = append(ys, c.Box.Y0, c.Box.Y1)
	}
	xs = uniqSorted(xs)
	ys = uniqSorted(ys)

	nx, ny := len(xs)-1, len(ys)-1
	fanIn := make([][]bool, nx)
	for i := range fanIn {
		fanIn[i] = make([]bool, ny)
		for j := range fanIn[i] {
			cell := geom.Rect{X0: xs[i], Y0: ys[j], X1: xs[i+1], Y1: ys[j+1]}
			for _, c := range d.Chips {
				if c.Box.Overlaps(cell) {
					fanIn[i][j] = true
					break
				}
			}
		}
	}

	// Row-wise merge into horizontal strips, then merge vertically adjacent
	// strips with identical x-extent.
	type strip struct {
		i0, i1, j int // x-cell range [i0, i1), row j
	}
	var strips []strip
	for j := 0; j < ny; j++ {
		i := 0
		for i < nx {
			if fanIn[i][j] {
				i++
				continue
			}
			i0 := i
			for i < nx && !fanIn[i][j] {
				i++
			}
			strips = append(strips, strip{i0, i, j})
		}
	}
	type key struct{ i0, i1 int }
	open := map[key]geom.Rect{} // growing rectangles by x-extent
	lastRow := map[key]int{}
	var out []geom.Rect
	// Strips are produced in row order; merge consecutive rows.
	for _, s := range strips {
		k := key{s.i0, s.i1}
		box := geom.Rect{X0: xs[s.i0], Y0: ys[s.j], X1: xs[s.i1], Y1: ys[s.j+1]}
		if r, ok := open[k]; ok && lastRow[k] == s.j-1 {
			r.Y1 = box.Y1
			open[k] = r
			lastRow[k] = s.j
			continue
		}
		if r, ok := open[k]; ok {
			out = append(out, r)
		}
		open[k] = box
		lastRow[k] = s.j
	}
	for _, r := range open {
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Y0 != out[b].Y0 {
			return out[a].Y0 < out[b].Y0
		}
		return out[a].X0 < out[b].X0
	})
	grids := make([]Grid, len(out))
	for i, r := range out {
		grids[i] = Grid{ID: i, Box: r}
	}
	return grids
}

func uniqSorted(v []int64) []int64 {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// findGrid returns the grid containing p, preferring the lowest ID when p
// lies on a shared border; −1 when p is outside every grid.
func findGrid(grids []Grid, p geom.Point) int {
	for _, g := range grids {
		if g.Box.Contains(p) {
			return g.ID
		}
	}
	return -1
}

// accessPoints computes peripheral access points for every I/O pad that
// qualifies. Pads deeper inside the chip than cfg.PeripheralDist get none.
func accessPoints(d *design.Design, grids []Grid, cfg Config) (map[int]AccessPoint, error) {
	out := make(map[int]AccessPoint)
	for i, p := range d.IOPads {
		if p.Chip < 0 {
			continue
		}
		box := d.Chips[p.Chip].Box
		side, ok := peripheralSide(box, p.Center, cfg.PeripheralDist)
		if !ok {
			continue
		}
		ap := projectToBoundary(box, p.Center, side)
		// Probe one unit outward to land inside the adjacent fan-out grid.
		probe := ap.Add(geom.Pt(side.DX, side.DY))
		g := findGrid(grids, probe)
		if g < 0 {
			return nil, fmt.Errorf("fanout: access point %v of pad %d opens into no grid", ap, i)
		}
		out[i] = AccessPoint{Pad: i, Point: ap, Side: side, Grid: g}
	}
	return out, nil
}

// gridBorder returns the shared border length of two grid boxes (0 when
// they only touch at a corner or not at all).
func gridBorder(a, b geom.Rect) int64 {
	if a.X1 == b.X0 || b.X1 == a.X0 { // vertical border
		lo := geom.Max64(a.Y0, b.Y0)
		hi := geom.Min64(a.Y1, b.Y1)
		if hi > lo {
			return hi - lo
		}
		return 0
	}
	if a.Y1 == b.Y0 || b.Y1 == a.Y0 { // horizontal border
		lo := geom.Max64(a.X0, b.X0)
		hi := geom.Min64(a.X1, b.X1)
		if hi > lo {
			return hi - lo
		}
		return 0
	}
	return 0
}

// angleOf returns the atan2 angle of q relative to p.
func angleOf(p, q geom.Point) float64 {
	return math.Atan2(float64(q.Y-p.Y), float64(q.X-p.X))
}
