// Package drc is the design-rule checker used by the test suite, the
// benchmark harness and the CLI to validate routed layouts against Section
// II-B's rules: octilinearity, the routing-angle constraint, the
// non-crossing constraint, minimum spacing between components of different
// nets, and net connectivity.
package drc

import (
	"context"
	"fmt"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
	"rdlroute/internal/layout"
	"rdlroute/internal/par"
)

// Violation is one design-rule violation.
type Violation struct {
	Kind   string // "octilinear", "turn", "crossing", "spacing", "connectivity"
	Detail string
	Layer  int
	Where  geom.Point
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%s @ layer %d %v: %s", v.Kind, v.Layer, v.Where, v.Detail)
}

// item is a shaped component for spacing checks.
type item struct {
	net   int // −1 for netless blockages
	poly  geom.ConvexPoly
	bbox  geom.Rect
	desc  string
	layer int
}

// Check validates the layout and returns every violation found. An empty
// result means the layout is clean. The spacing/crossing pair scan runs on
// GOMAXPROCS workers; every sub-check is index-addressed — item i scans
// only pairs (i, j>i) from its own spatial-hash buckets — so the
// violations come back in the same deterministic (layer, item, partner)
// order at every worker count.
func Check(l *layout.Layout) []Violation {
	var out []Violation
	out = append(out, checkGeometry(l)...)
	out = append(out, checkSpacingAndCrossing(l)...)
	out = append(out, checkConnectivity(l)...)
	return out
}

// checkGeometry verifies octilinearity and the routing-angle constraint.
func checkGeometry(l *layout.Layout) []Violation {
	var out []Violation
	for i := range l.Routes {
		r := &l.Routes[i]
		for j := 0; j+1 < len(r.Pts); j++ {
			s := geom.Seg(r.Pts[j], r.Pts[j+1])
			if s.Degenerate() {
				continue
			}
			if !s.Octilinear() {
				out = append(out, Violation{
					Kind: "octilinear", Layer: r.Layer, Where: s.A,
					Detail: fmt.Sprintf("net %d segment %v is not X-architecture", r.Net, s),
				})
				continue
			}
			if j+2 < len(r.Pts) {
				s2 := geom.Seg(r.Pts[j+1], r.Pts[j+2])
				if s2.Degenerate() || !s2.Octilinear() {
					continue
				}
				if !geom.DirTurnOK(s.Dir(), s2.Dir()) {
					out = append(out, Violation{
						Kind: "turn", Layer: r.Layer, Where: r.Pts[j+1],
						Detail: fmt.Sprintf("net %d illegal turn", r.Net),
					})
				}
			}
		}
	}
	return out
}

// collectItems builds the per-layer component list for spacing checks.
func collectItems(l *layout.Layout) [][]item {
	d := l.D
	perLayer := make([][]item, d.WireLayers)
	halfWire := float64(d.Rules.WireWidth) / 2
	add := func(layer int, it item) {
		it.layer = layer
		perLayer[layer] = append(perLayer[layer], it)
	}
	padNet := padOwners(d)
	for i := range l.Routes {
		r := &l.Routes[i]
		r.Segments(func(s geom.Segment) {
			if s.Degenerate() {
				return
			}
			add(r.Layer, item{
				net:  r.Net,
				poly: geom.PolyFromSegment(s, halfWire),
				bbox: s.BBox().Expand(d.Rules.WireWidth),
				desc: fmt.Sprintf("wire net %d %v", r.Net, s),
			})
		})
	}
	for _, v := range l.Vias {
		oct := v.Oct()
		for _, layer := range []int{v.Slab, v.Slab + 1} {
			add(layer, item{
				net:  v.Net,
				poly: oct.Poly(),
				bbox: oct.BBox(),
				desc: fmt.Sprintf("via net %d @ %v", v.Net, v.Center),
			})
		}
	}
	for i, o := range d.Obstacles {
		add(o.Layer, item{
			net:  -1,
			poly: geom.PolyFromRect(o.Box),
			bbox: o.Box,
			desc: fmt.Sprintf("obstacle %d", i),
		})
	}
	for i, p := range d.IOPads {
		add(0, item{
			net:  padNet[[2]int{int(design.IOKind), i}],
			poly: geom.PolyFromRect(p.Box()),
			bbox: p.Box(),
			desc: fmt.Sprintf("iopad %d", i),
		})
	}
	for i, p := range d.BumpPads {
		oct := p.Oct()
		add(d.WireLayers-1, item{
			net:  padNet[[2]int{int(design.BumpKind), i}],
			poly: oct.Poly(),
			bbox: oct.BBox(),
			desc: fmt.Sprintf("bumppad %d", i),
		})
	}
	for i, v := range d.FixedVias {
		oct := v.Oct(d.Rules)
		for _, layer := range []int{v.Slab, v.Slab + 1} {
			add(layer, item{
				net:  v.Net,
				poly: oct.Poly(),
				bbox: oct.BBox(),
				desc: fmt.Sprintf("fixedvia %d", i),
			})
		}
	}
	return perLayer
}

func padOwners(d *design.Design) map[[2]int]int {
	owner := make(map[[2]int]int)
	for i := range d.IOPads {
		owner[[2]int{int(design.IOKind), i}] = -1
	}
	for i := range d.BumpPads {
		owner[[2]int{int(design.BumpKind), i}] = -1
	}
	for ni, n := range d.Nets {
		owner[[2]int{int(n.P1.Kind), n.P1.Index}] = ni
		owner[[2]int{int(n.P2.Kind), n.P2.Index}] = ni
	}
	return owner
}

// checkSpacingAndCrossing verifies minimum spacing and the non-crossing
// constraint between components of different nets, layer by layer, using a
// uniform spatial hash to keep the pair count down.
//
// The pair scan is per-item: item i walks the buckets its expanded bbox
// covers (in the same row-major bucket order its bbox loop inserts them)
// and tests only partners j > i, deduplicating with a set local to i.
// That makes the violation order deterministic — the seed iterated the
// bucket map itself, so the order changed run to run — and lets items fan
// out across workers, since item i writes only its own violation slot.
func checkSpacingAndCrossing(l *layout.Layout) []Violation {
	var out []Violation
	s := float64(l.D.Rules.Spacing)
	perLayer := collectItems(l)
	// Cell edge: a few wire pitches, so a segment lands in O(length/cell)
	// buckets while each bucket stays small. The seed multiplied the
	// pitch by 4 twice, producing 16×-oversized cells whose buckets held
	// most of a layer and degraded the check to near-quadratic pairing.
	cell := 4 * (l.D.Rules.WireWidth + l.D.Rules.Spacing)
	if cell <= 0 {
		cell = 64
	}
	for layer, items := range perLayer {
		buckets := map[[2]int64][]int{}
		for idx := range items {
			b := items[idx].bbox.Expand(l.D.Rules.Spacing)
			for bx := b.X0 / cell; bx <= b.X1/cell; bx++ {
				for by := b.Y0 / cell; by <= b.Y1/cell; by++ {
					buckets[[2]int64{bx, by}] = append(buckets[[2]int64{bx, by}], idx)
				}
			}
		}
		perItem, _ := par.Map(context.Background(), 0, len(items), func(i int) ([]Violation, error) {
			var viols []Violation
			it1 := &items[i]
			b := it1.bbox.Expand(l.D.Rules.Spacing)
			var seen map[int]bool
			for bx := b.X0 / cell; bx <= b.X1/cell; bx++ {
				for by := b.Y0 / cell; by <= b.Y1/cell; by++ {
					for _, j := range buckets[[2]int64{bx, by}] {
						if j <= i || seen[j] {
							continue
						}
						if seen == nil {
							seen = map[int]bool{}
						}
						seen[j] = true
						it2 := &items[j]
						if it1.net == it2.net && it1.net >= 0 {
							continue
						}
						if !it1.bbox.Expand(l.D.Rules.Spacing + 1).Intersects(it2.bbox) {
							continue
						}
						d := it1.poly.Dist(it2.poly)
						if d < s {
							kind := "spacing"
							if d == 0 {
								kind = "crossing"
							}
							viols = append(viols, Violation{
								Kind: kind, Layer: layer, Where: geom.Pt(it1.bbox.X0, it1.bbox.Y0),
								Detail: fmt.Sprintf("%s vs %s: %.2f < %.2f", it1.desc, it2.desc, d, s),
							})
						}
					}
				}
			}
			return viols, nil
		})
		for _, viols := range perItem {
			out = append(out, viols...)
		}
	}
	return out
}

// checkConnectivity verifies every net marked routed is actually connected.
func checkConnectivity(l *layout.Layout) []Violation {
	var out []Violation
	for ni := range l.D.Nets {
		if !l.Routed(ni) {
			continue
		}
		if !l.Connected(ni) {
			out = append(out, Violation{
				Kind: "connectivity", Layer: -1,
				Where:  l.D.PadCenter(l.D.Nets[ni].P1),
				Detail: fmt.Sprintf("net %d marked routed but pads are not connected", ni),
			})
		}
	}
	return out
}
