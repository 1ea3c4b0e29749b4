package lpopt

import (
	"context"
	"math"
	"sort"

	"rdlroute/internal/design"
	"rdlroute/internal/geom"
	"rdlroute/internal/obs"
)

// Options tune the optimizer.
type Options struct {
	// MaxIters bounds the iterative-solving repair loop (the paper
	// observes ≤ 50 on its largest benchmark). Zero means 50.
	MaxIters int
	// Tracer, when enabled, receives one "lp.iter" event per repair-loop
	// iteration (objective value, residual violations, reverted
	// components) — the convergence curve of Section III-E-4.
	Tracer obs.Tracer
	// Ctx, when non-nil, cancels the optimization: the repair loop polls it
	// between components and the simplex pivot loops poll it mid-solve.
	// A cancelled Optimize returns with Cancelled set and the layout
	// untouched (write-back only happens on a completed run).
	Ctx context.Context
}

// Stats reports what the optimizer did.
type Stats struct {
	Iterations int
	Components int
	Reverted   int // distinct components reverted to initial geometry (pinned pairs are not counted)
	Before     float64
	After      float64
	Cancelled  bool // Options.Ctx fired; the layout was left untouched
}

// nearRadius seeds interactive constraints for entity pairs within this
// initial distance (4 lattice pitches).
const nearRadius = 4 * design.Grid

// Required center-based clearances, matching the lattice's occupancy model.
func (m *model) reqWireWire() float64 {
	return float64(m.lay.D.Rules.Spacing + m.lay.D.Rules.WireWidth)
}
func (m *model) reqWireVia() float64 {
	return float64(m.lay.D.Rules.Spacing + m.lay.D.Rules.WireWidth/2 + m.lay.D.Rules.ViaWidth/2)
}
func (m *model) reqViaVia() float64 {
	return float64(m.lay.D.Rules.Spacing + m.lay.D.Rules.ViaWidth)
}
func (m *model) reqWireFixed() float64 {
	return float64(m.lay.D.Rules.Spacing + m.lay.D.Rules.WireWidth/2)
}
func (m *model) reqViaFixed() float64 {
	return float64(m.lay.D.Rules.Spacing + m.lay.D.Rules.ViaWidth/2)
}

// entity is one movable or fixed component for interactive constraints.
type entity struct {
	net    int
	layers []int    // wire layers the entity occupies
	pts    []pointE // symbolic defining points (1 for vias, 2 for segments)
	isVia  bool
	fixed  *fixedShape // non-nil for design shapes (pts empty)
	vars   []int       // global vars appearing in pts
}

// axes lists the four canonical separation axes.
var axes = [4]axis{axisX, axisY, axisS, axisD}

// interval returns the entity's [lo, hi] projection on the axis under the
// given variable assignment.
func (e *entity) interval(ax axis, vals []float64) (lo, hi float64) {
	if e.fixed != nil {
		o := e.fixed.oct
		switch ax {
		case axisX:
			return float64(o.XLo), float64(o.XHi)
		case axisY:
			return float64(o.YLo), float64(o.YHi)
		case axisS:
			return float64(o.SLo), float64(o.SHi)
		default:
			return float64(o.DLo), float64(o.DHi)
		}
	}
	lo = math.Inf(1)
	hi = math.Inf(-1)
	for _, p := range e.pts {
		v := p.along(ax).eval(vals)
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return
}

// required returns the center-based clearance between two entities.
func (m *model) required(a, b *entity) float64 {
	switch {
	case a.fixed != nil || b.fixed != nil:
		mov := a
		if a.fixed != nil {
			mov = b
		}
		if mov.isVia {
			return m.reqViaFixed()
		}
		return m.reqWireFixed()
	case a.isVia && b.isVia:
		return m.reqViaVia()
	case a.isVia != b.isVia:
		return m.reqWireVia()
	default:
		return m.reqWireWire()
	}
}

// sharedLayer reports whether the entities occupy a common wire layer.
func sharedLayer(a, b *entity) bool {
	for _, la := range a.layers {
		for _, lb := range b.layers {
			if la == lb {
				return true
			}
		}
	}
	return false
}

// collectEntities builds the entity table from the model.
func (m *model) collectEntities() []*entity {
	var out []*entity
	varsOf := func(pts []pointE) []int {
		seen := map[int]bool{}
		var vs []int
		for _, p := range pts {
			for _, e := range []expr{p.x, p.y} {
				for _, t := range e.t {
					if !seen[t.v] {
						seen[t.v] = true
						vs = append(vs, t.v)
					}
				}
			}
		}
		return vs
	}
	for ri := range m.routes {
		mr := &m.routes[ri]
		pts := mr.points()
		for k := range mr.orients {
			segPts := []pointE{pts[k], pts[k+1]}
			out = append(out, &entity{
				net:    mr.net,
				layers: []int{mr.layer},
				pts:    segPts,
				vars:   varsOf(segPts),
			})
		}
	}
	for ci := range m.cols {
		col := &m.cols[ci]
		layerSet := map[int]bool{}
		for _, vi := range col.viaIdxs {
			layerSet[m.lay.Vias[vi].Slab] = true
			layerSet[m.lay.Vias[vi].Slab+1] = true
		}
		var layers []int
		for l := range layerSet {
			layers = append(layers, l)
		}
		sort.Ints(layers)
		out = append(out, &entity{
			net:    col.net,
			layers: layers,
			pts:    []pointE{fixedPoint(col.init)},
			isVia:  true,
		})
	}
	for l := range m.fixedShapes {
		for i := range m.fixedShapes[l] {
			fs := &m.fixedShapes[l][i]
			out = append(out, &entity{
				net:    fs.net,
				layers: []int{l},
				fixed:  fs,
			})
		}
	}
	return out
}

// bestAxis returns the axis and direction with maximum slack separating a
// below b (dir=+1 means a's interval is below b's on that axis).
func bestAxis(a, b *entity, req float64, vals []float64) (ax axis, aBelow bool, slack float64) {
	slack = math.Inf(-1)
	for _, cand := range axes {
		m := req * cand.norm()
		aLo, aHi := a.interval(cand, vals)
		bLo, bHi := b.interval(cand, vals)
		if s := bLo - aHi - m; s > slack {
			slack = s
			ax = cand
			aBelow = true
		}
		if s := aLo - bHi - m; s > slack {
			slack = s
			ax = cand
			aBelow = false
		}
	}
	return
}

// addSeparation adds the interactive constraints separating a below b (or
// b below a) on the axis with margin ceil(req·norm)+pad, rounded up to an
// even integer so even-integer rounding of the solution cannot break the
// constraint by parity.
func (m *model) addSeparation(a, b *entity, ax axis, aBelow bool, req float64, pad float64) {
	if !aBelow {
		a, b = b, a
	}
	margin := math.Ceil(req*ax.norm()) + pad
	margin = 2 * math.Ceil(margin/2)
	// Every defining point of a stays below every defining point of b.
	// Fixed entities contribute their exact octagon bound as a constant.
	aExprs := pointAxisExprs(a, ax, true)
	bExprs := pointAxisExprs(b, ax, false)
	for _, ea := range aExprs {
		for _, eb := range bExprs {
			m.sepCons(ea, eb, margin)
		}
	}
}

// pointAxisExprs returns the axis expressions of the entity's defining
// points; for fixed shapes, the single relevant bound (hi when the shape
// is "below", lo when "above").
func pointAxisExprs(e *entity, ax axis, isLower bool) []expr {
	if e.fixed != nil {
		o := e.fixed.oct
		var v int64
		switch ax {
		case axisX:
			v = o.XHi
			if !isLower {
				v = o.XLo
			}
		case axisY:
			v = o.YHi
			if !isLower {
				v = o.YLo
			}
		case axisS:
			v = o.SHi
			if !isLower {
				v = o.SLo
			}
		default:
			v = o.DHi
			if !isLower {
				v = o.DLo
			}
		}
		return []expr{constExpr(float64(v))}
	}
	var out []expr
	for _, p := range e.pts {
		out = append(out, p.along(ax))
	}
	return out
}

// movable reports whether the entity has any variables.
func (e *entity) movable() bool { return len(e.vars) > 0 }

// bboxOf returns the entity's current bounding box (for bucketing).
func (e *entity) bboxOf(vals []float64) geom.Rect {
	if e.fixed != nil {
		return e.fixed.oct.BBox()
	}
	xLo, xHi := e.interval(axisX, vals)
	yLo, yHi := e.interval(axisY, vals)
	return geom.Rect{X0: int64(xLo), Y0: int64(yLo), X1: int64(math.Ceil(xHi)), Y1: int64(math.Ceil(yHi))}
}

// pairKey identifies an unordered entity pair.
type pairKey struct{ a, b int }

func mkPair(i, j int) pairKey {
	if i > j {
		i, j = j, i
	}
	return pairKey{i, j}
}

// nearPairs returns candidate entity pairs within radius under vals.
func nearPairs(ents []*entity, vals []float64, radius int64) []pairKey {
	cell := radius * 2
	if cell <= 0 {
		cell = 64
	}
	type bkey struct {
		l      int
		bx, by int64
	}
	buckets := map[bkey][]int{}
	for i, e := range ents {
		bb := e.bboxOf(vals).Expand(radius)
		for _, l := range e.layers {
			for bx := floorDiv(bb.X0, cell); bx <= floorDiv(bb.X1, cell); bx++ {
				for by := floorDiv(bb.Y0, cell); by <= floorDiv(bb.Y1, cell); by++ {
					k := bkey{l, bx, by}
					buckets[k] = append(buckets[k], i)
				}
			}
		}
	}
	seen := map[pairKey]bool{}
	var out []pairKey
	for _, ids := range buckets {
		for x := 0; x < len(ids); x++ {
			for y := x + 1; y < len(ids); y++ {
				i, j := ids[x], ids[y]
				a, b := ents[i], ents[j]
				if a.net == b.net && a.net >= 0 {
					continue
				}
				if !a.movable() && !b.movable() {
					continue
				}
				if !sharedLayer(a, b) {
					continue
				}
				k := mkPair(i, j)
				if seen[k] {
					continue
				}
				if !a.bboxOf(vals).Expand(radius).Intersects(b.bboxOf(vals)) {
					continue
				}
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].a != out[j].a {
			return out[i].a < out[j].a
		}
		return out[i].b < out[j].b
	})
	return out
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
