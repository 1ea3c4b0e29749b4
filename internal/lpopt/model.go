// Package lpopt implements the paper's LP-based Layout Optimization
// (Section III-E): Layout Mapping of routes onto c variables, Constraint
// Generation (fixed, route and interactive constraints), LP Problem
// Formulation minimizing total wirelength, and Iterative Solving with
// crossing/spacing repair until the layout is legal.
//
// Deviations from the paper, chosen for exactness on integer geometry:
//
//   - Via centers are frozen: the paper also makes them LP variables
//     (Fig. 8a); here every via keeps the center stage 4 gave it, so each
//     route runs between two constant anchors. Via-anchored expressions
//     chain several variables, and their accumulated integer-rounding
//     error cannot be bounded by the monotonicity margins on dense
//     layouts; with vias frozen the rounding error per route delta is
//     provably within margin.
//   - Point variables are eliminated: every interior route point is the
//     intersection of two orientation-fixed lines, so its coordinates are
//     affine in the two c variables. The solver sees only c variables.
//   - Interactive constraints separate entity pairs along one of the four
//     canonical axes (x, y, x+y, y−x); for octilinear geometry a
//     separating axis always exists among these.
//   - All margins carry +2 DBU of slack so solutions can be rounded to
//     even integers (keeping diagonal line intersections integral)
//     without violating spacing.
package lpopt

import (
	"rdlroute/internal/design"
	"rdlroute/internal/geom"
	"rdlroute/internal/layout"
)

// term is coefficient·globalVar.
type term struct {
	v int
	c float64
}

// expr is an affine expression over global variables.
type expr struct {
	t []term
	k float64
}

func constExpr(k float64) expr { return expr{k: k} }

func varExpr(v int) expr { return expr{t: []term{{v, 1}}} }

func (e expr) add(o expr) expr {
	out := expr{k: e.k + o.k}
	out.t = append(out.t, e.t...)
	out.t = append(out.t, o.t...)
	return out.compact()
}

func (e expr) scale(f float64) expr {
	out := expr{k: e.k * f}
	for _, t := range e.t {
		out.t = append(out.t, term{t.v, t.c * f})
	}
	return out
}

func (e expr) sub(o expr) expr { return e.add(o.scale(-1)) }

func (e expr) compact() expr {
	if len(e.t) < 2 {
		return e
	}
	m := map[int]float64{}
	for _, t := range e.t {
		m[t.v] += t.c
	}
	out := expr{k: e.k}
	for _, t := range e.t {
		if c, ok := m[t.v]; ok && c != 0 {
			out.t = append(out.t, term{t.v, c})
			delete(m, t.v)
		}
	}
	return out
}

func (e expr) eval(vals []float64) float64 {
	v := e.k
	for _, t := range e.t {
		v += t.c * vals[t.v]
	}
	return v
}

func (e expr) isConst() bool { return len(e.t) == 0 }

// axis is one of the four canonical separation axes.
type axis uint8

const (
	axisX axis = iota // x
	axisY             // y
	axisS             // x+y
	axisD             // y−x
)

// norm returns the length of the axis normal vector: separation of n units
// along the axis means Euclidean distance n/norm.
func (a axis) norm() float64 {
	if a == axisS || a == axisD {
		return geom.Sqrt2
	}
	return 1
}

// axisOf maps an orientation to the axis measured by its c value.
func axisOf(o geom.Orient) axis {
	switch o {
	case geom.OrientH:
		return axisY
	case geom.OrientV:
		return axisX
	case geom.OrientD45:
		return axisD
	default:
		return axisS
	}
}

// pointE is a symbolic point.
type pointE struct {
	x, y expr
}

func fixedPoint(p geom.Point) pointE {
	return pointE{constExpr(float64(p.X)), constExpr(float64(p.Y))}
}

// along returns the point's coordinate expression along the axis.
func (p pointE) along(a axis) expr {
	switch a {
	case axisX:
		return p.x
	case axisY:
		return p.y
	case axisS:
		return p.x.add(p.y)
	default:
		return p.y.sub(p.x)
	}
}

// cvalue returns the c expression of orientation o's carrier line through p.
func (p pointE) cvalue(o geom.Orient) expr {
	a, b := o.LineCoeff()
	return p.x.scale(float64(a)).add(p.y.scale(float64(b)))
}

// intersect returns the symbolic intersection of lines (o1, c1) and
// (o2, c2); ok is false for parallel orientations.
func intersect(o1 geom.Orient, c1 expr, o2 geom.Orient, c2 expr) (pointE, bool) {
	a1, b1 := o1.LineCoeff()
	a2, b2 := o2.LineCoeff()
	det := float64(a1*b2 - a2*b1)
	if det == 0 {
		return pointE{}, false
	}
	x := c1.scale(float64(b2) / det).add(c2.scale(-float64(b1) / det))
	y := c2.scale(float64(a1) / det).add(c1.scale(-float64(a2) / det))
	return pointE{x, y}, true
}

// viaCol is a via column: every via of one net at one center.
type viaCol struct {
	net     int
	init    geom.Point
	viaIdxs []int // indices into layout.Vias
}

// mroute is the symbolic model of one layout route.
type mroute struct {
	li      int // index into layout.Routes
	net     int
	layer   int
	orients []geom.Orient
	cs      []expr    // per segment; var or const
	sigma   []float64 // initial direction sign along the dominant coord
	anch0   pointE
	anch1   pointE
	vars    []int // global vars of the interior segments' c values
}

// points returns the symbolic polyline points.
func (r *mroute) points() []pointE {
	n := len(r.orients)
	pts := make([]pointE, n+1)
	pts[0] = r.anch0
	for i := 1; i < n; i++ {
		p, ok := intersect(r.orients[i-1], r.cs[i-1], r.orients[i], r.cs[i])
		if !ok {
			// Consecutive segments never share an orientation (no U-turns);
			// defensive: collapse onto the anchor.
			p = r.anch0
		}
		pts[i] = p
	}
	pts[n] = r.anch1
	return pts
}

// dominant returns the axis whose delta measures a segment's length, and
// the length scale factor.
func dominant(o geom.Orient) (axis, float64) {
	switch o {
	case geom.OrientH:
		return axisX, 1
	case geom.OrientV:
		return axisY, 1
	default:
		return axisX, geom.Sqrt2
	}
}

// consOp mirrors lp.Op without importing it here.
type consOp uint8

const (
	opLE consOp = iota
	opGE
	opEQ
)

// gcons is a global constraint Σ terms ⋈ rhs.
type gcons struct {
	terms []term
	op    consOp
	rhs   float64
}

// model is the complete symbolic optimization model.
type model struct {
	lay     *layout.Layout
	nvars   int
	initVal []float64
	varOwn  []int // owning route (index into routes) per var
	routes  []mroute
	cols    []viaCol
	cons    []gcons
	obj     []term // minimize Σ obj·vars (+ constants dropped)

	// fixed shapes for interactive constraints (obstacles, pads), with the
	// owning net (−1 for netless blockages), per layer.
	fixedShapes [][]fixedShape

	// check, when non-nil, is handed to every LP the model solves so a
	// cancelled context aborts pivot loops mid-solve (Optimize bails out
	// before any write-back, leaving the layout untouched).
	check func() error
}

type fixedShape struct {
	oct geom.Oct8
	net int
}

func (m *model) newVar(init float64, owner int) int {
	m.initVal = append(m.initVal, init)
	m.varOwn = append(m.varOwn, owner)
	m.nvars++
	return m.nvars - 1
}

func (m *model) addCons(e expr, op consOp, rhs float64) {
	m.cons = append(m.cons, gcons{terms: e.t, op: op, rhs: rhs - e.k})
}

// exprCons adds the constraint lhs ⋈ rhs between two expressions with a
// margin: lhs + margin ≤ rhs (opLE) etc.
func (m *model) sepCons(lo, hi expr, margin float64) {
	// hi − lo ≥ margin
	m.addCons(hi.sub(lo), opGE, margin)
}

// buildModel maps the layout onto the symbolic model (Layout Mapping plus
// fixed and route constraint generation).
func buildModel(lay *layout.Layout) *model {
	d := lay.D
	m := &model{lay: lay}

	// Group vias into columns by (net, center).
	colIdx := map[[3]int64]int{}
	for vi, v := range lay.Vias {
		key := [3]int64{int64(v.Net), v.Center.X, v.Center.Y}
		ci, ok := colIdx[key]
		if !ok {
			ci = len(m.cols)
			colIdx[key] = ci
			m.cols = append(m.cols, viaCol{net: v.Net, init: v.Center})
		}
		m.cols[ci].viaIdxs = append(m.cols[ci].viaIdxs, vi)
	}

	// Build route models.
	for li := range lay.Routes {
		r := &lay.Routes[li]
		if len(r.Pts) < 2 {
			continue
		}
		ri := len(m.routes)
		mr := mroute{li: li, net: r.Net, layer: r.Layer}
		ok := true
		for i := 0; i+1 < len(r.Pts); i++ {
			o := geom.Seg(r.Pts[i], r.Pts[i+1]).Orient()
			if o == geom.OrientNone {
				ok = false
				break
			}
			mr.orients = append(mr.orients, o)
		}
		if !ok {
			continue // non-octilinear route: leave untouched
		}

		// Anchors are the route's end points, pad or via centers alike.
		first, last := r.Pts[0], r.Pts[len(r.Pts)-1]
		mr.anch0 = fixedPoint(first)
		mr.anch1 = fixedPoint(last)

		// c values: end segments stay on their anchors' lines; interior
		// segments get free variables.
		n := len(mr.orients)
		mr.cs = make([]expr, n)
		for k := 0; k < n; k++ {
			o := mr.orients[k]
			switch k {
			case 0:
				mr.cs[k] = constExpr(float64(o.CValue(first)))
			case n - 1:
				mr.cs[k] = constExpr(float64(o.CValue(last)))
			default:
				v := m.newVar(float64(o.CValue(r.Pts[k])), ri)
				mr.vars = append(mr.vars, v)
				mr.cs[k] = varExpr(v)
			}
		}

		// Direction signs and monotonicity constraints.
		mr.sigma = make([]float64, n)
		pts := mr.points()
		for k := 0; k < n; k++ {
			ax, _ := dominant(mr.orients[k])
			d0 := pts[k].along(ax).eval(m.initVal)
			d1 := pts[k+1].along(ax).eval(m.initVal)
			if d1 >= d0 {
				mr.sigma[k] = 1
			} else {
				mr.sigma[k] = -1
			}
			delta := pts[k+1].along(ax).sub(pts[k].along(ax)).scale(mr.sigma[k])
			if !delta.isConst() {
				// Even-integer rounding moves each variable by ≤ 1, so the
				// delta can shrink by up to its term count; keep enough
				// margin that no segment can flip direction, clamped to
				// the lattice pitch (the smallest initial delta).
				margin := float64(4 + 2*len(delta.t))
				if margin > 12 {
					margin = 12
				}
				m.addCons(delta, opGE, margin)
			}
		}
		m.routes = append(m.routes, mr)
	}

	// Objective: total wirelength.
	objMap := map[int]float64{}
	for ri := range m.routes {
		mr := &m.routes[ri]
		pts := mr.points()
		for k := range mr.orients {
			ax, scalef := dominant(mr.orients[k])
			e := pts[k+1].along(ax).sub(pts[k].along(ax)).scale(mr.sigma[k] * scalef)
			for _, t := range e.t {
				objMap[t.v] += t.c
			}
		}
	}
	for v, c := range objMap {
		if c != 0 {
			m.obj = append(m.obj, term{v, c})
		}
	}

	// Fixed shapes per layer for interactive constraints.
	padNet := map[[3]int64]int{}
	for ni, n := range d.Nets {
		for _, ref := range []design.PadRef{n.P1, n.P2} {
			c := d.PadCenter(ref)
			padNet[[3]int64{int64(ref.Kind), c.X, c.Y}] = ni
		}
	}
	owner := func(kind design.PadKind, c geom.Point) int {
		if ni, ok := padNet[[3]int64{int64(kind), c.X, c.Y}]; ok {
			return ni
		}
		return -1
	}
	m.fixedShapes = make([][]fixedShape, d.WireLayers)
	for _, o := range d.Obstacles {
		m.fixedShapes[o.Layer] = append(m.fixedShapes[o.Layer],
			fixedShape{geom.OctFromRect(o.Box).Canonical(), -1})
	}
	for _, p := range d.IOPads {
		m.fixedShapes[0] = append(m.fixedShapes[0],
			fixedShape{geom.OctFromRect(p.Box()).Canonical(), owner(design.IOKind, p.Center)})
	}
	for _, p := range d.BumpPads {
		m.fixedShapes[d.WireLayers-1] = append(m.fixedShapes[d.WireLayers-1],
			fixedShape{p.Oct().Canonical(), owner(design.BumpKind, p.Center)})
	}
	for _, v := range d.FixedVias {
		oct := v.Oct(d.Rules).Canonical()
		for _, l := range []int{v.Slab, v.Slab + 1} {
			m.fixedShapes[l] = append(m.fixedShapes[l], fixedShape{oct, v.Net})
		}
	}
	return m
}
