package lpopt

import (
	"math"
	"sort"

	"rdlroute/internal/dsu"
	"rdlroute/internal/geom"
	"rdlroute/internal/layout"
	"rdlroute/internal/lp"
	"rdlroute/internal/obs"
)

// Optimize runs the LP-based layout optimization on the layout in place:
// solve, round to integer geometry, detect residual crossings/spacing
// problems, add the corresponding interactive constraints, and repeat
// until legal (Section III-E-4). Components that cannot be made legal are
// reverted to their initial (legal) geometry, so Optimize never degrades
// legality.
func Optimize(l *layout.Layout, opt Options) Stats {
	if opt.MaxIters == 0 {
		opt.MaxIters = 50
	}
	tr := obs.Or(opt.Tracer)
	st := Stats{Before: l.Wirelength()}
	cancelled := func() bool { return opt.Ctx != nil && opt.Ctx.Err() != nil }
	m := buildModel(l)
	if opt.Ctx != nil {
		m.check = opt.Ctx.Err
	}
	if m.nvars == 0 {
		st.After = st.Before
		return st
	}
	ents := m.collectEntities()
	vals := append([]float64(nil), m.initVal...)

	// Seed interactive constraints from the initial layout: every nearby
	// different-net pair gets a separation along its best axis, with +2
	// rounding headroom when the initial slack allows it.
	padOf := map[pairKey]float64{}
	seed := func(k pairKey) bool {
		a, b := ents[k.a], ents[k.b]
		req := m.required(a, b)
		ax, aBelow, slack := bestAxis(a, b, req, m.initVal)
		if slack < -0.5 {
			return false // no separating axis in the initial layout
		}
		pad := 2.0
		// ceil() of the margin plus the rounding pad must stay within the
		// initial slack, or the constraint starts infeasible.
		ceilLoss := math.Ceil(req*ax.norm()) - req*ax.norm()
		if slack < pad+ceilLoss {
			pad = math.Max(0, math.Floor(slack-ceilLoss))
		}
		m.addSeparation(a, b, ax, aBelow, req, pad)
		padOf[k] = pad
		return true
	}
	pinned := map[int]bool{}
	pinEntity := func(e *entity) {
		for _, v := range e.vars {
			if !pinned[v] {
				pinned[v] = true
				vals[v] = m.initVal[v]
				m.addCons(varExpr(v), opEQ, m.initVal[v])
			}
		}
	}

	for _, k := range nearPairs(ents, m.initVal, nearRadius) {
		if !seed(k) {
			pinEntity(ents[k.a])
			pinEntity(ents[k.b])
		}
	}

	detectRadius := int64(m.reqViaVia()) + 8

	dirtyAll := true
	var dirtyVars map[int]bool
	reverted := map[int]bool{} // component reps with init-pinned geometry

	for iter := 1; iter <= opt.MaxIters; iter++ {
		if cancelled() {
			st.Cancelled = true
			return st
		}
		st.Iterations = iter

		// Component decomposition over the current constraint set.
		comp := dsu.New(m.nvars)
		for _, c := range m.cons {
			for i := 1; i < len(c.terms); i++ {
				comp.Union(c.terms[0].v, c.terms[i].v)
			}
		}
		groups := comp.Groups()
		if iter == 1 {
			st.Components = len(groups)
		}
		// Bucket constraints and objective by component.
		consBy := map[int][]gcons{}
		for _, c := range m.cons {
			if len(c.terms) == 0 {
				continue
			}
			r := comp.Find(c.terms[0].v)
			consBy[r] = append(consBy[r], c)
		}
		objBy := map[int][]term{}
		for _, t := range m.obj {
			r := comp.Find(t.v)
			objBy[r] = append(objBy[r], t)
		}

		for rep, vars := range groups {
			if cancelled() {
				st.Cancelled = true
				return st
			}
			if reverted[rep] {
				continue
			}
			if !dirtyAll {
				touched := false
				for _, v := range vars {
					if dirtyVars[v] {
						touched = true
						break
					}
				}
				if !touched {
					continue
				}
			}
			if !m.solveComponent(vars, consBy[rep], objBy[rep], vals) {
				reverted[rep] = true
				for _, v := range vars {
					vals[v] = m.initVal[v]
				}
			}
		}
		dirtyAll = false
		dirtyVars = map[int]bool{}

		m.integerize(vals, reverted, comp)
		m.resetInconsistentRoutes(vals, dirtyVars)
		st.Reverted = revertedComponents(reverted, comp)

		// Rounding to even integers preserves the route-internal rows by
		// construction: monotonicity is enforced at ≥ 4 and rounding moves
		// any point coordinate by at most 2. Separation rows may go short
		// by ±2, which the geometric violation scan below catches and
		// repairs through margin escalation.

		// Violation detection on the rounded geometry.
		type viol struct {
			k pairKey
		}
		var violations []viol
		for _, k := range nearPairs(ents, vals, detectRadius) {
			a, b := ents[k.a], ents[k.b]
			req := m.required(a, b)
			_, _, slack := bestAxis(a, b, req, vals)
			if slack < -1e-9 {
				violations = append(violations, viol{k})
			}
		}
		if tr.Enabled() {
			// The per-iteration convergence curve: the LP objective (the
			// wirelength surrogate being minimized) and the residual
			// geometric violations the next iteration must repair.
			tr.Event("lp.iter",
				obs.Int("iter", iter),
				obs.Float("objective", objValue(m.obj, vals)),
				obs.Int("violations", len(violations)),
				obs.Int("reverted", st.Reverted))
			tr.Count("lp.iterations", 1)
			tr.Count("lp.violations", int64(len(violations)))
		}
		if len(violations) == 0 {
			break
		}
		for _, v := range violations {
			a, b := ents[v.k.a], ents[v.k.b]
			if pad, ok := padOf[v.k]; ok {
				if pad >= 8 {
					// Escalation exhausted: freeze both entities at their
					// initial positions; the re-solve below restores a
					// consistent component around the pins.
					pinEntity(a)
					pinEntity(b)
				} else {
					// Already constrained: rounding ate the margin; add
					// headroom.
					req := m.required(a, b)
					ax, aBelow, _ := bestAxis(a, b, req, m.initVal)
					m.addSeparation(a, b, ax, aBelow, req, pad+2)
					padOf[v.k] = pad + 2
				}
			} else if !seed(v.k) {
				pinEntity(a)
				pinEntity(b)
			}
			// Whatever happened, both components must re-solve so every
			// route stays a consistent LP solution.
			for _, e := range []*entity{a, b} {
				for _, vv := range e.vars {
					dirtyVars[vv] = true
				}
			}
		}
		if iter == opt.MaxIters {
			// Out of iterations: revert the entire components of whatever
			// still violates (mixing initial and optimized variables within
			// one component would corrupt route geometry).
			for _, v := range violations {
				for _, e := range []*entity{ents[v.k.a], ents[v.k.b]} {
					for _, vv := range e.vars {
						reverted[comp.Find(vv)] = true
					}
				}
			}
			m.integerize(vals, reverted, comp)
			st.Reverted = revertedComponents(reverted, comp)
		}
	}

	// Cancellation means the current vals may reflect an interrupted solve;
	// skip write-back entirely so the layout keeps its legal pre-LP state.
	if cancelled() {
		st.Cancelled = true
		return st
	}
	// Final safety net: any route still internally inconsistent reverts to
	// its legal initial geometry before write-back.
	m.resetInconsistentRoutes(vals, nil)
	m.writeBack(vals)
	st.After = l.Wirelength()
	return st
}

// revertedComponents counts the components of comp that hold a reverted
// representative. Pinned entity pairs are not reverts: their components
// keep solving around the pins.
func revertedComponents(reverted map[int]bool, comp *dsu.DSU) int {
	reps := map[int]bool{}
	for r := range reverted {
		reps[comp.Find(r)] = true
	}
	return len(reps)
}

// objValue evaluates the LP objective (without its affine constant) at
// the current assignment — the wirelength surrogate traced per iteration.
func objValue(obj []term, vals []float64) float64 {
	v := 0.0
	for _, t := range obj {
		v += t.c * vals[t.v]
	}
	return v
}

// Joint-solve limits: a component within them gets one dense-tableau LP;
// a larger one, or one whose joint LP fails, falls back to per-route
// coordinate descent, which scales linearly and preserves feasibility at
// every step.
const (
	jointMaxVars = 400
	jointMaxRows = 900
	descentPass  = 2
)

// solveComponent optimizes one independent component in place; returns
// false when the component must be reverted.
func (m *model) solveComponent(vars []int, cons []gcons, obj []term, vals []float64) bool {
	if len(vars) <= jointMaxVars && countRows(cons) <= jointMaxRows && m.solveLP(vars, cons, obj, vals, nil) {
		return true
	}
	return m.descend(vars, cons, obj, vals)
}

func countRows(cons []gcons) int {
	rows := 0
	for _, c := range cons {
		if len(c.terms) > 1 {
			rows++
		}
	}
	return rows
}

// solveLP solves for the given vars jointly. Vars outside the set are
// substituted at their current values (inSet != nil restricts to a sub-LP in
// the descent). Single-variable rows fold into bounds; identical
// multi-variable rows are deduplicated keeping the tightest rhs.
func (m *model) solveLP(vars []int, cons []gcons, obj []term, vals []float64, inSet map[int]bool) bool {
	local := make(map[int]lp.VarID, len(vars))
	p := lp.NewProblem()
	p.Check = m.check
	lo := make([]float64, len(vars))
	hi := make([]float64, len(vars))
	idx := make(map[int]int, len(vars))
	for i, v := range vars {
		idx[v] = i
		lo[i] = math.Inf(-1)
		hi[i] = math.Inf(1)
	}
	own := func(v int) bool {
		if inSet == nil {
			_, ok := idx[v]
			return ok
		}
		return inSet[v]
	}

	type rowKey struct {
		sig string
		op  consOp
	}
	tightest := map[rowKey]float64{}
	var rowOrder []rowKey
	rowTerms := map[rowKey][]lp.Term{}

	for _, c := range cons {
		// Substitute foreign vars; collect own terms.
		rhs := c.rhs
		var ownTerms []term
		skip := false
		for _, t := range c.terms {
			if own(t.v) {
				ownTerms = append(ownTerms, t)
			} else if inSet != nil {
				rhs -= t.c * vals[t.v]
			} else {
				skip = true // crosses components: should not happen
				break
			}
		}
		if skip {
			return false
		}
		switch len(ownTerms) {
		case 0:
			continue // constant row: already satisfied at the current point
		case 1:
			t := ownTerms[0]
			i := idx[t.v]
			bound := rhs / t.c
			op := c.op
			if t.c < 0 {
				if op == opLE {
					op = opGE
				} else if op == opGE {
					op = opLE
				}
			}
			switch op {
			case opLE:
				hi[i] = math.Min(hi[i], bound)
			case opGE:
				lo[i] = math.Max(lo[i], bound)
			default:
				lo[i] = math.Max(lo[i], bound)
				hi[i] = math.Min(hi[i], bound)
			}
		default:
			// Deduplicate by coefficient signature.
			sort.Slice(ownTerms, func(a, b int) bool { return ownTerms[a].v < ownTerms[b].v })
			sig := make([]byte, 0, len(ownTerms)*12)
			var lpTerms []lp.Term
			for _, t := range ownTerms {
				sig = appendSig(sig, t.v, t.c)
				lpTerms = append(lpTerms, lp.Term{Var: lp.VarID(idx[t.v]), Coef: t.c})
			}
			k := rowKey{string(sig), c.op}
			cur, ok := tightest[k]
			if !ok {
				tightest[k] = rhs
				rowOrder = append(rowOrder, k)
				rowTerms[k] = lpTerms
				continue
			}
			switch c.op {
			case opLE:
				if rhs < cur {
					tightest[k] = rhs
				}
			case opGE:
				if rhs > cur {
					tightest[k] = rhs
				}
			default:
				if rhs != cur {
					return false // conflicting equalities
				}
			}
		}
	}

	for i, v := range vars {
		if lo[i] > hi[i]+1e-9 {
			return false
		}
		local[v] = p.AddVar(lo[i], hi[i])
	}
	for _, t := range obj {
		if lv, ok := local[t.v]; ok {
			p.AddObj(lv, t.c)
		}
	}
	for _, k := range rowOrder {
		terms := rowTerms[k]
		rhs := tightest[k]
		switch k.op {
		case opLE:
			p.AddLE(terms, rhs)
		case opGE:
			p.AddGE(terms, rhs)
		default:
			p.AddEQ(terms, rhs)
		}
	}
	sol := p.Solve()
	if sol.Status != lp.Optimal {
		return false
	}
	for _, lv := range local {
		if math.IsNaN(sol.X[lv]) || math.IsInf(sol.X[lv], 0) {
			return false
		}
	}
	// Trust but verify: the solution must satisfy the rows and bounds it
	// was solved under (guards against solver numerical drift).
	for i, v := range vars {
		xv := sol.X[local[v]]
		if xv < lo[i]-1e-6 || xv > hi[i]+1e-6 {
			return false
		}
	}
	for _, k := range rowOrder {
		lhs := 0.0
		for _, t := range rowTerms[k] {
			lhs += t.Coef * sol.X[t.Var]
		}
		rhs := tightest[k]
		switch k.op {
		case opLE:
			if lhs > rhs+1e-6 {
				return false
			}
		case opGE:
			if lhs < rhs-1e-6 {
				return false
			}
		default:
			if math.Abs(lhs-rhs) > 1e-6 {
				return false
			}
		}
	}
	for gv, lv := range local {
		vals[gv] = sol.X[lv]
	}
	return true
}

func appendSig(sig []byte, v int, c float64) []byte {
	sig = append(sig,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	bits := math.Float64bits(c)
	for s := 0; s < 64; s += 8 {
		sig = append(sig, byte(bits>>s))
	}
	return sig
}

// descend performs coordinate descent over the component's routes: each
// route's variables are optimized by a small LP with every other route
// frozen at its current values. Feasibility is preserved at every step,
// so large components still improve without a giant LP.
func (m *model) descend(vars []int, cons []gcons, obj []term, vals []float64) bool {
	groups := map[int][]int{}
	for _, v := range vars {
		o := m.varOwn[v]
		groups[o] = append(groups[o], v)
	}
	var order []int
	for o := range groups {
		order = append(order, o)
	}
	sort.Ints(order)

	// Index constraints and objective terms by group.
	consBy := map[int][]gcons{}
	for _, c := range cons {
		seen := map[int]bool{}
		for _, t := range c.terms {
			o := m.varOwn[t.v]
			if !seen[o] {
				seen[o] = true
				consBy[o] = append(consBy[o], c)
			}
		}
	}
	objBy := map[int][]term{}
	for _, t := range obj {
		o := m.varOwn[t.v]
		objBy[o] = append(objBy[o], t)
	}

	improvedAny := false
	for pass := 0; pass < descentPass; pass++ {
		for _, o := range order {
			gv := groups[o]
			set := make(map[int]bool, len(gv))
			for _, v := range gv {
				set[v] = true
			}
			if m.solveLP(gv, consBy[o], objBy[o], vals, set) {
				improvedAny = true
			}
		}
	}
	return improvedAny
}

// integerize rounds the solution to integer geometry: every c variable
// to an even integer (so diagonal line intersections stay integral), or
// back to its initial value when its component is reverted.
func (m *model) integerize(vals []float64, reverted map[int]bool, comp *dsu.DSU) {
	for v := 0; v < m.nvars; v++ {
		if reverted[comp.Find(v)] {
			vals[v] = m.initVal[v]
		} else {
			vals[v] = math.Round(vals[v]/2) * 2
		}
	}
}

// writeBack applies the final variable assignment to the layout.
func (m *model) writeBack(vals []float64) {
	for ri := range m.routes {
		mr := &m.routes[ri]
		pts := mr.points()
		out := make([]geom.Point, 0, len(pts))
		for _, p := range pts {
			pt := geom.Pt(int64(math.Round(p.x.eval(vals))), int64(math.Round(p.y.eval(vals))))
			if n := len(out); n > 0 && out[n-1].Eq(pt) {
				continue
			}
			out = append(out, pt)
		}
		if len(out) >= 2 {
			m.lay.Routes[mr.li].Pts = out
		}
	}
}

// resetInconsistentRoutes reverts any route whose direction signs no
// longer hold at vals — possible when coordinate descent inherits an
// infeasible state (after margin escalation) and skips a group. With via
// centers frozen, every route's variables are self-contained, so resetting
// just that route restores its legal initial geometry without touching
// anything else.
func (m *model) resetInconsistentRoutes(vals []float64, dirty map[int]bool) {
	for ri := range m.routes {
		mr := &m.routes[ri]
		pts := mr.points()
		bad := false
		for k := range mr.orients {
			ax, _ := dominant(mr.orients[k])
			d := pts[k+1].along(ax).eval(vals) - pts[k].along(ax).eval(vals)
			if d*mr.sigma[k] <= 0 {
				bad = true
				break
			}
		}
		if !bad {
			continue
		}
		for _, v := range mr.vars {
			vals[v] = m.initVal[v]
			if dirty != nil {
				dirty[v] = true
			}
		}
	}
}
