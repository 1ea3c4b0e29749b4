package lp

import "math"

// Numerical tolerances for the simplex method.
const (
	epsPivot = 1e-9  // minimum acceptable pivot magnitude
	epsCost  = 1e-9  // reduced-cost optimality tolerance
	epsFeas  = 1e-7  // feasibility tolerance on phase-1 objective
	epsRatio = 1e-10 // slack below which a basic value counts as zero
)

// Solve converts the problem to standard form and runs a two-phase dense
// primal simplex. Only the returned Solution is mutated; the Problem may be
// reused (e.g. with extra constraints added) afterwards.
func (p *Problem) Solve() Solution {
	if err := p.Validate(); err != nil {
		return Solution{Status: Infeasible}
	}
	st := newStandard(p)
	return st.solve(p)
}

// standard is a standard-form LP: min cᵀz s.t. Az = b, z ≥ 0, built from a
// Problem by variable shifting/splitting and slack insertion.
type standard struct {
	m, n     int         // rows, structural+slack columns (artificials appended later)
	a        [][]float64 // m × n constraint matrix
	b        []float64   // m, kept ≥ 0 by row scaling
	c        []float64   // n objective (phase 2)
	shift    []float64   // per original var: additive shift (value = z − shift contributions)
	pos      []int       // per original var: standard column of its positive part
	neg      []int       // per original var: standard column of negative part, −1 if none
	maxIters int
}

// newStandard lowers a Problem into standard form:
//
//   - x with finite lo:        x = lo + z,  z ≥ 0 (finite hi adds row z ≤ hi−lo)
//   - x with only finite hi:   x = hi − z,  z ≥ 0, coefficient negated
//   - free x:                  x = z⁺ − z⁻
//   - row ≤ : + slack; row ≥ : − surplus; both then b normalized ≥ 0.
func newStandard(p *Problem) *standard {
	nv := p.NumVars()
	st := &standard{
		shift: make([]float64, nv),
		pos:   make([]int, nv),
		neg:   make([]int, nv),
	}
	ncols := 0
	// sign[v] is +1 when x = shift + z, −1 when x = shift − z.
	sign := make([]float64, nv)
	type ubRow struct {
		col int
		ub  float64
	}
	var ubRows []ubRow
	for v := 0; v < nv; v++ {
		lo, hi := p.lo[v], p.hi[v]
		switch {
		case !math.IsInf(lo, -1):
			st.pos[v] = ncols
			st.neg[v] = -1
			st.shift[v] = lo
			sign[v] = 1
			if !math.IsInf(hi, 1) {
				ubRows = append(ubRows, ubRow{ncols, hi - lo})
			}
			ncols++
		case !math.IsInf(hi, 1):
			st.pos[v] = ncols
			st.neg[v] = -1
			st.shift[v] = hi
			sign[v] = -1
			ncols++
		default:
			st.pos[v] = ncols
			st.neg[v] = ncols + 1
			sign[v] = 1
			ncols += 2
		}
	}

	nrows := len(p.cons) + len(ubRows)
	// Slack/surplus columns: one per non-equality row.
	nslack := 0
	for _, c := range p.cons {
		if c.op != EQ {
			nslack++
		}
	}
	nslack += len(ubRows)

	st.m = nrows
	st.n = ncols + nslack
	st.a = make([][]float64, nrows)
	for i := range st.a {
		st.a[i] = make([]float64, st.n)
	}
	st.b = make([]float64, nrows)
	st.c = make([]float64, st.n)

	// Objective in standard columns.
	for v := 0; v < nv; v++ {
		coef := p.obj[v]
		st.c[st.pos[v]] += coef * sign[v]
		if st.neg[v] >= 0 {
			st.c[st.neg[v]] -= coef
		}
	}

	slackCol := ncols
	for i, con := range p.cons {
		rhs := con.rhs
		for _, t := range con.terms {
			v := int(t.Var)
			st.a[i][st.pos[v]] += t.Coef * sign[v]
			if st.neg[v] >= 0 {
				st.a[i][st.neg[v]] -= t.Coef
			}
			rhs -= t.Coef * st.shift[v]
		}
		switch con.op {
		case LE:
			st.a[i][slackCol] = 1
			slackCol++
		case GE:
			st.a[i][slackCol] = -1
			slackCol++
		}
		st.b[i] = rhs
	}
	for k, ub := range ubRows {
		i := len(p.cons) + k
		st.a[i][ub.col] = 1
		st.a[i][slackCol] = 1
		slackCol++
		st.b[i] = ub.ub
	}

	// Normalize rows to b ≥ 0.
	for i := range st.b {
		if st.b[i] < 0 {
			st.b[i] = -st.b[i]
			for j := range st.a[i] {
				st.a[i][j] = -st.a[i][j]
			}
		}
	}

	st.maxIters = p.MaxIters
	if st.maxIters == 0 {
		st.maxIters = 200 * (st.m + st.n + 10)
	}
	return st
}

// solve runs phase 1 (artificial minimization) then phase 2 on the tableau
// and maps the standard solution back to original variables.
func (st *standard) solve(p *Problem) Solution {
	m, n := st.m, st.n
	total := n + m // + artificial columns
	// Tableau: m rows of [A | I_art | b], plus objective row appended
	// logically via cost vectors.
	tab := make([][]float64, m)
	for i := 0; i < m; i++ {
		tab[i] = make([]float64, total+1)
		copy(tab[i], st.a[i])
		tab[i][n+i] = 1
		tab[i][total] = st.b[i]
	}
	basis := make([]int, m)
	for i := range basis {
		basis[i] = n + i
	}

	// Phase 1: minimize the sum of artificials.
	phase1 := make([]float64, total)
	for j := n; j < total; j++ {
		phase1[j] = 1
	}
	status, iters := runSimplex(tab, basis, phase1, total, st.maxIters, p.Check)
	if status == IterLimit || status == Aborted {
		return Solution{Status: status}
	}
	// Phase-1 objective value.
	p1 := 0.0
	for i, bi := range basis {
		if bi >= n {
			p1 += tab[i][total]
		}
	}
	if p1 > epsFeas {
		return Solution{Status: Infeasible}
	}
	// Drive remaining (degenerate) artificials out of the basis.
	for i := 0; i < m; i++ {
		if basis[i] < n {
			continue
		}
		pivoted := false
		for j := 0; j < n; j++ {
			if math.Abs(tab[i][j]) > epsPivot {
				pivot(tab, basis, i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row: zero it so it cannot interfere.
			for j := 0; j <= total; j++ {
				if j != basis[i] {
					tab[i][j] = 0
				}
			}
			tab[i][total] = 0
		}
	}

	// Phase 2: original objective; artificials barred from entering by
	// giving them +Inf cost sentinel handled in runSimplex via allowed width.
	phase2 := make([]float64, total)
	copy(phase2, st.c)
	budget := st.maxIters - iters
	if budget < 1000 {
		budget = 1000
	}
	status, _ = runSimplex(tab, basis, phase2, n, budget, p.Check)
	if status != Optimal {
		return Solution{Status: status}
	}

	// Extract standard solution.
	z := make([]float64, total)
	for i, bi := range basis {
		z[bi] = tab[i][total]
	}
	// Map back to original variables.
	nv := p.NumVars()
	x := make([]float64, nv)
	obj := 0.0
	for v := 0; v < nv; v++ {
		val := z[st.pos[v]]
		if st.neg[v] >= 0 {
			val -= z[st.neg[v]]
		} else if !math.IsInf(p.lo[v], -1) {
			// x = lo + z
		} else {
			// x = hi − z
			val = -val
		}
		val += st.shift[v]
		if math.IsNaN(val) || math.IsInf(val, 0) {
			// Numerical breakdown (tiny pivots can amplify rounding into
			// Inf−Inf): report failure rather than a poisoned solution.
			return Solution{Status: IterLimit}
		}
		x[v] = val
		obj += p.obj[v] * val
	}
	return Solution{Status: Optimal, X: x, Obj: obj}
}

// runSimplex performs primal simplex pivots on tab (rows m, rhs in last
// column) minimizing cost over columns [0, width). It returns Optimal when
// no improving column remains, Unbounded when an improving column has no
// positive entry, or IterLimit. iters reports pivots performed.
func runSimplex(tab [][]float64, basis []int, cost []float64, width, maxIters int, check func() error) (Status, int) {
	m := len(tab)
	if m == 0 {
		// No rows: every column can grow without limit, so any improving
		// column is an unbounded ray.
		for j := 0; j < width; j++ {
			if cost[j] < -epsCost {
				return Unbounded, 0
			}
		}
		return Optimal, 0
	}
	total := len(tab[0]) - 1
	// Reduced costs maintained in a separate row: r = cost − cBᵀ B⁻¹ A,
	// realized by starting from cost and pricing out each basic column.
	r := make([]float64, total+1)
	copy(r, cost)
	for i, bi := range basis {
		cb := cost[bi]
		if cb == 0 {
			continue
		}
		for j := 0; j <= total; j++ {
			r[j] -= cb * tab[i][j]
		}
	}

	iters := 0
	// Switch to Bland's rule after a stall to guarantee termination.
	blandAfter := 5 * (m + width + 10)
	stall := 0
	lastObj := math.Inf(1)
	for {
		// Entering column.
		enter := -1
		if stall < blandAfter {
			best := -epsCost
			for j := 0; j < width; j++ {
				if r[j] < best {
					best = r[j]
					enter = j
				}
			}
		} else {
			for j := 0; j < width; j++ {
				if r[j] < -epsCost {
					enter = j
					break
				}
			}
		}
		if enter == -1 {
			return Optimal, iters
		}
		if iters >= maxIters {
			return IterLimit, iters
		}
		if check != nil && iters%checkPollPeriod == 0 && check() != nil {
			return Aborted, iters
		}
		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			aij := tab[i][enter]
			if aij <= epsPivot {
				continue
			}
			ratio := tab[i][total] / aij
			if ratio < bestRatio-epsRatio ||
				(ratio < bestRatio+epsRatio && (leave == -1 || basis[i] < basis[leave])) {
				bestRatio = ratio
				leave = i
			}
		}
		if leave == -1 {
			return Unbounded, iters
		}
		pivotWithCost(tab, basis, r, leave, enter)
		iters++
		// Track stalling for the Bland switch.
		obj := -r[total]
		if obj < lastObj-1e-12 {
			lastObj = obj
			stall = 0
		} else {
			stall++
		}
	}
}

// pivot performs a Gauss-Jordan pivot on tab[row][col] and updates basis.
func pivot(tab [][]float64, basis []int, row, col int) {
	total := len(tab[0]) - 1
	pv := tab[row][col]
	inv := 1 / pv
	for j := 0; j <= total; j++ {
		tab[row][j] *= inv
	}
	tab[row][col] = 1
	for i := range tab {
		if i == row {
			continue
		}
		f := tab[i][col]
		if f == 0 {
			continue
		}
		for j := 0; j <= total; j++ {
			tab[i][j] -= f * tab[row][j]
		}
		tab[i][col] = 0
	}
	basis[row] = col
}

// pivotWithCost pivots and also updates the reduced-cost row r.
func pivotWithCost(tab [][]float64, basis []int, r []float64, row, col int) {
	pivot(tab, basis, row, col)
	total := len(tab[0]) - 1
	f := r[col]
	if f != 0 {
		for j := 0; j <= total; j++ {
			r[j] -= f * tab[row][j]
		}
		r[col] = 0
	}
}
