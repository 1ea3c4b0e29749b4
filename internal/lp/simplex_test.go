package lp

import (
	"math"
	"math/rand"
	"testing"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSimple2D(t *testing.T) {
	// max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18, x,y ≥ 0
	// (classic Dantzig example; optimum x=2, y=6, obj 36).
	p := NewProblem()
	x := p.AddVar(0, math.Inf(1))
	y := p.AddVar(0, math.Inf(1))
	p.SetObj(x, -3) // minimize −(3x+5y)
	p.SetObj(y, -5)
	p.AddLE([]Term{{x, 1}}, 4)
	p.AddLE([]Term{{y, 2}}, 12)
	p.AddLE([]Term{{x, 3}, {y, 2}}, 18)
	s := p.Solve()
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !approx(s.X[x], 2, 1e-8) || !approx(s.X[y], 6, 1e-8) || !approx(s.Obj, -36, 1e-8) {
		t.Errorf("x=%v y=%v obj=%v", s.X[x], s.X[y], s.Obj)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + y s.t. x + y = 10, x ≥ 3, y ≥ 2 → obj 10.
	p := NewProblem()
	x := p.AddVar(3, math.Inf(1))
	y := p.AddVar(2, math.Inf(1))
	p.SetObj(x, 1)
	p.SetObj(y, 1)
	p.AddEQ([]Term{{x, 1}, {y, 1}}, 10)
	s := p.Solve()
	if s.Status != Optimal || !approx(s.Obj, 10, 1e-8) {
		t.Fatalf("status=%v obj=%v", s.Status, s.Obj)
	}
	if s.X[x] < 3-1e-9 || s.X[y] < 2-1e-9 {
		t.Errorf("bounds violated: x=%v y=%v", s.X[x], s.X[y])
	}
}

func TestFreeVariables(t *testing.T) {
	// min |…| style: min x − y s.t. x − y ≥ −5, both free → obj −5.
	p := NewProblem()
	x := p.AddFreeVar()
	y := p.AddFreeVar()
	p.SetObj(x, 1)
	p.SetObj(y, -1)
	p.AddGE([]Term{{x, 1}, {y, -1}}, -5)
	s := p.Solve()
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !approx(s.Obj, -5, 1e-8) {
		t.Errorf("obj = %v, want -5", s.Obj)
	}
	if !approx(s.X[x]-s.X[y], -5, 1e-8) {
		t.Errorf("x-y = %v", s.X[x]-s.X[y])
	}
}

func TestNegativeLowerBounds(t *testing.T) {
	// min x s.t. x ≥ −7 → −7.
	p := NewProblem()
	x := p.AddVar(-7, 100)
	p.SetObj(x, 1)
	s := p.Solve()
	if s.Status != Optimal || !approx(s.X[x], -7, 1e-8) {
		t.Fatalf("status=%v x=%v", s.Status, s.X)
	}
	// max x (min −x) under the same bounds → 100.
	p2 := NewProblem()
	x2 := p2.AddVar(-7, 100)
	p2.SetObj(x2, -1)
	s2 := p2.Solve()
	if s2.Status != Optimal || !approx(s2.X[x2], 100, 1e-8) {
		t.Fatalf("status=%v x=%v", s2.Status, s2.X)
	}
}

func TestUpperBoundOnlyVariable(t *testing.T) {
	// min −x s.t. x ≤ 9 (no lower bound) → x = 9.
	p := NewProblem()
	x := p.AddVar(math.Inf(-1), 9)
	p.SetObj(x, -1)
	s := p.Solve()
	if s.Status != Optimal || !approx(s.X[x], 9, 1e-8) {
		t.Fatalf("status=%v x=%v", s.Status, s.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, math.Inf(1))
	p.AddLE([]Term{{x, 1}}, 3)
	p.AddGE([]Term{{x, 1}}, 5)
	s := p.Solve()
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestInfeasibleEquality(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, math.Inf(1))
	y := p.AddVar(0, math.Inf(1))
	p.AddEQ([]Term{{x, 1}, {y, 1}}, 5)
	p.AddEQ([]Term{{x, 1}, {y, 1}}, 7)
	s := p.Solve()
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, math.Inf(1))
	p.SetObj(x, -1)
	p.AddGE([]Term{{x, 1}}, 1)
	s := p.Solve()
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestDegenerate(t *testing.T) {
	// A classic degenerate LP (multiple constraints meeting at the optimum).
	p := NewProblem()
	x := p.AddVar(0, math.Inf(1))
	y := p.AddVar(0, math.Inf(1))
	p.SetObj(x, -1)
	p.SetObj(y, -1)
	p.AddLE([]Term{{x, 1}}, 1)
	p.AddLE([]Term{{y, 1}}, 1)
	p.AddLE([]Term{{x, 1}, {y, 1}}, 2)
	p.AddLE([]Term{{x, 1}, {y, 2}}, 3)
	s := p.Solve()
	if s.Status != Optimal || !approx(s.Obj, -2, 1e-8) {
		t.Fatalf("status=%v obj=%v", s.Status, s.Obj)
	}
}

func TestRedundantEquality(t *testing.T) {
	// Duplicated equality rows produce a redundant row in phase 1.
	p := NewProblem()
	x := p.AddVar(0, 10)
	y := p.AddVar(0, 10)
	p.SetObj(x, 1)
	p.SetObj(y, 2)
	p.AddEQ([]Term{{x, 1}, {y, 1}}, 6)
	p.AddEQ([]Term{{x, 2}, {y, 2}}, 12) // same hyperplane
	s := p.Solve()
	if s.Status != Optimal || !approx(s.Obj, 6, 1e-8) {
		t.Fatalf("status=%v obj=%v x=%v", s.Status, s.Obj, s.X)
	}
}

func TestDifferenceConstraintChain(t *testing.T) {
	// The layout LP's dominant pattern: difference constraints.
	// min x3 − x0 s.t. x1 − x0 ≥ 2, x2 − x1 ≥ 3, x3 − x2 ≥ 4 → 9.
	p := NewProblem()
	var v [4]VarID
	for i := range v {
		v[i] = p.AddFreeVar()
	}
	p.SetObj(v[3], 1)
	p.SetObj(v[0], -1)
	p.AddGE([]Term{{v[1], 1}, {v[0], -1}}, 2)
	p.AddGE([]Term{{v[2], 1}, {v[1], -1}}, 3)
	p.AddGE([]Term{{v[3], 1}, {v[2], -1}}, 4)
	s := p.Solve()
	if s.Status != Optimal || !approx(s.Obj, 9, 1e-8) {
		t.Fatalf("status=%v obj=%v", s.Status, s.Obj)
	}
}

func TestWirelengthStylePiece(t *testing.T) {
	// Minimizing c2−c1 with c1 ≤ p ≤ c2 (a wire spanning a fixed point):
	// optimum collapses both onto p.
	p := NewProblem()
	c1 := p.AddFreeVar()
	c2 := p.AddFreeVar()
	p.SetObj(c1, -1)
	p.SetObj(c2, 1)
	p.AddLE([]Term{{c1, 1}}, 42)
	p.AddGE([]Term{{c2, 1}}, 42)
	p.AddGE([]Term{{c2, 1}, {c1, -1}}, 0)
	s := p.Solve()
	if s.Status != Optimal || !approx(s.Obj, 0, 1e-8) {
		t.Fatalf("status=%v obj=%v", s.Status, s.Obj)
	}
}

func TestValidateErrors(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(0, 1)
	p.AddLE([]Term{{x + 5, 1}}, 1)
	if err := p.Validate(); err == nil {
		t.Error("unknown var must fail validation")
	}
	p2 := NewProblem()
	y := p2.AddVar(0, 1)
	p2.AddLE([]Term{{y, math.NaN()}}, 1)
	if err := p2.Validate(); err == nil {
		t.Error("NaN coefficient must fail validation")
	}
	p3 := NewProblem()
	p3.AddVar(5, 1)
	if err := p3.Validate(); err == nil {
		t.Error("empty bound interval must fail validation")
	}
}

// TestRandomFeasibilityAndOptimality generates random bounded LPs, solves
// them, and verifies (a) the solution satisfies every constraint, and (b)
// no sampled feasible point beats the reported optimum.
func TestRandomFeasibilityAndOptimality(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		nv := 2 + rng.Intn(4)
		p := NewProblem()
		vars := make([]VarID, nv)
		lo := make([]float64, nv)
		hi := make([]float64, nv)
		for i := 0; i < nv; i++ {
			lo[i] = float64(rng.Intn(20) - 10)
			hi[i] = lo[i] + float64(1+rng.Intn(20))
			vars[i] = p.AddVar(lo[i], hi[i])
			p.SetObj(vars[i], float64(rng.Intn(21)-10))
		}
		ncons := rng.Intn(6)
		type row struct {
			coef []float64
			op   Op
			rhs  float64
		}
		var rows []row
		for k := 0; k < ncons; k++ {
			coef := make([]float64, nv)
			var terms []Term
			for i := 0; i < nv; i++ {
				c := float64(rng.Intn(7) - 3)
				coef[i] = c
				if c != 0 {
					terms = append(terms, Term{vars[i], c})
				}
			}
			if len(terms) == 0 {
				continue
			}
			// Choose rhs so that the box center is feasible, keeping the
			// instance feasible by construction.
			center := 0.0
			for i := 0; i < nv; i++ {
				center += coef[i] * (lo[i] + hi[i]) / 2
			}
			op := Op(rng.Intn(2)) // LE or GE only (EQ through centers is fine too but keep it simple)
			margin := rng.Float64() * 10
			var rhs float64
			if op == LE {
				rhs = center + margin
			} else {
				rhs = center - margin
			}
			p.AddConstraint(terms, op, rhs)
			rows = append(rows, row{coef, op, rhs})
		}
		s := p.Solve()
		if s.Status != Optimal {
			t.Fatalf("trial %d: status = %v (instance is feasible and bounded by construction)", trial, s.Status)
		}
		// (a) Feasibility.
		for i := 0; i < nv; i++ {
			if s.X[i] < lo[i]-1e-6 || s.X[i] > hi[i]+1e-6 {
				t.Fatalf("trial %d: var %d = %v outside [%v,%v]", trial, i, s.X[i], lo[i], hi[i])
			}
		}
		for ri, r := range rows {
			lhs := 0.0
			for i := 0; i < nv; i++ {
				lhs += r.coef[i] * s.X[i]
			}
			switch r.op {
			case LE:
				if lhs > r.rhs+1e-6 {
					t.Fatalf("trial %d: row %d violated: %v <= %v", trial, ri, lhs, r.rhs)
				}
			case GE:
				if lhs < r.rhs-1e-6 {
					t.Fatalf("trial %d: row %d violated: %v >= %v", trial, ri, lhs, r.rhs)
				}
			}
		}
		// (b) No sampled feasible point does better.
		for sample := 0; sample < 300; sample++ {
			pt := make([]float64, nv)
			for i := 0; i < nv; i++ {
				pt[i] = lo[i] + rng.Float64()*(hi[i]-lo[i])
			}
			feasible := true
			for _, r := range rows {
				lhs := 0.0
				for i := 0; i < nv; i++ {
					lhs += r.coef[i] * pt[i]
				}
				if (r.op == LE && lhs > r.rhs) || (r.op == GE && lhs < r.rhs) {
					feasible = false
					break
				}
			}
			if !feasible {
				continue
			}
			obj := 0.0
			for i := 0; i < nv; i++ {
				obj += p.obj[vars[i]] * pt[i]
			}
			if obj < s.Obj-1e-6 {
				t.Fatalf("trial %d: sampled point beats optimum: %v < %v", trial, obj, s.Obj)
			}
		}
	}
}

func TestProblemReuseAfterSolve(t *testing.T) {
	// The optimizer re-solves the same Problem with extra constraints added
	// between iterations; the Problem must stay valid.
	p := NewProblem()
	x := p.AddVar(0, 100)
	p.SetObj(x, -1)
	s1 := p.Solve()
	if s1.Status != Optimal || !approx(s1.X[x], 100, 1e-8) {
		t.Fatalf("first solve: %v %v", s1.Status, s1.X)
	}
	p.AddLE([]Term{{x, 1}}, 40)
	s2 := p.Solve()
	if s2.Status != Optimal || !approx(s2.X[x], 40, 1e-8) {
		t.Fatalf("second solve: %v %v", s2.Status, s2.X)
	}
}

// TestZeroRowLP pins the pricing of an LP with no rows at all (no
// constraints and no finite upper bound, so the standard form has no
// tableau rows): an improving column is an unbounded ray, not an optimum
// at the shift point.
func TestZeroRowLP(t *testing.T) {
	p := NewProblem()
	for _, c := range []float64{-3, 7, -2} {
		p.SetObj(p.AddFreeVar(), c)
	}
	if s := p.Solve(); s.Status != Unbounded {
		t.Fatalf("min −3x₀ + 7x₁ − 2x₂ over free x: status = %v (x = %v), want unbounded", s.Status, s.X)
	}
	// One-sided variables: minimizing toward the open side is unbounded,
	// toward the finite bound is optimal at it.
	lower := NewProblem()
	lower.SetObj(lower.AddVar(-4, math.Inf(1)), -1)
	if s := lower.Solve(); s.Status != Unbounded {
		t.Fatalf("min −x over x ≥ −4: status = %v, want unbounded", s.Status)
	}
	upper := NewProblem()
	upper.SetObj(upper.AddVar(math.Inf(-1), 9), 1)
	if s := upper.Solve(); s.Status != Unbounded {
		t.Fatalf("min x over x ≤ 9: status = %v, want unbounded", s.Status)
	}
	bounded := NewProblem()
	x := bounded.AddVar(-4, math.Inf(1))
	y := bounded.AddVar(math.Inf(-1), 9)
	bounded.AddFreeVar() // zero cost: any value is optimal
	bounded.SetObj(x, 2)
	bounded.SetObj(y, -1)
	s := bounded.Solve()
	if s.Status != Optimal || !approx(s.X[x], -4, 1e-9) || !approx(s.X[y], 9, 1e-9) || !approx(s.Obj, -17, 1e-9) {
		t.Fatalf("min 2x − y over x ≥ −4, y ≤ 9, free z: status=%v x=%v obj=%v, want optimal -17", s.Status, s.X, s.Obj)
	}
}

// vertexOptimum solves min cᵀx over {x : lo ≤ x ≤ hi, rows} by exact
// vertex enumeration. Every bound is finite, so the region is a polytope:
// empty, or with an optimal vertex. A vertex is a feasible point where n
// linearly independent constraints (rows taken as equalities, or bounds)
// are tight; equality rows need not be among the n chosen, feasibility
// holds them. It reports whether any vertex is feasible and the least
// objective over the feasible ones.
func vertexOptimum(c, lo, hi []float64, rows [][]float64, ops []Op, rhs []float64) (float64, bool) {
	n := len(c)
	// Candidate tight constraints: a·x = b.
	var cand [][]float64 // each entry: n coefficients then b
	for i, r := range rows {
		cand = append(cand, append(append([]float64(nil), r...), rhs[i]))
	}
	for v := 0; v < n; v++ {
		for _, b := range []float64{lo[v], hi[v]} {
			e := make([]float64, n+1)
			e[v], e[n] = 1, b
			cand = append(cand, e)
		}
	}
	const eps = 1e-7
	feasible := func(x []float64) bool {
		for v := range x {
			if x[v] < lo[v]-eps || x[v] > hi[v]+eps {
				return false
			}
		}
		for i, r := range rows {
			lhs := 0.0
			for v, a := range r {
				lhs += a * x[v]
			}
			if (ops[i] == LE && lhs > rhs[i]+eps) || (ops[i] == GE && lhs < rhs[i]-eps) ||
				(ops[i] == EQ && math.Abs(lhs-rhs[i]) > eps) {
				return false
			}
		}
		return true
	}
	best, found := math.Inf(1), false
	pick := make([]int, n)
	var choose func(k, from int)
	choose = func(k, from int) {
		if k == n {
			if x, ok := solveSquare(cand, pick); ok && feasible(x) {
				obj := 0.0
				for v := range x {
					obj += c[v] * x[v]
				}
				best, found = math.Min(best, obj), true
			}
			return
		}
		for i := from; i < len(cand); i++ {
			pick[k] = i
			choose(k+1, i+1)
		}
	}
	choose(0, 0)
	return best, found
}

// solveSquare solves the n×n system formed by the picked candidate rows
// by Gaussian elimination with partial pivoting; ok is false when the
// rows are linearly dependent.
func solveSquare(cand [][]float64, pick []int) ([]float64, bool) {
	n := len(pick)
	a := make([][]float64, n)
	for i, ci := range pick {
		a[i] = append([]float64(nil), cand[ci]...)
	}
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		if math.Abs(a[p][col]) < 1e-9 {
			return nil, false
		}
		a[col], a[p] = a[p], a[col]
		for r := 0; r < n; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col] / a[col][col]
			for k := col; k <= n; k++ {
				a[r][k] -= f * a[col][k]
			}
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = a[i][n] / a[i][i]
	}
	return x, true
}

// TestMatchesVertexEnumeration holds Solve to exact answers: on random
// boxed LPs with 1–4 variables and 0–4 EQ/LE/GE rows of small integer
// coefficients, the status (optimal or infeasible; a polytope is never
// unbounded) and the optimal objective must match vertex enumeration.
func TestMatchesVertexEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var optimal, infeasible int
	for trial := 0; trial < 10000; trial++ {
		n := 1 + rng.Intn(4)
		p := NewProblem()
		c := make([]float64, n)
		lo := make([]float64, n)
		hi := make([]float64, n)
		for v := range c {
			lo[v] = float64(rng.Intn(11) - 5)
			hi[v] = lo[v] + float64(rng.Intn(8))
			c[v] = float64(rng.Intn(11) - 5)
			p.SetObj(p.AddVar(lo[v], hi[v]), c[v])
		}
		nr := rng.Intn(5)
		rows := make([][]float64, nr)
		ops := make([]Op, nr)
		rhs := make([]float64, nr)
		for i := range rows {
			rows[i] = make([]float64, n)
			var terms []Term
			for v := range rows[i] {
				if a := float64(rng.Intn(7) - 3); a != 0 {
					rows[i][v] = a
					terms = append(terms, Term{VarID(v), a})
				}
			}
			ops[i] = Op(rng.Intn(3))
			rhs[i] = float64(rng.Intn(21) - 10)
			p.AddConstraint(terms, ops[i], rhs[i])
		}
		want, feasible := vertexOptimum(c, lo, hi, rows, ops, rhs)
		s := p.Solve()
		switch {
		case !feasible && s.Status != Infeasible:
			t.Fatalf("trial %d: solver says %v (obj %v), vertex enumeration finds no feasible vertex", trial, s.Status, s.Obj)
		case feasible && s.Status != Optimal:
			t.Fatalf("trial %d: solver says %v, vertex enumeration finds optimum %v", trial, s.Status, want)
		case feasible && math.Abs(s.Obj-want) > 1e-6*(1+math.Abs(want)):
			t.Fatalf("trial %d: solver optimum %v, vertex enumeration %v", trial, s.Obj, want)
		}
		if feasible {
			optimal++
		} else {
			infeasible++
		}
	}
	t.Logf("%d optimal, %d infeasible", optimal, infeasible)
}

// TestFreeVarChainsAnalytic solves difference chains over free variables
// (the layout-LP shape): x₀ is anchored at a, xᵢ − xᵢ₋₁ ≥ gᵢ, and the
// objective Σᵢ≥₁ xᵢ is least on the minimal chain xᵢ = a + g₁ + … + gᵢ,
// which every feasible point dominates term by term.
func TestFreeVarChainsAnalytic(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 5000))
		n := 3 + rng.Intn(4)
		p := NewProblem()
		vars := make([]VarID, n)
		for i := range vars {
			vars[i] = p.AddFreeVar()
		}
		chain := float64(rng.Intn(20))
		p.AddEQ([]Term{{vars[0], 1}}, chain)
		want := 0.0
		for i := 1; i < n; i++ {
			gap := float64(1 + rng.Intn(10))
			p.AddGE([]Term{{vars[i], 1}, {vars[i-1], -1}}, gap)
			p.SetObj(vars[i], 1)
			chain += gap
			want += chain
		}
		s := p.Solve()
		if s.Status != Optimal || !approx(s.Obj, want, 1e-6*(1+want)) {
			t.Fatalf("trial %d: status=%v obj=%v, want optimal %v", trial, s.Status, s.Obj, want)
		}
	}
}

// mediumLP builds a layout-shaped LP: free variables, difference chains
// and box bounds. It also returns the optimal objective: every cap row
// allows at least 10 per chain step and every gap is at most 10, so the
// minimal chain is feasible and, as in TestFreeVarChainsAnalytic, optimal.
func mediumLP(n int, seed int64) (*Problem, float64) {
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem()
	vars := make([]VarID, n)
	for i := range vars {
		vars[i] = p.AddFreeVar()
	}
	p.AddEQ([]Term{{vars[0], 1}}, 0)
	chain, want := 0.0, 0.0
	for i := 1; i < n; i++ {
		gap := float64(2 + rng.Intn(9))
		p.AddGE([]Term{{vars[i], 1}, {vars[i-1], -1}}, gap)
		p.SetObj(vars[i], 1)
		chain += gap
		want += chain
	}
	for k := 0; k < n/2; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		// x_a ≤ x_b along the ascending chain: always satisfiable, and it
		// caps how far apart the two may drift.
		p.AddLE([]Term{{vars[b], 1}, {vars[a], -1}}, float64(10*(b-a)+rng.Intn(40)))
	}
	return p, want
}

func TestMediumLPAnalytic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		p, want := mediumLP(40, seed)
		s := p.Solve()
		if s.Status != Optimal || !approx(s.Obj, want, 1e-6*(1+want)) {
			t.Fatalf("seed %d: status=%v obj=%v, want optimal %v", seed, s.Status, s.Obj, want)
		}
	}
}

func BenchmarkDenseTableau(b *testing.B) {
	p, _ := mediumLP(60, 1)
	for i := 0; i < b.N; i++ {
		if s := p.Solve(); s.Status != Optimal {
			b.Fatal(s.Status)
		}
	}
}
