package qa

import (
	"fmt"
	"math"
	"math/rand"

	"rdlroute/internal/lp"
)

// LP check tolerances: the simplex runs float64 pivoting on small integer
// problems, so an optimal objective may exceed the planted point's by
// rounding only, and feasibility is checked against the stated
// constraints with the same slack.
const (
	lpObjRelTol  = 1e-6
	lpFeasSlack  = 1e-6
	lpMaxVars    = 8
	lpMaxCons    = 10
	lpCoefRange  = 8 // coefficients drawn from ±lpCoefRange
	lpBoundRange = 20
)

// randomLP draws a small random linear program around a planted point
// x0. Coefficients are small integers over a mix of bounded, one-sided
// and free variables, with ≤, ≥ and = rows — the shapes the layout
// optimizer emits — and zero rows as likely as any other row count. Every
// bound holds at x0 and every right-hand side is set so x0 satisfies its
// row (tightly about a third of the time), so the LP is feasible by
// construction and its optimum, if any, is at most planted = c·x0.
func randomLP(rng *rand.Rand) (p *lp.Problem, x0 []float64, planted float64) {
	p = lp.NewProblem()
	nv := 2 + rng.Intn(lpMaxVars-1)
	x0 = make([]float64, nv)
	for i := range x0 {
		x0[i] = float64(rng.Intn(2*lpBoundRange+1) - lpBoundRange)
		below := x0[i] - float64(rng.Intn(lpBoundRange))
		above := x0[i] + float64(rng.Intn(lpBoundRange))
		switch rng.Intn(4) {
		case 0:
			p.AddFreeVar()
		case 1:
			p.AddVar(below, math.Inf(1))
		case 2:
			p.AddVar(math.Inf(-1), above)
		default:
			p.AddVar(below, above)
		}
		c := float64(rng.Intn(2*lpCoefRange+1) - lpCoefRange)
		p.SetObj(lp.VarID(i), c)
		planted += c * x0[i]
	}
	nc := rng.Intn(lpMaxCons + 1)
	for c := 0; c < nc; c++ {
		var terms []lp.Term
		lhs := 0.0
		for v := 0; v < nv; v++ {
			if rng.Intn(3) == 0 {
				continue
			}
			coef := float64(rng.Intn(2*lpCoefRange+1) - lpCoefRange)
			if coef == 0 {
				continue
			}
			terms = append(terms, lp.Term{Var: lp.VarID(v), Coef: coef})
			lhs += coef * x0[v]
		}
		if len(terms) == 0 {
			v := rng.Intn(nv)
			terms = []lp.Term{{Var: lp.VarID(v), Coef: 1}}
			lhs = x0[v]
		}
		slack := 0.0
		if rng.Intn(3) > 0 {
			slack = float64(1 + rng.Intn(2*lpCoefRange))
		}
		switch rng.Intn(5) {
		case 0:
			p.AddEQ(terms, lhs)
		case 1:
			p.AddGE(terms, lhs-slack)
		default:
			p.AddLE(terms, lhs+slack)
		}
	}
	return p, x0, planted
}

// CheckLPAgreement holds the simplex to a planted answer on one random
// LP: the problem is feasible by construction, so the solver must never
// call it infeasible, and an optimal answer must satisfy its own problem
// and agree with the planted point by being no worse than it.
// Iteration-limited runs carry no verdict.
func CheckLPAgreement(seed int64) []Failure {
	rng := rand.New(rand.NewSource(seed ^ 0x5851f42d4c957f2d))
	p, x0, planted := randomLP(rng)
	sol := p.Solve()

	var fails []Failure
	failf := func(oracle, format string, args ...any) {
		fails = append(fails, Failure{Oracle: oracle, Detail: fmt.Sprintf(format, args...)})
	}
	switch sol.Status {
	case lp.Infeasible:
		failf("lp-status", "simplex says infeasible, but the planted point %v is feasible", x0)
	case lp.Optimal:
		if err := p.CheckFeasible(sol.X, lpFeasSlack); err != nil {
			failf("lp-feasibility", "optimal solution infeasible: %v", err)
		}
		if sol.Obj > planted+lpObjRelTol*(1+math.Abs(planted)) {
			failf("lp-objective", "optimum %.9g exceeds the planted point's objective %.9g", sol.Obj, planted)
		}
	}
	return fails
}
