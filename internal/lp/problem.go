// Package lp is a from-scratch linear-programming solver used in place of
// the Gurobi Optimizer the paper calls into. It implements a two-phase
// dense-tableau primal simplex with a Dantzig pricing rule and a Bland
// anti-cycling fallback, over a general problem form:
//
//	minimize    cᵀx
//	subject to  aᵢᵀx ⋈ bᵢ      (⋈ ∈ {≤, =, ≥})
//	            lo ≤ x ≤ hi    (bounds may be ±Inf)
//
// The layout-optimization LPs it solves are small after the optimizer's
// independent-component decomposition, so a dense tableau is the right
// trade-off: simple, exact (up to float64), and easily verified.
package lp

import (
	"fmt"
	"math"
)

// VarID identifies a decision variable within a Problem.
type VarID int

// Op is a constraint comparison operator.
type Op uint8

// Constraint operators.
const (
	LE Op = iota // ≤
	GE           // ≥
	EQ           // =
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "="
	}
}

// Term is one coefficient·variable term of a linear expression.
type Term struct {
	Var  VarID
	Coef float64
}

// Status is the outcome of a Solve call.
type Status uint8

// Solver outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
	// Aborted means Problem.Check reported an error mid-solve (typically a
	// cancelled context); the solution is unusable.
	Aborted
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Aborted:
		return "aborted"
	default:
		return "iteration-limit"
	}
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status Status
	X      []float64 // value per VarID (valid only when Status == Optimal)
	Obj    float64   // objective value at X
}

type constraint struct {
	terms []Term
	op    Op
	rhs   float64
}

// Problem is a linear program under construction. The zero value is not
// usable; call NewProblem.
type Problem struct {
	lo, hi []float64
	obj    []float64
	cons   []constraint
	// MaxIters bounds simplex iterations; 0 means an automatic limit
	// proportional to the problem size.
	MaxIters int
	// Check, when non-nil, is polled every checkPollPeriod pivots; a
	// non-nil return aborts the solve with Status Aborted. It is how a
	// cancelled routing job interrupts a long-running LP cleanly.
	Check func() error
}

// checkPollPeriod is how many pivots pass between Problem.Check polls.
const checkPollPeriod = 32

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem { return &Problem{} }

// NumVars returns the number of declared variables.
func (p *Problem) NumVars() int { return len(p.lo) }

// NumConstraints returns the number of added constraints.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// AddVar declares a variable with bounds [lo, hi]; either bound may be
// ±Inf. The objective coefficient starts at 0.
func (p *Problem) AddVar(lo, hi float64) VarID {
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	p.obj = append(p.obj, 0)
	return VarID(len(p.lo) - 1)
}

// AddFreeVar declares a variable with no bounds.
func (p *Problem) AddFreeVar() VarID {
	return p.AddVar(math.Inf(-1), math.Inf(1))
}

// SetObj sets the objective coefficient of v (minimization).
func (p *Problem) SetObj(v VarID, c float64) { p.obj[v] = c }

// AddObj adds c to the objective coefficient of v.
func (p *Problem) AddObj(v VarID, c float64) { p.obj[v] += c }

// AddConstraint adds the linear constraint Σ terms ⋈ rhs. Terms referring
// to the same variable are accumulated.
func (p *Problem) AddConstraint(terms []Term, op Op, rhs float64) {
	cp := make([]Term, len(terms))
	copy(cp, terms)
	p.cons = append(p.cons, constraint{cp, op, rhs})
}

// AddLE adds Σ terms ≤ rhs.
func (p *Problem) AddLE(terms []Term, rhs float64) { p.AddConstraint(terms, LE, rhs) }

// AddGE adds Σ terms ≥ rhs.
func (p *Problem) AddGE(terms []Term, rhs float64) { p.AddConstraint(terms, GE, rhs) }

// AddEQ adds Σ terms = rhs.
func (p *Problem) AddEQ(terms []Term, rhs float64) { p.AddConstraint(terms, EQ, rhs) }

// CheckFeasible verifies that x satisfies every variable bound and every
// constraint of the problem within eps, returning a descriptive error for
// the first violation. The QA harness and the fuzz target use it to hold
// the simplex to its own problem statement.
func (p *Problem) CheckFeasible(x []float64, eps float64) error {
	if len(x) < len(p.lo) {
		return fmt.Errorf("lp: solution has %d values for %d vars", len(x), len(p.lo))
	}
	for v, lo := range p.lo {
		if x[v] < lo-eps || x[v] > p.hi[v]+eps {
			return fmt.Errorf("lp: var %d = %v outside bounds [%v, %v]", v, x[v], lo, p.hi[v])
		}
	}
	for i, c := range p.cons {
		sum := 0.0
		for _, t := range c.terms {
			sum += t.Coef * x[t.Var]
		}
		switch c.op {
		case LE:
			if sum > c.rhs+eps {
				return fmt.Errorf("lp: constraint %d: %v > %v", i, sum, c.rhs)
			}
		case GE:
			if sum < c.rhs-eps {
				return fmt.Errorf("lp: constraint %d: %v < %v", i, sum, c.rhs)
			}
		case EQ:
			if math.Abs(sum-c.rhs) > eps {
				return fmt.Errorf("lp: constraint %d: %v != %v", i, sum, c.rhs)
			}
		}
	}
	return nil
}

// Validate checks internal consistency (variable ids in range, finite
// coefficients) and returns a descriptive error for the first violation.
func (p *Problem) Validate() error {
	for i, c := range p.cons {
		if math.IsNaN(c.rhs) || math.IsInf(c.rhs, 0) {
			return fmt.Errorf("lp: constraint %d has non-finite rhs %v", i, c.rhs)
		}
		for _, t := range c.terms {
			if int(t.Var) < 0 || int(t.Var) >= len(p.lo) {
				return fmt.Errorf("lp: constraint %d refers to unknown var %d", i, t.Var)
			}
			if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
				return fmt.Errorf("lp: constraint %d has non-finite coefficient %v", i, t.Coef)
			}
		}
	}
	for v, lo := range p.lo {
		if lo > p.hi[v] {
			return fmt.Errorf("lp: var %d has empty bound [%v, %v]", v, lo, p.hi[v])
		}
	}
	return nil
}
