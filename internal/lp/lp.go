// Package lp is a self-contained linear-programming solver (two-phase
// primal simplex on a row-major tableau) used by the controller to solve
// the paper's load-balancing optimizations, Eq. (1) and Eq. (2). The
// module is stdlib-only by project constraint, so the solver is written
// here rather than imported.
//
// Problems are stated as
//
//	minimize    c·x
//	subject to  a_i·x (<=|=|>=) b_i   for each constraint i
//	            x >= 0
//
// which is exactly the shape of the paper's formulations (all decision
// variables t(...) are non-negative traffic volumes).
//
// Pricing is Dantzig's rule with a Bland's-rule fallback against
// cycling, with explicit tolerances and artificial-variable cleanup
// between phases. The tableau has one row per constraint plus the
// objective row; its columns are the structural variables, one slack or
// surplus per inequality, one artificial per row that needs one (Eq and
// Ge rows after rows with a negative rhs are negated), then the rhs.
//
// A pivot scales the pivot row, collects its non-zero columns once and
// updates every other row only at those columns; on the controller's
// programs most of a pivot row is zero. Phase two never prices or reads
// an artificial column, so its pivots also leave the artificial block
// untouched. Skipping a zero entry can change only the sign of a zero,
// which no comparison sees, so pivot choices and values are exactly
// those of a full-row update. Solution.X never carries a negative zero:
// values within the tolerance below zero, -0 included, are returned as
// +0, so weights exported or diffed downstream have one encoding.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Op is a constraint relation.
type Op int

// Constraint relations.
const (
	Le Op = iota + 1 // a·x <= b
	Eq               // a·x  = b
	Ge               // a·x >= b
)

// String renders the relation.
func (o Op) String() string {
	switch o {
	case Le:
		return "<="
	case Eq:
		return "="
	case Ge:
		return ">="
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Term is one coefficient of a linear expression.
type Term struct {
	Var  int
	Coef float64
}

type constraint struct {
	terms []Term
	op    Op
	rhs   float64
}

// normalizedOp is the constraint's relation once a negative rhs has
// been negated to make it non-negative.
func (c constraint) normalizedOp() Op {
	if c.rhs < 0 {
		switch c.op {
		case Le:
			return Ge
		case Ge:
			return Le
		}
	}
	return c.op
}

// Problem is a linear program under construction. Create with NewProblem,
// add variables and constraints, then Solve.
type Problem struct {
	names       []string
	objective   []float64
	constraints []constraint
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// AddVar introduces a non-negative variable and returns its index. The
// name is only for diagnostics.
func (p *Problem) AddVar(name string) int {
	p.names = append(p.names, name)
	p.objective = append(p.objective, 0)
	return len(p.names) - 1
}

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.names) }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.constraints) }

// SetObjective sets the cost coefficient of a variable (minimization).
func (p *Problem) SetObjective(v int, coef float64) {
	p.objective[v] = coef
}

// AddConstraint adds a constraint Σ terms (op) rhs. Terms may repeat a
// variable; coefficients accumulate.
func (p *Problem) AddConstraint(op Op, rhs float64, terms ...Term) {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.names) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d", t.Var))
		}
	}
	p.constraints = append(p.constraints, constraint{
		terms: append([]Term(nil), terms...),
		op:    op,
		rhs:   rhs,
	})
}

// Status reports the outcome of Solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota + 1
	Infeasible
	Unbounded
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	Objective float64
	// X holds one value per variable added with AddVar.
	X []float64
	// Iterations counts simplex pivots across both phases.
	Iterations int
}

// Value returns the solution value of variable v.
func (s *Solution) Value(v int) float64 { return s.X[v] }

// ErrIterationLimit is returned when the simplex fails to terminate
// within its iteration budget (should not happen with Bland's fallback;
// kept as a defensive escape hatch).
var ErrIterationLimit = errors.New("lp: iteration limit exceeded")

const eps = 1e-9

// tableau is the simplex working state. Row layout: one row per
// constraint then the objective row. Column layout: structural variables,
// slack/surplus variables, artificial variables, then the RHS column.
type tableau struct {
	rows, cols int // excludes objective row / rhs col in naming below
	a          [][]float64
	basis      []int // basis[r] = column basic in row r
	artStart   int
	// live bounds the non-rhs columns a pivot updates: every column in
	// phase one, [0, artStart) once the artificials are dead.
	live int
	// nz is scratch for the pivot row's non-zero columns.
	nz         []int
	iterations int
}

// Solve runs two-phase simplex and returns the solution.
func (p *Problem) Solve() (*Solution, error) {
	n := len(p.names)
	m := len(p.constraints)

	// Count extra columns: a slack or surplus per inequality, and an
	// artificial per row whose canonical form lacks an obvious basic
	// column (Eq and Ge rows once a negative rhs has flipped Le and Ge).
	nSlack, nArt := 0, 0
	for _, c := range p.constraints {
		if c.op != Eq {
			nSlack++
		}
		if c.normalizedOp() != Le {
			nArt++
		}
	}
	slackStart := n
	artStart := n + nSlack
	cols := artStart + nArt
	t := &tableau{
		rows:     m,
		cols:     cols,
		artStart: artStart,
		live:     cols,
		basis:    make([]int, m),
		nz:       make([]int, 0, cols+1),
	}
	t.a = make([][]float64, m+1)
	for i := range t.a {
		t.a[i] = make([]float64, cols+1)
	}

	slackIdx := slackStart
	artIdx := artStart
	for i, c := range p.constraints {
		row := t.a[i]
		for _, term := range c.terms {
			row[term.Var] += term.Coef
		}
		row[cols] = c.rhs
		if c.rhs < 0 {
			for j := range row {
				row[j] = -row[j]
			}
		}
		switch c.normalizedOp() {
		case Le:
			row[slackIdx] = 1
			t.basis[i] = slackIdx
			slackIdx++
		case Ge:
			row[slackIdx] = -1
			slackIdx++
			row[artIdx] = 1
			t.basis[i] = artIdx
			artIdx++
		case Eq:
			row[artIdx] = 1
			t.basis[i] = artIdx
			artIdx++
		}
	}

	// Phase 1: minimize the sum of artificial variables.
	if nArt > 0 {
		obj := t.a[m]
		for j := artStart; j < cols; j++ {
			obj[j] = 1
		}
		// Price out the basic artificial columns.
		for i := 0; i < m; i++ {
			if t.basis[i] >= artStart {
				for j := 0; j <= cols; j++ {
					obj[j] -= t.a[i][j]
				}
			}
		}
		if err := t.iterate(cols); err != nil {
			return nil, err
		}
		if phase1 := -t.a[m][cols]; phase1 > 1e-7 {
			return &Solution{Status: Infeasible, Iterations: t.iterations}, nil
		}
		// From here on nothing prices or reads an artificial column.
		t.live = artStart
		t.evictArtificials()
	}

	// Phase 2: original objective over non-artificial columns.
	obj := t.a[m]
	clear(obj)
	copy(obj, p.objective)
	for i := 0; i < m; i++ {
		b := t.basis[i]
		if b < artStart && obj[b] != 0 {
			coef := obj[b]
			row := t.a[i]
			for j := 0; j < artStart; j++ {
				obj[j] -= coef * row[j]
			}
			obj[cols] -= coef * row[cols]
		}
	}
	if err := t.iterate(artStart); err != nil {
		if errors.Is(err, errUnbounded) {
			return &Solution{Status: Unbounded, Iterations: t.iterations}, nil
		}
		return nil, err
	}

	sol := &Solution{
		Status:     Optimal,
		Objective:  -t.a[m][cols],
		X:          make([]float64, n),
		Iterations: t.iterations,
	}
	if sol.Objective == 0 {
		sol.Objective = 0 // +0, never -0
	}
	for i := 0; i < m; i++ {
		if b := t.basis[i]; b < n {
			x := t.a[i][cols]
			if x <= 0 && x > -eps {
				x = 0 // also turns -0 into +0
			}
			sol.X[b] = x
		}
	}
	return sol, nil
}

var errUnbounded = errors.New("lp: unbounded")

// iterate runs simplex pivots until optimality, considering entering
// columns in [0, colLimit). Dantzig pricing normally; pure Bland's rule
// once the pivot count passes a stall threshold, which guarantees
// termination.
func (t *tableau) iterate(colLimit int) error {
	m := t.rows
	obj := t.a[m]
	maxIter := 200*(m+colLimit) + 2000
	blandAfter := 20*(m+colLimit) + 500
	for iter := 0; ; iter++ {
		if iter > maxIter {
			return ErrIterationLimit
		}
		bland := iter > blandAfter

		// Entering column.
		enter := -1
		best := -eps
		for j := 0; j < colLimit; j++ {
			if obj[j] < -eps {
				if bland {
					enter = j
					break
				}
				if obj[j] < best {
					best = obj[j]
					enter = j
				}
			}
		}
		if enter < 0 {
			return nil // optimal
		}

		// Leaving row by minimum ratio; ties to the smallest basis column
		// (lexicographic enough for Bland).
		leave := -1
		var bestRatio float64
		for i := 0; i < m; i++ {
			aij := t.a[i][enter]
			if aij <= eps {
				continue
			}
			ratio := t.a[i][t.cols] / aij
			if leave < 0 || ratio < bestRatio-eps ||
				(math.Abs(ratio-bestRatio) <= eps && t.basis[i] < t.basis[leave]) {
				leave = i
				bestRatio = ratio
			}
		}
		if leave < 0 {
			return errUnbounded
		}
		t.pivot(leave, enter)
		t.iterations++
	}
}

// pivot makes column enter basic in row leave. Only the pivot row's
// non-zero columns below t.live, plus the rhs, can change in another
// row, so the row updates visit just those.
func (t *tableau) pivot(leave, enter int) {
	prow := t.a[leave]
	inv := 1 / prow[enter]
	nz := t.nz[:0]
	for j, v := range prow[:t.live] {
		if v != 0 {
			prow[j] = v * inv
			nz = append(nz, j)
		}
	}
	if v := prow[t.cols]; v != 0 {
		prow[t.cols] = v * inv
		nz = append(nz, t.cols)
	}
	prow[enter] = 1 // exact
	t.nz = nz
	for i, row := range t.a {
		if i == leave {
			continue
		}
		f := row[enter]
		if f == 0 {
			continue
		}
		for _, j := range nz {
			row[j] -= f * prow[j]
		}
		row[enter] = 0 // exact
	}
	t.basis[leave] = enter
}

// evictArtificials pivots any artificial variable still basic (at zero
// level after a feasible phase 1) out of the basis, or neutralizes its
// redundant row.
func (t *tableau) evictArtificials() {
	for i := 0; i < t.rows; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		pivoted := false
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.a[i][j]) > eps {
				t.pivot(i, j)
				t.iterations++
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row: zero it so it can never constrain phase 2.
			for j := 0; j <= t.cols; j++ {
				t.a[i][j] = 0
			}
			// Keep the artificial in the basis of the zero row; it stays
			// at level 0 and no column prices against it.
		}
	}
}
