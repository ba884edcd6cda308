package lp

import (
	"math"
	"math/rand"
	"testing"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSimpleMaximizationAsMin(t *testing.T) {
	// max 3x + 2y s.t. x+y<=4, x+3y<=6  => x=4, y=0, obj 12.
	p := NewProblem()
	x, y := p.AddVar("x"), p.AddVar("y")
	p.SetObjective(x, -3)
	p.SetObjective(y, -2)
	p.AddConstraint(Le, 4, Term{x, 1}, Term{y, 1})
	p.AddConstraint(Le, 6, Term{x, 1}, Term{y, 3})
	sol := solveOK(t, p)
	if !approx(sol.Objective, -12) || !approx(sol.Value(x), 4) || !approx(sol.Value(y), 0) {
		t.Errorf("obj=%v x=%v y=%v", sol.Objective, sol.Value(x), sol.Value(y))
	}
}

func TestEqualityConstraints(t *testing.T) {
	// min x + 2y s.t. x + y = 10, x <= 4 => x=4, y=6, obj 16.
	p := NewProblem()
	x, y := p.AddVar("x"), p.AddVar("y")
	p.SetObjective(x, 1)
	p.SetObjective(y, 2)
	p.AddConstraint(Eq, 10, Term{x, 1}, Term{y, 1})
	p.AddConstraint(Le, 4, Term{x, 1})
	sol := solveOK(t, p)
	if !approx(sol.Objective, 16) || !approx(sol.Value(x), 4) || !approx(sol.Value(y), 6) {
		t.Errorf("obj=%v x=%v y=%v", sol.Objective, sol.Value(x), sol.Value(y))
	}
}

func TestGeConstraints(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 5, x >= 1, y >= 1 => x=4, y=1, obj 11.
	p := NewProblem()
	x, y := p.AddVar("x"), p.AddVar("y")
	p.SetObjective(x, 2)
	p.SetObjective(y, 3)
	p.AddConstraint(Ge, 5, Term{x, 1}, Term{y, 1})
	p.AddConstraint(Ge, 1, Term{x, 1})
	p.AddConstraint(Ge, 1, Term{y, 1})
	sol := solveOK(t, p)
	if !approx(sol.Objective, 11) || !approx(sol.Value(x), 4) || !approx(sol.Value(y), 1) {
		t.Errorf("obj=%v x=%v y=%v", sol.Objective, sol.Value(x), sol.Value(y))
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// x - y <= -2 (i.e. y >= x + 2), min y => x=0, y=2.
	p := NewProblem()
	x, y := p.AddVar("x"), p.AddVar("y")
	p.SetObjective(y, 1)
	p.AddConstraint(Le, -2, Term{x, 1}, Term{y, -1})
	sol := solveOK(t, p)
	if !approx(sol.Objective, 2) || !approx(sol.Value(y), 2) {
		t.Errorf("obj=%v y=%v", sol.Objective, sol.Value(y))
	}
}

// TestSolveNeverReturnsNegativeZero feeds -0 right-hand sides, as the
// controller does when it writes -base[x] for a zero base load: every
// returned value must be +0, never -0, so exports and diffs see one
// encoding of zero.
func TestSolveNeverReturnsNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	p := NewProblem()
	x, y, z := p.AddVar("x"), p.AddVar("y"), p.AddVar("z")
	p.SetObjective(y, 1)
	p.AddConstraint(Eq, negZero, Term{x, 1})
	p.AddConstraint(Le, negZero, Term{y, 1}, Term{z, -1})
	p.AddConstraint(Ge, negZero, Term{z, 1}, Term{x, -1})
	p.AddConstraint(Le, 2, Term{x, 1}, Term{y, 1}, Term{z, 1})
	sol := solveOK(t, p)
	for v, val := range sol.X {
		if val != 0 || math.Signbit(val) {
			t.Errorf("X[%d] = %v (signbit %v), want +0", v, val, math.Signbit(val))
		}
	}
	if math.Signbit(sol.Objective) {
		t.Errorf("objective = %v, want +0", sol.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x")
	p.AddConstraint(Le, 1, Term{x, 1})
	p.AddConstraint(Ge, 2, Term{x, 1})
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x")
	p.SetObjective(x, -1) // maximize x with no upper bound
	p.AddConstraint(Ge, 0, Term{x, 1})
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestDegenerateDoesNotCycle(t *testing.T) {
	// The classic Beale cycling example; Bland fallback must terminate.
	p := NewProblem()
	x1, x2, x3, x4 := p.AddVar("x1"), p.AddVar("x2"), p.AddVar("x3"), p.AddVar("x4")
	p.SetObjective(x1, -0.75)
	p.SetObjective(x2, 150)
	p.SetObjective(x3, -0.02)
	p.SetObjective(x4, 6)
	p.AddConstraint(Le, 0, Term{x1, 0.25}, Term{x2, -60}, Term{x3, -0.04}, Term{x4, 9})
	p.AddConstraint(Le, 0, Term{x1, 0.5}, Term{x2, -90}, Term{x3, -0.02}, Term{x4, 3})
	p.AddConstraint(Le, 1, Term{x3, 1})
	sol := solveOK(t, p)
	if !approx(sol.Objective, -0.05) {
		t.Errorf("objective = %v, want -0.05", sol.Objective)
	}
}

func TestRedundantEqualities(t *testing.T) {
	// Duplicate equality rows force a redundant-row eviction in phase 1.
	p := NewProblem()
	x, y := p.AddVar("x"), p.AddVar("y")
	p.SetObjective(x, 1)
	p.SetObjective(y, 1)
	p.AddConstraint(Eq, 4, Term{x, 1}, Term{y, 1})
	p.AddConstraint(Eq, 4, Term{x, 1}, Term{y, 1})
	p.AddConstraint(Eq, 8, Term{x, 2}, Term{y, 2})
	sol := solveOK(t, p)
	if !approx(sol.Objective, 4) {
		t.Errorf("objective = %v, want 4", sol.Objective)
	}
}

func TestZeroProblem(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x")
	sol := solveOK(t, p)
	if !approx(sol.Value(x), 0) || !approx(sol.Objective, 0) {
		t.Errorf("trivial problem: %+v", sol)
	}
}

func TestRepeatedTermsAccumulate(t *testing.T) {
	// x + x <= 4 means 2x <= 4.
	p := NewProblem()
	x := p.AddVar("x")
	p.SetObjective(x, -1)
	p.AddConstraint(Le, 4, Term{x, 1}, Term{x, 1})
	sol := solveOK(t, p)
	if !approx(sol.Value(x), 2) {
		t.Errorf("x = %v, want 2", sol.Value(x))
	}
}

func TestBadVarPanics(t *testing.T) {
	p := NewProblem()
	defer func() {
		if recover() == nil {
			t.Error("constraint on unknown var should panic")
		}
	}()
	p.AddConstraint(Le, 1, Term{0, 1})
}

func TestMinMaxLoadToy(t *testing.T) {
	// A miniature of the paper's problem: route demand 10 from a source
	// to two middleboxes with capacities 8 and 4; minimize the max load
	// factor λ. Optimal: load proportional to capacity, λ = 10/12.
	p := NewProblem()
	t1, t2, lam := p.AddVar("t1"), p.AddVar("t2"), p.AddVar("lambda")
	p.SetObjective(lam, 1)
	p.AddConstraint(Eq, 10, Term{t1, 1}, Term{t2, 1})
	p.AddConstraint(Le, 0, Term{t1, 1}, Term{lam, -8})
	p.AddConstraint(Le, 0, Term{t2, 1}, Term{lam, -4})
	sol := solveOK(t, p)
	if !approx(sol.Objective, 10.0/12) {
		t.Errorf("lambda = %v, want %v", sol.Objective, 10.0/12)
	}
	if !approx(sol.Value(t1), 8*10.0/12) || !approx(sol.Value(t2), 4*10.0/12) {
		t.Errorf("t1=%v t2=%v", sol.Value(t1), sol.Value(t2))
	}
}

func TestTransportation(t *testing.T) {
	// 2 sources (supply 3, 5) x 2 sinks (demand 4, 4) with costs
	// [[1, 4], [2, 1]]. Optimum: s1->d1:3, s2->d1:1, s2->d2:4 cost 9.
	p := NewProblem()
	var x [2][2]int
	costs := [2][2]float64{{1, 4}, {2, 1}}
	supply := [2]float64{3, 5}
	demand := [2]float64{4, 4}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			x[i][j] = p.AddVar("")
			p.SetObjective(x[i][j], costs[i][j])
		}
	}
	for i := 0; i < 2; i++ {
		p.AddConstraint(Eq, supply[i], Term{x[i][0], 1}, Term{x[i][1], 1})
	}
	for j := 0; j < 2; j++ {
		p.AddConstraint(Eq, demand[j], Term{x[0][j], 1}, Term{x[1][j], 1})
	}
	sol := solveOK(t, p)
	if !approx(sol.Objective, 9) {
		t.Errorf("objective = %v, want 9", sol.Objective)
	}
}

// bruteForce enumerates all basic solutions of min c·x, Ax = b (after
// adding slacks for Le), x >= 0, for tiny systems, returning the best
// objective; +Inf when infeasible.
func bruteForce(obj []float64, A [][]float64, b []float64) float64 {
	m := len(A)
	n := len(obj)
	best := math.Inf(1)
	idx := make([]int, m)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == m {
			x, ok := solveSquare(A, b, idx)
			if !ok {
				return
			}
			feasible := true
			val := 0.0
			full := make([]float64, n)
			for i, j := range idx {
				if x[i] < -1e-9 {
					feasible = false
					break
				}
				full[j] = x[i]
			}
			if !feasible {
				return
			}
			for j := 0; j < n; j++ {
				val += obj[j] * full[j]
			}
			if val < best {
				best = val
			}
			return
		}
		for j := start; j < n; j++ {
			idx[k] = j
			rec(j+1, k+1)
		}
	}
	rec(0, 0)
	return best
}

// solveSquare solves A[:,idx] * x = b by Gaussian elimination.
func solveSquare(A [][]float64, b []float64, idx []int) ([]float64, bool) {
	m := len(A)
	M := make([][]float64, m)
	for i := 0; i < m; i++ {
		M[i] = make([]float64, m+1)
		for k, j := range idx {
			M[i][k] = A[i][j]
		}
		M[i][m] = b[i]
	}
	for col := 0; col < m; col++ {
		piv := -1
		for r := col; r < m; r++ {
			if math.Abs(M[r][col]) > 1e-9 {
				piv = r
				break
			}
		}
		if piv < 0 {
			return nil, false
		}
		M[col], M[piv] = M[piv], M[col]
		f := M[col][col]
		for j := col; j <= m; j++ {
			M[col][j] /= f
		}
		for r := 0; r < m; r++ {
			if r == col {
				continue
			}
			g := M[r][col]
			for j := col; j <= m; j++ {
				M[r][j] -= g * M[col][j]
			}
		}
	}
	x := make([]float64, m)
	for i := 0; i < m; i++ {
		x[i] = M[i][m]
	}
	return x, true
}

func TestRandomLPsAgainstBruteForce(t *testing.T) {
	// Random small LPs with equality constraints (plus slacks folded in
	// manually) cross-checked against exhaustive basic-solution search.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.Intn(2) // constraints
		n := m + 1 + rng.Intn(3)
		obj := make([]float64, n)
		A := make([][]float64, m)
		b := make([]float64, m)
		for j := 0; j < n; j++ {
			obj[j] = float64(rng.Intn(9) + 1)
		}
		for i := 0; i < m; i++ {
			A[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				A[i][j] = float64(rng.Intn(4))
			}
			b[i] = float64(rng.Intn(10))
		}
		want := bruteForce(obj, A, b)

		p := NewProblem()
		vars := make([]int, n)
		for j := 0; j < n; j++ {
			vars[j] = p.AddVar("")
			p.SetObjective(vars[j], obj[j])
		}
		for i := 0; i < m; i++ {
			terms := make([]Term, 0, n)
			for j := 0; j < n; j++ {
				if A[i][j] != 0 {
					terms = append(terms, Term{vars[j], A[i][j]})
				}
			}
			p.AddConstraint(Eq, b[i], terms...)
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.IsInf(want, 1) {
			if sol.Status == Optimal {
				t.Fatalf("trial %d: simplex found optimum %v where brute force says infeasible", trial, sol.Objective)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v, brute force optimum %v", trial, sol.Status, want)
		}
		if math.Abs(sol.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: simplex %v != brute force %v", trial, sol.Objective, want)
		}
	}
}

func TestSolutionIsFeasible(t *testing.T) {
	// Property on random feasible problems: the returned X satisfies all
	// constraints within tolerance.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		p := NewProblem()
		n := 2 + rng.Intn(5)
		vars := make([]int, n)
		for j := range vars {
			vars[j] = p.AddVar("")
			p.SetObjective(vars[j], rng.Float64()*10-2)
		}
		type con struct {
			coefs []float64
			rhs   float64
		}
		var cons []con
		m := 1 + rng.Intn(4)
		for i := 0; i < m; i++ {
			c := con{coefs: make([]float64, n), rhs: float64(rng.Intn(20) + 1)}
			terms := make([]Term, n)
			for j := 0; j < n; j++ {
				c.coefs[j] = float64(rng.Intn(5))
				terms[j] = Term{vars[j], c.coefs[j]}
			}
			cons = append(cons, c)
			p.AddConstraint(Le, c.rhs, terms...)
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status == Unbounded {
			continue // negative costs can make Le-only problems unbounded
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v for a feasible problem (origin feasible)", trial, sol.Status)
		}
		for ci, c := range cons {
			lhs := 0.0
			for j := range c.coefs {
				lhs += c.coefs[j] * sol.X[j]
			}
			if lhs > c.rhs+1e-6 {
				t.Fatalf("trial %d constraint %d violated: %v > %v", trial, ci, lhs, c.rhs)
			}
		}
		for j, x := range sol.X {
			if x < -1e-9 {
				t.Fatalf("trial %d: negative variable %d = %v", trial, j, x)
			}
		}
	}
}

func TestOpAndStatusStrings(t *testing.T) {
	if Le.String() != "<=" || Eq.String() != "=" || Ge.String() != ">=" {
		t.Error("op strings wrong")
	}
	if Op(9).String() == "" {
		t.Error("unknown op should render")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Error("status strings wrong")
	}
	if Status(9).String() == "" {
		t.Error("unknown status should render")
	}
}

func BenchmarkSimplexMedium(b *testing.B) {
	// A min-max-load instance shaped like the controller's: 40 sources
	// spread over 8 middleboxes with random candidate sets.
	rng := rand.New(rand.NewSource(9))
	build := func() *Problem {
		p := NewProblem()
		lam := p.AddVar("lambda")
		p.SetObjective(lam, 1)
		const nm = 8
		loads := make([][]Term, nm)
		for s := 0; s < 40; s++ {
			demand := float64(rng.Intn(50) + 10)
			k := 3
			terms := make([]Term, 0, k)
			for c := 0; c < k; c++ {
				mb := rng.Intn(nm)
				v := p.AddVar("")
				terms = append(terms, Term{v, 1})
				loads[mb] = append(loads[mb], Term{v, 1})
			}
			p.AddConstraint(Eq, demand, terms...)
		}
		for mb := 0; mb < nm; mb++ {
			terms := append([]Term{{lam, -300}}, loads[mb]...)
			p.AddConstraint(Le, 0, terms...)
		}
		return p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := build().Solve()
		if err != nil || sol.Status != Optimal {
			b.Fatalf("%v %v", err, sol)
		}
	}
}
