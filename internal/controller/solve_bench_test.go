package controller_test

import (
	"math"
	"testing"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/experiments"
)

// lbInstance is one real load-balancing program: a seeded bed, its
// measurement matrix and the formulation that solves it.
type lbInstance struct {
	name  string
	ctl   *controller.Controller
	meas  controller.Measurements
	solve func(*controller.Controller, controller.Measurements) (*controller.LBSolution, error)
}

// lbInstances builds the solver's real workloads: campus Eq. (2) in the
// perfbench ctl-churn shape (seed-20 bed, 10 policies per class,
// 20000-packet demand), Waxman Eq. (2) at the same scale, and campus
// Eq. (1), whose per-triple program is run on a smaller bed.
func lbInstances(tb testing.TB) []lbInstance {
	tb.Helper()
	specs := []struct {
		name     string
		topology string
		seed     int64
		perClass int
		packets  int
		fine     bool
	}{
		{"campus-eq2", "campus", 20, 10, 20000, false},
		{"waxman-eq2", "waxman", 4, 10, 20000, false},
		{"campus-eq1", "campus", 1, 2, 10000, true},
	}
	var out []lbInstance
	for _, s := range specs {
		bed, err := experiments.NewBed(experiments.Config{Topology: s.topology, Seed: s.seed, PoliciesPerClass: s.perClass})
		if err != nil {
			tb.Fatal(err)
		}
		ctl := controller.New(bed.Dep, bed.AllPairs, bed.Table, controller.Options{
			Strategy: enforce.LoadBalanced, K: bed.Cfg.K,
		})
		solve := (*controller.Controller).SolveLB
		if s.fine {
			solve = (*controller.Controller).SolveLBFine
		}
		meas := controller.MeasurementsFromFlows(bed.Dep, bed.Table, bed.GenerateDemands(s.packets))
		out = append(out, lbInstance{s.name, ctl, meas, solve})
	}
	return out
}

// TestSolveLBIterationsUnchanged pins the simplex pivot count and λ of
// the real instances. Pricing, the ratio test and the pivot arithmetic
// decide both, so any change to the solver's pivot path that is not
// value-preserving shows up here first.
func TestSolveLBIterationsUnchanged(t *testing.T) {
	want := map[string]struct {
		iterations int
		lambda     float64
	}{
		"campus-eq2": {637, 3114.333333333333},
		"waxman-eq2": {933, 2858.5714285714289},
		"campus-eq1": {688, 1442.2857142857133},
	}
	for _, inst := range lbInstances(t) {
		sol, err := inst.solve(inst.ctl, inst.meas)
		if err != nil {
			t.Fatalf("%s: %v", inst.name, err)
		}
		w := want[inst.name]
		if sol.Iterations != w.iterations {
			t.Errorf("%s: %d simplex iterations, want %d", inst.name, sol.Iterations, w.iterations)
		}
		if math.Abs(sol.Lambda-w.lambda) > 1e-9*math.Abs(w.lambda) {
			t.Errorf("%s: λ = %.17g, want %.17g", inst.name, sol.Lambda, w.lambda)
		}
	}
}

// BenchmarkSolveLB times one full solve (both LP phases, verification
// and the write-ahead journal hook) on each real instance. A warm-up
// solve first computes the controller's candidate assignments, which
// every later solve reuses.
func BenchmarkSolveLB(b *testing.B) {
	for _, inst := range lbInstances(b) {
		b.Run(inst.name, func(b *testing.B) {
			if _, err := inst.solve(inst.ctl, inst.meas); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := inst.solve(inst.ctl, inst.meas); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
