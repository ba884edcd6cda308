package main

import (
	"encoding/json"
	"os"
	"testing"
)

// smallOps is the per-workload operation count of the test runs: enough
// to pass through flow turnover, sweeps and one control cycle, small
// enough for a quick go test.
var smallOps = map[string]int64{
	"dp-paper":  20000,
	"dp-mice":   20000,
	"ctl-churn": int64(2 * len(ctlCycle)),
}

func runSmall(t *testing.T, name string, seed int64, trace bool) *result {
	t.Helper()
	res, meta, err := execute(options{workload: name, seed: seed, ops: smallOps[name], trace: trace, root: ".."})
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s seed %d: correct=%v attempted=%d failed=%d failures=%v",
			name, seed, res.Correct, res.Attempted, res.Failed, meta["check_failures"])
	}
	return res
}

// TestWorkloadsPassChecks runs each workload briefly: every operation must
// pass its correctness checks and every end-to-end metric must be there.
func TestWorkloadsPassChecks(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := runSmall(t, w.name, 1, false)
			for _, k := range []string{"setup_s", "ops_per_s", "op_p50_us", "op_p99_us", "slow_op_p50_us", "ok_ratio", "heap_mb"} {
				m, ok := res.Metrics[k]
				if !ok {
					t.Fatalf("missing end-to-end metric %s", k)
				}
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", k, m.Value)
				}
			}
			if res.Metrics["ok_ratio"].Value != 1 {
				t.Errorf("ok_ratio = %v, want 1", res.Metrics["ok_ratio"].Value)
			}
		})
	}
}

// TestSeedDeterminism runs each workload's traced mode twice with one seed
// and once with another, at a fixed operation count. The same seed must
// give identical op, verdict and exact per-layer counts; another seed must
// change the inputs, which shows in those counts.
func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := runSmall(t, w.name, 1, true)
			b := runSmall(t, w.name, 1, true)
			c := runSmall(t, w.name, 2, true)
			if a.Attempted != b.Attempted || a.Failed != b.Failed {
				t.Fatalf("same seed: attempted/failed %d/%d vs %d/%d", a.Attempted, a.Failed, b.Attempted, b.Failed)
			}
			exact := exactCounts(w.name)
			if len(exact) == 0 {
				t.Fatal("no exact counts to compare")
			}
			differs := false
			for _, k := range exact {
				if a.Metrics[k].Value != b.Metrics[k].Value {
					t.Errorf("same seed, %s: %v vs %v", k, a.Metrics[k].Value, b.Metrics[k].Value)
				}
				if a.Metrics[k].Value != c.Metrics[k].Value {
					differs = true
				}
			}
			if !differs {
				t.Errorf("seeds 1 and 2 gave identical exact counts %v", exact)
			}
		})
	}
}

// TestPerLayerMetricsListed keeps the traced output and BENCHMARK.json's
// per_layer list the same, names and units in the same order.
func TestPerLayerMetricsListed(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d",
			len(spec.PerLayer), len(perLayerMetrics))
	}
	seen := map[string]bool{}
	for i, m := range perLayerMetrics {
		if got := spec.PerLayer[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]",
				i, got.Name, got.Unit, m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("duplicate per-layer metric %s", m.name)
		}
		seen[m.name] = true
	}
	for _, w := range workloads {
		for _, k := range exactCounts(w.name) {
			if !seen[k] {
				t.Errorf("%s: exact count %s is not a per-layer metric", w.name, k)
			}
		}
	}
}

// failingChecks wraps a workload whose end-of-run checks report two
// failures.
type failingChecks struct{ bench }

func (failingChecks) finalCheck() []string { return []string{"first", "second"} }

// TestFinalCheckFailuresCountAsFailedOps requires every failed end-of-run
// check to count as one failed operation, so ok_ratio cannot read 1 when
// one of them failed.
func TestFinalCheckFailuresCountAsFailedOps(t *testing.T) {
	saved := workloads
	t.Cleanup(func() { workloads = saved })
	workloads = append(workloads, workloadSpec{"failing", func(seed int64) (bench, error) {
		b, err := newDPMice(seed)
		return failingChecks{b}, err
	}, dpWindow})
	res, _, err := execute(options{workload: "failing", seed: 1, ops: 2000, root: ".."})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 2 {
		t.Fatalf("correct=%v failed=%d, want false and 2", res.Correct, res.Failed)
	}
	want := float64(res.Attempted-2) / float64(res.Attempted)
	if got := res.Metrics["ok_ratio"].Value; got != want {
		t.Errorf("ok_ratio = %v, want %v", got, want)
	}
}
