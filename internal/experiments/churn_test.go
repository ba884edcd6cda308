package experiments

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/mgmt"
	"sdme/internal/topo"
)

// The incremental pipeline's output must be a deterministic function of
// its inputs: replaying one seeded churn sequence must encode
// byte-identical deltas and configuration exports every time, or
// pushed-byte figures (and the fleet's configurations) depend on luck.
// No exported weight may be a negative zero either: -0 and +0 compare
// equal in a diff but encode differently on the wire and in exports.
func TestChurnDeltasByteIdenticalAcrossReplays(t *testing.T) {
	const replays, steps = 6, 40
	var first churnReplay
	for r := 0; r < replays; r++ {
		got := replayChurn(t, 20, steps)
		if r == 0 {
			first = got
			continue
		}
		for step := range got.deltas {
			if !bytes.Equal(got.deltas[step], first.deltas[step]) {
				t.Fatalf("replay %d step %d: %d encoded delta bytes, replay 0 had %d (not byte-identical)",
					r, step, len(got.deltas[step]), len(first.deltas[step]))
			}
			if !bytes.Equal(got.exports[step], first.exports[step]) {
				t.Fatalf("replay %d step %d: %d exported config bytes, replay 0 had %d (not byte-identical)",
					r, step, len(got.exports[step]), len(first.exports[step]))
			}
		}
	}
}

// churnReplay is one replay's per-step output: the deltas, encoded as
// wire envelopes in node order, and the plan's configuration export.
type churnReplay struct {
	deltas, exports [][]byte
}

// replayChurn runs a seeded churn sequence through the incremental
// pipeline and records each step's deltas and export, failing on any
// exported weight that is a negative zero.
func replayChurn(t *testing.T, seed int64, steps int) churnReplay {
	t.Helper()
	bed, err := NewBed(Config{Topology: "campus", Seed: seed, PoliciesPerClass: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctl := controller.New(bed.Dep, bed.AllPairs, bed.Table, controller.Options{
		Strategy: enforce.LoadBalanced,
		K:        bed.Cfg.K,
	})
	pipe := ctl.NewPipeline(controller.PipelineOptions{})
	rng := rand.New(rand.NewSource(seed * 1000))
	const target = 4000
	demands := bed.GenerateDemands(target)
	if _, err := pipe.Recompute(controller.MeasurementsFromFlows(bed.Dep, bed.Table, demands)); err != nil {
		t.Fatal(err)
	}
	down := make(map[topo.NodeID]bool)
	out := churnReplay{deltas: make([][]byte, steps), exports: make([][]byte, steps)}
	for step := 0; step < steps; step++ {
		if err := churnMutate(bed, ctl, pipe, rng, down, &demands, target); err != nil {
			t.Fatal(err)
		}
		upd, err := pipe.Recompute(controller.MeasurementsFromFlows(bed.Dep, bed.Table, demands))
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]topo.NodeID, 0, len(upd.Deltas))
		for id := range upd.Deltas {
			ids = append(ids, id)
		}
		for _, id := range topo.SortedIDs(ids) {
			buf, err := mgmt.EncodeEnvelope(mgmt.TypeDelta, mgmt.DeltaToDTO(0, upd.Deltas[id]))
			if err != nil {
				t.Fatal(err)
			}
			out.deltas[step] = append(out.deltas[step], buf...)
		}
		nodes, err := ctl.BuildNodesFromPlan(upd.Plan)
		if err != nil {
			t.Fatal(err)
		}
		export := ctl.ExportConfig(nodes)
		for _, n := range export.Nodes {
			for _, w := range n.Weights {
				for i, v := range w.Weights {
					if v == 0 && math.Signbit(v) {
						t.Fatalf("step %d: node %s policy %d %s weight[%d] is -0",
							step, n.Name, w.PolicyID, w.Func, i)
					}
				}
			}
		}
		var buf bytes.Buffer
		if err := export.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		out.exports[step] = buf.Bytes()
	}
	return out
}
