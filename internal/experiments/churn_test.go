package experiments

import (
	"bytes"
	"math/rand"
	"testing"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/mgmt"
	"sdme/internal/topo"
)

// The incremental pipeline's output must be a deterministic function of
// its inputs: replaying one seeded churn sequence must encode
// byte-identical deltas every time, or pushed-byte figures (and the
// fleet's configurations) depend on luck.
func TestChurnDeltasByteIdenticalAcrossReplays(t *testing.T) {
	const replays, steps = 6, 40
	var first [][]byte
	for r := 0; r < replays; r++ {
		got := replayChurnDeltas(t, 20, steps)
		if r == 0 {
			first = got
			continue
		}
		for step := range got {
			if !bytes.Equal(got[step], first[step]) {
				t.Fatalf("replay %d step %d: %d encoded delta bytes, replay 0 had %d (not byte-identical)",
					r, step, len(got[step]), len(first[step]))
			}
		}
	}
}

// replayChurnDeltas runs a seeded churn sequence through the incremental
// pipeline and returns each step's deltas, encoded as wire envelopes in
// node order.
func replayChurnDeltas(t *testing.T, seed int64, steps int) [][]byte {
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
	out := make([][]byte, steps)
	for step := range out {
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
			out[step] = append(out[step], buf...)
		}
	}
	return out
}
