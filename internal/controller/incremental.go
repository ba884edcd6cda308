package controller

import (
	"sdme/internal/enforce"
	"sdme/internal/topo"
)

// Stage 2 of the compilation pipeline: incremental re-solve. A Pipeline
// owns the last compiled plan; on each Recompute it compiles the current
// inputs (Stage 1), determines which chain instances are dirty via the
// instance identity hashes and the dependency index, re-solves only those
// (carrying every clean instance's weights forward and charging its
// expected loads as constant base loads in the LP), and diffs the result
// against the previous plan into per-node ConfigDeltas (Stage 3). When
// the dirty fraction exceeds DirtyThreshold the scoped solve would
// rebuild most of the program anyway, so the pipeline falls back to a
// full solve — which is also what re-tightens the spread heuristic's
// carried approximations.
type Pipeline struct {
	c    *Controller
	opts PipelineOptions

	plan    *Plan
	version uint64

	// Explicit dirty marks, folded into the hash-based detection at the
	// next Recompute (they force instances dirty even when their inputs
	// hash equal, e.g. to re-tighten carried spread approximations).
	dirtyPolicies map[int]bool
	dirtyNodes    map[topo.NodeID]bool
}

// PipelineOptions configures a Pipeline.
type PipelineOptions struct {
	// Fine selects the Eq. (1) fine-grained formulation.
	Fine bool
	// DirtyThreshold is the dirty-instance fraction above which Recompute
	// performs a full solve instead of a scoped one. Zero means the
	// default of 0.5; negative disables scoped solves entirely.
	DirtyThreshold float64
}

func (o PipelineOptions) threshold() float64 {
	if o.DirtyThreshold == 0 {
		return 0.5
	}
	return o.DirtyThreshold
}

// PlanStats describes one Recompute.
type PlanStats struct {
	// Instances / Dirty count the plan's chain instances and how many of
	// them re-entered the LP.
	Instances, Dirty int
	// FullSolve reports whether the dirty set exceeded the threshold (or
	// no previous plan existed) and the LP was solved from scratch.
	FullSolve bool
	// Solved reports whether an LP ran at all (false for HP/Random
	// strategies and for no-op recomputes).
	Solved bool
	// Delta sizes the emitted configuration diff.
	Delta DeltaStats
}

// PlanUpdate is the outcome of one Recompute: the new plan, the per-node
// deltas transforming the previous plan's configuration into it (nil on
// the first compile, which must be rolled out as full configurations),
// and the merged solution for weight installation paths that want it.
type PlanUpdate struct {
	Plan     *Plan
	Solution *LBSolution
	Deltas   map[topo.NodeID]enforce.ConfigDelta
	Stats    PlanStats
}

// NewPipeline creates an incremental compilation pipeline over the
// controller.
func (c *Controller) NewPipeline(opts PipelineOptions) *Pipeline {
	return &Pipeline{
		c:             c,
		opts:          opts,
		dirtyPolicies: make(map[int]bool),
		dirtyNodes:    make(map[topo.NodeID]bool),
	}
}

// Plan returns the last compiled plan (nil before the first Recompute).
func (p *Pipeline) Plan() *Plan { return p.plan }

// PolicyChanged marks a policy as edited (added, removed or updated):
// every chain instance depending on it re-enters the LP at the next
// Recompute even if its inputs hash equal.
func (p *Pipeline) PolicyChanged(id int) { p.dirtyPolicies[id] = true }

// NodeChanged marks a node event (failure, recovery, capacity change):
// every chain instance touching the node is forced dirty at the next
// Recompute.
func (p *Pipeline) NodeChanged(id topo.NodeID) { p.dirtyNodes[id] = true }

// Recompute runs the three pipeline stages over the given measurements
// and returns the new plan plus the deltas that reach it from the
// previous one.
func (p *Pipeline) Recompute(meas Measurements) (*PlanUpdate, error) {
	c := p.c
	startUS := c.solveStart()
	plan, err := c.CompilePlan(meas, p.opts.Fine)
	if err != nil {
		return nil, err
	}

	dirty := p.dirtySet(plan)
	stats := PlanStats{Instances: len(plan.Order), Dirty: len(dirty)}

	if c.opts.Strategy == enforce.LoadBalanced && len(plan.Order) > 0 {
		if err := p.solve(plan, dirty, &stats); err != nil {
			return nil, err
		}
	} else if err := c.verifyPlanWith(plan.Candidates, nil); err != nil {
		// No LP to run, but the candidate plan still has to hold the
		// static invariants before it can be diffed and pushed.
		return nil, err
	}

	var deltas map[topo.NodeID]enforce.ConfigDelta
	if p.plan != nil {
		deltas, stats.Delta = DiffPlans(p.plan, plan)
	}

	p.version++
	plan.Version = p.version
	sol := &LBSolution{Lambda: plan.Lambda, Weights: plan.Weights, InstanceLoads: plan.InstanceLoads}
	if stats.Solved {
		// Journal the merged plan (write-ahead, like solveChainLP) and
		// record solve metrics before the caller can push anything.
		if err := c.journalWeights(sol); err != nil {
			return nil, err
		}
		c.observeSolveStats(sol, startUS)
		c.lastWeights = plan.Weights
	}
	c.observePlanDelta(stats.Delta)
	p.plan = plan
	p.dirtyPolicies = make(map[int]bool)
	p.dirtyNodes = make(map[topo.NodeID]bool)

	upd := &PlanUpdate{Plan: plan, Deltas: deltas, Stats: stats}
	if stats.Solved {
		upd.Solution = sol
	}
	return upd, nil
}

// dirtySet computes which of the new plan's instances must re-enter the
// LP: instances that are new or whose identity hash changed (policy rule,
// demand, or any candidate list along the chain), plus instances matched
// by explicit PolicyChanged/NodeChanged marks.
func (p *Pipeline) dirtySet(plan *Plan) map[InstanceKey]bool {
	dirty := make(map[InstanceKey]bool)
	if p.plan == nil {
		for _, k := range plan.Order {
			dirty[k] = true
		}
		return dirty
	}
	for _, k := range plan.Order {
		old, ok := p.plan.Instances[k]
		if !ok || old.Hash != plan.Instances[k].Hash {
			dirty[k] = true
		}
	}
	for id := range p.dirtyPolicies {
		for _, k := range plan.Index.ByPolicy[id] {
			dirty[k] = true
		}
	}
	for id := range p.dirtyNodes {
		for _, k := range plan.Index.ByNode[id] {
			dirty[k] = true
		}
	}
	return dirty
}

// solve runs Stage 2 proper: scoped or full LP solve, weight merge, and
// verification (scoped to the dirty policies on the scoped path).
func (p *Pipeline) solve(plan *Plan, dirty map[InstanceKey]bool, stats *PlanStats) error {
	c := p.c
	full := p.plan == nil || p.plan.Weights == nil ||
		p.opts.DirtyThreshold < 0 ||
		float64(len(dirty)) > p.opts.threshold()*float64(len(plan.Order))

	if !full && len(dirty) == 0 {
		// Nothing re-enters the LP: carry the previous solution through,
		// dropping entries whose instances disappeared.
		plan.Weights, plan.InstanceLoads = p.carryForward(plan, dirty)
		plan.Lambda = p.plan.Lambda
		return nil
	}

	if full {
		sol, err := c.solveChainLPWith(orderedInstances(plan, nil), nil)
		if err != nil {
			return err
		}
		if err := c.verifyPlanWith(plan.Candidates, sol.Weights); err != nil {
			return err
		}
		plan.Weights, plan.InstanceLoads = sol.Weights, sol.InstanceLoads
		plan.Lambda = sol.Lambda
		stats.FullSolve, stats.Solved = true, true
		return nil
	}

	// Scoped solve: clean instances keep their weights and charge their
	// previous expected loads as base capacity consumption. The loads are
	// summed in plan.Order: float addition is not associative, so a map
	// order would make the solve input, and every byte downstream of it,
	// differ from run to run.
	carriedW, carriedLoads := p.carryForward(plan, dirty)
	base := make(map[topo.NodeID]float64)
	for _, k := range plan.Order {
		for x, l := range carriedLoads[k] {
			base[x] += l
		}
	}
	sol, err := c.solveChainLPWith(orderedInstances(plan, dirty), base)
	if err != nil {
		return err
	}
	dirtyPolicies := make(map[int]bool, len(dirty))
	for k := range dirty {
		dirtyPolicies[k.PolicyID] = true
	}
	plan.Weights = mergeWeights(carriedW, sol.Weights)
	plan.Lambda = sol.Lambda
	plan.InstanceLoads = carriedLoads
	for k, loads := range sol.InstanceLoads {
		plan.InstanceLoads[k] = loads
	}
	if err := c.verifyPlanScoped(plan.Candidates, plan.Weights, dirtyPolicies); err != nil {
		return err
	}
	stats.Solved = true
	return nil
}

// carryForward extracts the previous plan's weights and instance loads
// for every clean instance that still exists in the new plan.
func (p *Pipeline) carryForward(plan *Plan, dirty map[InstanceKey]bool) (weightPlan, map[InstanceKey]map[topo.NodeID]float64) {
	keep := make(map[InstanceKey]bool, len(plan.Instances))
	for k := range plan.Instances {
		if !dirty[k] {
			keep[k] = true
		}
	}
	w := make(weightPlan)
	for node, byKey := range p.plan.Weights {
		for k, vec := range byKey {
			ik := InstanceKey{PolicyID: k.PolicyID, SrcSubnet: k.SrcSubnet, DstSubnet: k.DstSubnet}
			if !keep[ik] {
				continue
			}
			m := w[node]
			if m == nil {
				m = make(map[enforce.WeightKey][]float64)
				w[node] = m
			}
			m[k] = vec
		}
	}
	loads := make(map[InstanceKey]map[topo.NodeID]float64, len(keep))
	for k := range keep {
		if l, ok := p.plan.InstanceLoads[k]; ok {
			loads[k] = l
		}
	}
	return w, loads
}

// mergeWeights folds the scoped solution's vectors over the carried plan.
func mergeWeights(carried, solved weightPlan) weightPlan {
	out := carried
	if out == nil {
		out = make(weightPlan)
	}
	for node, byKey := range solved {
		m := out[node]
		if m == nil {
			m = make(map[enforce.WeightKey][]float64)
			out[node] = m
		}
		for k, vec := range byKey {
			m[k] = vec
		}
	}
	return out
}

// orderedInstances returns the plan's instances in canonical order,
// restricted to the given key set (nil selects all).
func orderedInstances(plan *Plan, keys map[InstanceKey]bool) []*ChainInstance {
	out := make([]*ChainInstance, 0, len(plan.Order))
	for _, k := range plan.Order {
		if keys == nil || keys[k] {
			out = append(out, plan.Instances[k])
		}
	}
	return out
}
