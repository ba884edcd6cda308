package controller

import (
	"sort"

	"sdme/internal/enforce"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// Stage 3 of the compilation pipeline: diff two compiled plans into
// per-node ConfigDeltas — the add/remove/reweight edit scripts the mgmt
// layer pushes instead of full configurations when little changed.

// DeltaStats sizes a plan diff in configuration entries (a policy, a
// candidate list, or a weight vector each count as one entry). Reweighted
// counts entries present in both plans with different content (a replaced
// policy, a changed candidate list, a changed weight vector).
type DeltaStats struct {
	Added, Removed, Reweighted int
	// Nodes counts nodes receiving a non-empty delta.
	Nodes int
}

// Total is the number of changed entries.
func (s DeltaStats) Total() int { return s.Added + s.Removed + s.Reweighted }

// DiffPlans computes the per-node configuration deltas that transform
// old's exported state into cur's, plus their aggregate size. Nodes whose
// configuration is unchanged are absent from the result. All delta slices
// are sorted, so equal diffs are deeply equal and encode to identical
// wire bytes.
func DiffPlans(old, cur *Plan) (map[topo.NodeID]enforce.ConfigDelta, DeltaStats) {
	if old == nil {
		old = &Plan{}
	}
	var stats DeltaStats
	out := make(map[topo.NodeID]enforce.ConfigDelta)

	for _, id := range unionNodes(old, cur) {
		var d enforce.ConfigDelta
		diffPolicies(old.NodePolicies[id], cur.NodePolicies[id], &d, &stats)
		diffCandidates(old.Candidates[id], cur.Candidates[id], &d, &stats)
		diffWeights(old.Weights[id], cur.Weights[id], &d, &stats)
		if !d.Empty() {
			out[id] = d
			stats.Nodes++
		}
	}
	return out, stats
}

// unionNodes returns the sorted union of nodes configured by either plan.
func unionNodes(old, cur *Plan) []topo.NodeID {
	seen := make(map[topo.NodeID]bool)
	add := func(p *Plan) {
		if p == nil {
			return
		}
		for id := range p.NodePolicies {
			seen[id] = true
		}
		for id := range p.Candidates {
			seen[id] = true
		}
		for id := range p.Weights {
			seen[id] = true
		}
	}
	add(old)
	add(cur)
	ids := make([]topo.NodeID, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func diffPolicies(old, cur []*policy.Policy, d *enforce.ConfigDelta, stats *DeltaStats) {
	oldByID := make(map[int]*policy.Policy, len(old))
	for _, p := range old {
		oldByID[p.ID] = p
	}
	curIDs := make(map[int]bool, len(cur))
	for _, p := range cur {
		curIDs[p.ID] = true
		if prev, ok := oldByID[p.ID]; !ok {
			d.Upserts = append(d.Upserts, p)
			stats.Added++
		} else if prev.Hash() != p.Hash() {
			d.Upserts = append(d.Upserts, p)
			stats.Reweighted++
		}
	}
	for _, p := range old {
		if !curIDs[p.ID] {
			d.Removes = append(d.Removes, p.ID)
			stats.Removed++
		}
	}
	sort.Slice(d.Upserts, func(i, j int) bool {
		a, b := d.Upserts[i], d.Upserts[j]
		if a.Prio != b.Prio {
			return a.Prio < b.Prio
		}
		return a.ID < b.ID
	})
	sort.Ints(d.Removes)
}

func diffCandidates(old, cur map[policy.FuncType][]topo.NodeID, d *enforce.ConfigDelta, stats *DeltaStats) {
	for _, e := range sortedFuncKeys(cur) {
		list := cur[e]
		prev, ok := old[e]
		if !ok {
			ensureSetCandidates(d)[e] = list
			stats.Added++
		} else if !sameNodeIDs(prev, list) {
			ensureSetCandidates(d)[e] = list
			stats.Reweighted++
		}
	}
	for _, e := range sortedFuncKeys(old) {
		if _, ok := cur[e]; !ok {
			d.DropCandidates = append(d.DropCandidates, e)
			stats.Removed++
		}
	}
}

// DiffWeights is the delta that turns one node's weight vectors old into
// cur: a pure weight change, which Node.ApplyDelta applies without
// purging any soft state (the §III-C rebalance).
func DiffWeights(old, cur map[enforce.WeightKey][]float64) enforce.ConfigDelta {
	var d enforce.ConfigDelta
	diffWeights(old, cur, &d, &DeltaStats{})
	return d
}

func diffWeights(old, cur map[enforce.WeightKey][]float64, d *enforce.ConfigDelta, stats *DeltaStats) {
	for _, k := range sortedWeightKeys(cur) {
		vec := cur[k]
		prev, ok := old[k]
		if !ok {
			ensureSetWeights(d)[k] = vec
			stats.Added++
		} else if !sameVector(prev, vec) {
			ensureSetWeights(d)[k] = vec
			stats.Reweighted++
		}
	}
	for _, k := range sortedWeightKeys(old) {
		if _, ok := cur[k]; !ok {
			d.DropWeights = append(d.DropWeights, k)
			stats.Removed++
		}
	}
}

func sameNodeIDs(a, b []topo.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func ensureSetCandidates(d *enforce.ConfigDelta) map[policy.FuncType][]topo.NodeID {
	if d.SetCandidates == nil {
		d.SetCandidates = make(map[policy.FuncType][]topo.NodeID)
	}
	return d.SetCandidates
}

func ensureSetWeights(d *enforce.ConfigDelta) map[enforce.WeightKey][]float64 {
	if d.SetWeights == nil {
		d.SetWeights = make(map[enforce.WeightKey][]float64)
	}
	return d.SetWeights
}

func sortedFuncKeys(m map[policy.FuncType][]topo.NodeID) []policy.FuncType {
	out := make([]policy.FuncType, 0, len(m))
	for e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedWeightKeys(m map[enforce.WeightKey][]float64) []enforce.WeightKey {
	out := make([]enforce.WeightKey, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return lessWeightKey(out[i], out[j]) })
	return out
}

func lessWeightKey(a, b enforce.WeightKey) bool {
	if a.PolicyID != b.PolicyID {
		return a.PolicyID < b.PolicyID
	}
	if a.Func != b.Func {
		return a.Func < b.Func
	}
	if a.SrcSubnet != b.SrcSubnet {
		return a.SrcSubnet < b.SrcSubnet
	}
	return a.DstSubnet < b.DstSubnet
}
