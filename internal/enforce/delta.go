package enforce

import (
	"fmt"
	"sort"
	"sync/atomic"

	"sdme/internal/flowtable"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// ConfigDelta is an incremental edit to a node's Config: the unit the
// staged compilation pipeline pushes when only part of the plan changed.
// Applying a delta on top of the base configuration it was diffed against
// yields exactly the full configuration the controller would otherwise
// have pushed — ApplyToConfig is pure, and Node.ApplyDelta additionally
// preserves flow/label soft state for flows the delta does not touch.
type ConfigDelta struct {
	// Upserts are policies to add or replace (matched by ID). They carry
	// the global priority, so insertion position is implied.
	Upserts []*policy.Policy
	// Removes are policy IDs to delete.
	Removes []int
	// SetCandidates replaces individual candidate lists; DropCandidates
	// deletes the listed functions' lists outright.
	SetCandidates  map[policy.FuncType][]topo.NodeID
	DropCandidates []policy.FuncType
	// SetWeights replaces individual weight vectors; DropWeights deletes
	// the listed keys.
	SetWeights  map[WeightKey][]float64
	DropWeights []WeightKey
}

// Empty reports whether the delta carries no edits.
func (d *ConfigDelta) Empty() bool {
	return len(d.Upserts) == 0 && len(d.Removes) == 0 &&
		len(d.SetCandidates) == 0 && len(d.DropCandidates) == 0 &&
		len(d.SetWeights) == 0 && len(d.DropWeights) == 0
}

// Entries counts the edit entries the delta carries (policies, candidate
// lists and weight vectors touched) — the per-node delta-size unit the
// churn metrics report.
func (d *ConfigDelta) Entries() int {
	return len(d.Upserts) + len(d.Removes) +
		len(d.SetCandidates) + len(d.DropCandidates) +
		len(d.SetWeights) + len(d.DropWeights)
}

// ApplyToConfig returns the configuration that results from applying the
// delta on top of base. Base is not mutated: every container the delta
// touches is copied first. Policy order is maintained by (Prio, ID),
// which Install relies on for first-match classification.
func (d *ConfigDelta) ApplyToConfig(base Config) Config {
	out := base

	if len(d.Upserts) > 0 || len(d.Removes) > 0 {
		gone := make(map[int]bool, len(d.Removes)+len(d.Upserts))
		for _, id := range d.Removes {
			gone[id] = true
		}
		for _, p := range d.Upserts {
			gone[p.ID] = true
		}
		merged := make([]*policy.Policy, 0, len(base.Policies)+len(d.Upserts))
		for _, p := range base.Policies {
			if !gone[p.ID] {
				merged = append(merged, p)
			}
		}
		merged = append(merged, d.Upserts...)
		sort.SliceStable(merged, func(i, j int) bool {
			a, b := merged[i], merged[j]
			if a.Prio != b.Prio {
				return a.Prio < b.Prio
			}
			return a.ID < b.ID
		})
		out.Policies = merged
	}

	if len(d.SetCandidates) > 0 || len(d.DropCandidates) > 0 {
		cands := make(map[policy.FuncType][]topo.NodeID, len(base.Candidates)+len(d.SetCandidates))
		for f, c := range base.Candidates {
			cands[f] = c
		}
		for _, f := range d.DropCandidates {
			delete(cands, f)
		}
		for f, c := range d.SetCandidates {
			cands[f] = c
		}
		out.Candidates = cands
	}

	if len(d.SetWeights) > 0 || len(d.DropWeights) > 0 {
		w := make(map[WeightKey][]float64, len(base.Weights)+len(d.SetWeights))
		for k, v := range base.Weights {
			w[k] = v
		}
		for _, k := range d.DropWeights {
			delete(w, k)
		}
		for k, v := range d.SetWeights {
			w[k] = v
		}
		if len(w) == 0 {
			// A full build leaves Weights nil when the solver produced no
			// vectors for the node; match it so delta-applied and freshly
			// built configurations stay identical.
			w = nil
		}
		out.Weights = w
	}
	return out
}

// ApplyDelta applies an incremental configuration edit in place. Unlike
// Install it does NOT rebuild the flow/label soft-state tables: only
// entries the delta can affect are invalidated, so untouched flows keep
// their fast-path state across the reconfiguration. Invalidation rules:
//
//   - flow/label entries of removed or replaced policies are purged (their
//     cached action chains are stale);
//   - when a policy is inserted or replaced, null entries and entries of
//     policies with a priority below it in match order (numerically above
//     its Prio) are purged, because the new rule may now shadow them;
//   - pinned entries whose next hop drops out of every candidate list are
//     purged, mirroring InvalidateProvider;
//   - pure weight changes purge nothing, mirroring SetWeights.
//
// This is a configuration mutator under the Node concurrency contract:
// serialize it with packet handling.
func (n *Node) ApplyDelta(d ConfigDelta) error {
	for _, p := range d.Upserts {
		seen := map[policy.FuncType]bool{}
		for _, f := range p.Actions {
			if seen[f] {
				return fmt.Errorf("enforce: %v repeats function %v; unsupported", p, f)
			}
			seen[f] = true
		}
	}
	old := n.cfg
	cfg := d.ApplyToConfig(old)

	policiesChanged := len(d.Upserts) > 0 || len(d.Removes) > 0
	if policiesChanged {
		// Identify what the delta touches, against the OLD install: the
		// soft-state entries reference policies by their pre-edit identity.
		changed := make(map[int]bool, len(d.Removes)+len(d.Upserts))
		for _, id := range d.Removes {
			changed[id] = true
		}
		minUpsertPrio := -1
		for _, p := range d.Upserts {
			changed[p.ID] = true
			if minUpsertPrio < 0 || p.Prio < minUpsertPrio {
				minUpsertPrio = p.Prio
			}
		}
		oldPrio := make(map[int]int, len(old.Policies))
		for _, p := range old.Policies {
			oldPrio[p.ID] = p.Prio
		}
		shadowed := func(policyID int) bool {
			if minUpsertPrio < 0 {
				return false
			}
			prio, ok := oldPrio[policyID]
			return !ok || prio > minUpsertPrio
		}
		total := 0
		if n.flows != nil {
			total += n.flows.InvalidateIf(func(e *flowtable.Entry) bool {
				if e.Null {
					return minUpsertPrio >= 0
				}
				return changed[e.PolicyID] || shadowed(e.PolicyID)
			})
		}
		if n.labels != nil {
			total += n.labels.InvalidateIf(func(e *flowtable.LabelEntry) bool {
				return changed[e.PolicyID] || shadowed(e.PolicyID)
			})
		}
		atomic.AddInt64(&n.Counters.Invalidated, int64(total))

		n.classifier = newClassifier(cfg.Policies)
	}

	if len(d.SetCandidates) > 0 || len(d.DropCandidates) > 0 {
		// Providers that dropped out of every candidate list can no longer
		// be selected; purge soft state pinned to them so those flows
		// re-enter the slow path against the new lists.
		still := make(map[topo.NodeID]bool)
		for _, cands := range cfg.Candidates {
			for _, mb := range cands {
				still[mb] = true
			}
		}
		n.cfg = cfg // InvalidateProvider consults the new candidate lists
		purged := make(map[topo.NodeID]bool)
		for _, cands := range old.Candidates {
			for _, mb := range cands {
				if !still[mb] && !purged[mb] {
					purged[mb] = true
					n.InvalidateProvider(mb)
				}
			}
		}
	}
	n.cfg = cfg
	return nil
}
