package mgmt

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"sdme/internal/enforce"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// Wire form of the incremental pipeline's configuration deltas
// (controller.DiffPlans → enforce.ConfigDelta). A delta names the exact
// configuration epoch it edits: agents running any other epoch refuse it
// (reason prefix RefuseDeltaBase) and the server falls back to a full
// push of the merged configuration — a delta must never be applied on
// top of a base it was not diffed against.

// RefuseDeltaBase prefixes an agent's refusal of a delta whose BaseEpoch
// does not match the agent's applied epoch. The server recognizes the
// prefix and substitutes a full-configuration push at the same epoch.
const RefuseDeltaBase = "delta base mismatch"

// ErrNoBase: the server has no full configuration recorded for the node,
// so there is nothing a delta could edit; the caller must push (or
// supply as fallback) a full configuration instead.
var ErrNoBase = errors.New("no full base config recorded for delta")

// baseMismatch is an agent's refusal reason for a delta whose base is
// not the applied epoch.
func baseMismatch(applied, base uint64) string {
	return fmt.Sprintf("%s: applied epoch %d, delta base %d", RefuseDeltaBase, applied, base)
}

// IsBaseMismatch reports whether err is an agent's base-epoch refusal of
// a delta push — the one refusal that is not fatal, because re-sending
// the merged full configuration deterministically succeeds.
func IsBaseMismatch(err error) bool {
	var r *RefusedError
	return errors.As(err, &r) && strings.HasPrefix(r.Reason, RefuseDeltaBase)
}

// WeightKeyDTO is the wire form of one weight-vector key (a WeightDTO
// without its vector) — the delta's drop list.
type WeightKeyDTO struct {
	PolicyID  int `json:"policy_id"`
	Func      int `json:"func"`
	SrcSubnet int `json:"src,omitempty"`
	DstSubnet int `json:"dst,omitempty"`
}

// DeltaDTO is a per-node configuration delta push: the edit script that
// transforms the configuration of epoch BaseEpoch into the one of Epoch.
// Seq/Epoch/Term follow ConfigDTO's conventions exactly; every slice is
// sorted, so equal deltas encode to identical wire bytes.
type DeltaDTO struct {
	Seq   uint64 `json:"seq"`
	Epoch uint64 `json:"epoch,omitempty"`
	Term  uint64 `json:"term,omitempty"`
	// BaseEpoch is the configuration epoch this delta edits. The agent
	// checks it against its applied epoch before touching anything.
	BaseEpoch      uint64         `json:"base_epoch"`
	Upserts        []PolicyDTO    `json:"upserts,omitempty"`
	Removes        []int          `json:"removes,omitempty"`
	SetCandidates  []CandidateDTO `json:"set_candidates,omitempty"`
	DropCandidates []int          `json:"drop_candidates,omitempty"`
	SetWeights     []WeightDTO    `json:"set_weights,omitempty"`
	DropWeights    []WeightKeyDTO `json:"drop_weights,omitempty"`
}

// DeltaToDTO serializes a configuration delta for the wire. Output order
// is canonical (policies by priority then ID, candidate lists by function
// code, weight rows by key), independent of map iteration.
func DeltaToDTO(seq uint64, d enforce.ConfigDelta) DeltaDTO {
	dto := DeltaDTO{Seq: seq}
	for _, p := range d.Upserts {
		dto.Upserts = append(dto.Upserts, policyToDTO(p))
	}
	sort.Slice(dto.Upserts, func(i, j int) bool {
		a, b := dto.Upserts[i], dto.Upserts[j]
		if a.Prio != b.Prio {
			return a.Prio < b.Prio
		}
		return a.ID < b.ID
	})
	dto.Removes = append(dto.Removes, d.Removes...)
	sort.Ints(dto.Removes)

	funcs := make([]policy.FuncType, 0, len(d.SetCandidates))
	for f := range d.SetCandidates {
		funcs = append(funcs, f)
	}
	sort.Slice(funcs, func(i, j int) bool { return funcs[i] < funcs[j] })
	for _, f := range funcs {
		cd := CandidateDTO{Func: int(f)}
		for _, n := range d.SetCandidates[f] {
			cd.Nodes = append(cd.Nodes, int(n))
		}
		dto.SetCandidates = append(dto.SetCandidates, cd)
	}
	for _, f := range d.DropCandidates {
		dto.DropCandidates = append(dto.DropCandidates, int(f))
	}
	sort.Ints(dto.DropCandidates)

	keys := make([]enforce.WeightKey, 0, len(d.SetWeights))
	for k := range d.SetWeights {
		keys = append(keys, k)
	}
	sortWeightKeys(keys)
	for _, k := range keys {
		dto.SetWeights = append(dto.SetWeights, WeightDTO{
			PolicyID: k.PolicyID, Func: int(k.Func),
			SrcSubnet: k.SrcSubnet, DstSubnet: k.DstSubnet,
			Weights: d.SetWeights[k],
		})
	}
	drops := append([]enforce.WeightKey(nil), d.DropWeights...)
	sortWeightKeys(drops)
	for _, k := range drops {
		dto.DropWeights = append(dto.DropWeights, WeightKeyDTO{
			PolicyID: k.PolicyID, Func: int(k.Func),
			SrcSubnet: k.SrcSubnet, DstSubnet: k.DstSubnet,
		})
	}
	return dto
}

// DeltaFromDTO reconstructs a configuration delta from the wire form.
func DeltaFromDTO(dto DeltaDTO) enforce.ConfigDelta {
	var d enforce.ConfigDelta
	for _, pd := range dto.Upserts {
		d.Upserts = append(d.Upserts, policyFromDTO(pd))
	}
	d.Removes = append(d.Removes, dto.Removes...)
	if len(dto.SetCandidates) > 0 {
		d.SetCandidates = make(map[policy.FuncType][]topo.NodeID, len(dto.SetCandidates))
		for _, cd := range dto.SetCandidates {
			nodes := make([]topo.NodeID, len(cd.Nodes))
			for i, n := range cd.Nodes {
				nodes[i] = topo.NodeID(n)
			}
			d.SetCandidates[policy.FuncType(cd.Func)] = nodes
		}
	}
	for _, f := range dto.DropCandidates {
		d.DropCandidates = append(d.DropCandidates, policy.FuncType(f))
	}
	if len(dto.SetWeights) > 0 {
		d.SetWeights = WeightsFromDTO(dto.SetWeights)
	}
	for _, k := range dto.DropWeights {
		d.DropWeights = append(d.DropWeights, enforce.WeightKey{
			PolicyID: k.PolicyID, Func: policy.FuncType(k.Func),
			SrcSubnet: k.SrcSubnet, DstSubnet: k.DstSubnet,
		})
	}
	return d
}

func sortWeightKeys(keys []enforce.WeightKey) {
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
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
	})
}
