package main

import (
	"math/rand"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/experiments"
	"sdme/internal/netaddr"
	"sdme/internal/policy"
	"sdme/internal/topo"
	"sdme/internal/workload"
)

// bedSeed fixes the campus bed (topology, middlebox placement and the 30
// paper policies) across runs; --seed drives everything sent through it:
// flows, tenant rules, LB demand, hash seeds and churn events. With the
// bed varying per seed, LP sizes and chain mixes moved run-to-run medians
// by more than the bounds; see README.md.
const bedSeed = 20

// softTTL is the flow- and label-table lifetime in ticks. The dataplane
// workloads advance one tick per operation and revisit each active flow
// every dpSlots ticks, so live flows never expire and finished ones are
// swept within softTTL+sweepEvery ticks.
const softTTL = 1024

// newPaperBed builds the campus bed with the paper's §IV-A middlebox
// counts and 10 policies per class.
func newPaperBed() (*experiments.Bed, error) {
	return experiments.NewBed(experiments.Config{Topology: "campus", Seed: bedSeed, PoliciesPerClass: 10})
}

// controllerOptions is the controller configuration every workload uses:
// LB strategy, label switching, finite soft-state TTLs.
func controllerOptions(bed *experiments.Bed, seed int64) controller.Options {
	return controller.Options{
		Strategy:       enforce.LoadBalanced,
		K:              bed.Cfg.K,
		LabelSwitching: true,
		FlowTTL:        softTTL,
		LabelTTL:       softTTL,
		HashSeed:       uint64(seed)*2654435761 + 1,
	}
}

// paperFlows draws §IV-A flows (Pareto sizes, three classes) totalling
// about target packets.
func paperFlows(bed *experiments.Bed, target int, rng *rand.Rand) []workload.Flow {
	cfg := workload.GenConfig{Subnets: bed.Dep.NumSubnets(), PoliciesPerClass: bed.Cfg.PoliciesPerClass}
	return workload.GenerateFlows(cfg, bed.Classed, target, rng)
}

func demandsOf(flows []workload.Flow) []enforce.FlowDemand {
	out := make([]enforce.FlowDemand, len(flows))
	for i, f := range flows {
		out[i] = enforce.FlowDemand{Tuple: f.Tuple, Packets: int64(f.Packets)}
	}
	return out
}

// buildLBNodes materializes every node and installs LB weights solved on
// the given demand, as the controller does at start-up.
func buildLBNodes(bed *experiments.Bed, opts controller.Options, demand []workload.Flow) (map[topo.NodeID]*enforce.Node, error) {
	ctl := controller.New(bed.Dep, bed.AllPairs, bed.Table, opts)
	nodes, err := ctl.BuildNodes()
	if err != nil {
		return nil, err
	}
	meas := controller.MeasurementsFromFlows(bed.Dep, bed.Table, demandsOf(demand))
	sol, err := ctl.SolveLB(meas)
	if err != nil {
		return nil, err
	}
	controller.ApplyWeights(nodes, sol)
	return nodes, nil
}

// payloadPool is a buffer of lowercase letters; payloads are windows into
// it. Letters only, so no IDS signature (all contain '.', '/', ' ', quote
// or 0x90 bytes, or upper case) can match by accident.
func payloadPool(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return b
}

// Tenant rule shape for dp-mice: tenantSlash24s source /24s per subnet,
// tenantRulesPer24 rules each, matching a destination port range and one
// protocol. 10 subnets x 20 x 5 = 1000 rules.
const (
	tenantSlash24s   = 20
	tenantRulesPer24 = 5
	// Unmatched mice flows come from /24s above the tenant ones.
	unmatchedSlash24s = 4
	// hostsPer24 bounds the source hosts per /24, which bounds the IDS
	// per-source state the workload builds up.
	hostsPer24 = 8
)

// tenantRule is one generated structured rule with its generation shape.
type tenantRule struct {
	subnet, slash24 int
	desc            policy.Descriptor
}

// slash24Host is host h (1-based) of /24 number k (1-based) of a subnet.
func slash24Host(subnet, k, h int) netaddr.Addr {
	return topo.HostAddr(subnet, 256*(k-1)+h)
}

// addTenantRules appends the structured tenant rules after the paper's
// policies: source /24 x destination port range x protocol, each with one
// of the paper's three chains, and no catch-all anywhere.
func addTenantRules(bed *experiments.Bed, rng *rand.Rand) []tenantRule {
	classes := []workload.Class{workload.ManyToOne, workload.OneToMany, workload.OneToOne}
	var out []tenantRule
	for s := 1; s <= bed.Dep.NumSubnets(); s++ {
		for k := 1; k <= tenantSlash24s; k++ {
			for r := 0; r < tenantRulesPer24; r++ {
				d := policy.NewDescriptor()
				d.Src = netaddr.PrefixFrom(slash24Host(s, k, 0), 24)
				lo := 1024 + rng.Intn(60000)
				hi := lo + 16<<rng.Intn(6)
				if hi > 65535 {
					hi = 65535
				}
				d.DstPort = netaddr.PortRange{Lo: uint16(lo), Hi: uint16(hi)}
				d.Proto = netaddr.ProtoTCP
				if rng.Intn(2) == 0 {
					d.Proto = netaddr.ProtoUDP
				}
				bed.Table.Add(d, classes[rng.Intn(len(classes))].Actions())
				out = append(out, tenantRule{subnet: s, slash24: k, desc: d})
			}
		}
	}
	return out
}

// otherHost picks a destination host outside subnet s.
func otherHost(rng *rand.Rand, subnets, s int) netaddr.Addr {
	d := 1 + rng.Intn(subnets-1)
	if d >= s {
		d++
	}
	return topo.HostAddr(d, 1+rng.Intn(200))
}
