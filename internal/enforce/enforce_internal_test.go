package enforce

import (
	"math/rand"
	"testing"

	"sdme/internal/netaddr"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

func TestPickWeighted(t *testing.T) {
	cands := []topo.NodeID{10, 20, 30}

	// Single candidate short-circuits.
	if got := pickWeighted(cands[:1], nil, 12345); got != 10 {
		t.Errorf("single candidate pick = %v", got)
	}
	// Nil weights fall back to uniform by hash.
	if got := pickWeighted(cands, nil, 4); got != cands[4%3] {
		t.Errorf("uniform pick = %v", got)
	}
	// All-zero weights likewise.
	if got := pickWeighted(cands, []float64{0, 0, 0}, 5); got != cands[5%3] {
		t.Errorf("zero-weight pick = %v", got)
	}
	// Mismatched weight length falls back to uniform.
	if got := pickWeighted(cands, []float64{1}, 7); got != cands[7%3] {
		t.Errorf("mismatched-weight pick = %v", got)
	}
	// A weight vector concentrated on one candidate always picks it.
	for h := uint64(0); h < 100; h++ {
		if got := pickWeighted(cands, []float64{0, 1, 0}, h*2654435761); got != 20 {
			t.Fatalf("concentrated pick = %v for hash %d", got, h)
		}
	}
}

func TestPickWeightedProportions(t *testing.T) {
	// Over many random flows, picks approximate the weight proportions —
	// the paper's hash-proportional selection (§III-C).
	cands := []topo.NodeID{1, 2, 3}
	weights := []float64{1, 2, 1}
	rng := rand.New(rand.NewSource(17))
	counts := map[topo.NodeID]int{}
	const n = 40000
	for i := 0; i < n; i++ {
		ft := netaddr.FiveTuple{
			Src: netaddr.Addr(rng.Uint32()), Dst: netaddr.Addr(rng.Uint32()),
			SrcPort: uint16(rng.Intn(65536)), DstPort: 80, Proto: 6,
		}
		counts[pickWeighted(cands, weights, ft.Hash(42))]++
	}
	if got := counts[2]; got < n/2-n/25 || got > n/2+n/25 {
		t.Errorf("middle candidate got %d of %d, want ≈ %d", got, n, n/2)
	}
	if got := counts[1]; got < n/4-n/25 || got > n/4+n/25 {
		t.Errorf("first candidate got %d of %d, want ≈ %d", got, n, n/4)
	}
}

func TestPickWeightedDeterministicPerFlow(t *testing.T) {
	cands := []topo.NodeID{1, 2, 3, 4}
	weights := []float64{0.3, 0.3, 0.2, 0.2}
	ft := netaddr.FiveTuple{Src: 9, Dst: 8, SrcPort: 7, DstPort: 80, Proto: 6}
	first := pickWeighted(cands, weights, ft.Hash(7))
	for i := 0; i < 50; i++ {
		if got := pickWeighted(cands, weights, ft.Hash(7)); got != first {
			t.Fatal("same flow must always pick the same candidate")
		}
	}
}

func TestStrategyString(t *testing.T) {
	if HotPotato.String() != "HP" || Random.String() != "Rand" || LoadBalanced.String() != "LB" {
		t.Error("strategy strings wrong")
	}
	if Strategy(9).String() == "" {
		t.Error("unknown strategy should render")
	}
}

// Install and ApplyDelta build a node's classifier by P_x size — the
// linear table below trieMinRules policies, the trie from it — and on
// both sides of the crossover it answers exactly as Table.Match does.
func TestClassifierSizeRuleMatchesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prefix := func() netaddr.Prefix {
		bits := []int{0, 8, 16, 24}[rng.Intn(4)]
		return netaddr.PrefixFrom(netaddr.Addr(10<<24|rng.Intn(4)<<16|rng.Intn(4)<<8), bits)
	}
	src := policy.NewTable()
	for i := 0; i < trieMinRules+1; i++ {
		d := policy.NewDescriptor()
		d.Src, d.Dst = prefix(), prefix()
		if rng.Intn(2) == 0 {
			d.DstPort = netaddr.SinglePort(uint16(80 + rng.Intn(3)))
		}
		src.Add(d, policy.ActionList{policy.FuncFW})
	}
	all := src.All()

	n := &Node{IsProxy: true}
	check := func(step string, ps []*policy.Policy) {
		t.Helper()
		_, isTrie := n.classifier.(*policy.TrieClassifier)
		if want := len(ps) >= trieMinRules; isTrie != want {
			t.Fatalf("%s: %d policies built trie=%v, want %v", step, len(ps), isTrie, want)
		}
		ref := policy.NewTable()
		for _, p := range ps {
			ref.AddPolicy(p)
		}
		hits := 0
		for probe := 0; probe < 2000; probe++ {
			p := all[rng.Intn(len(all))]
			ft := netaddr.FiveTuple{
				Src: p.Desc.Src.Addr() + netaddr.Addr(rng.Intn(300)), Dst: p.Desc.Dst.Addr() + netaddr.Addr(rng.Intn(300)),
				SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(79 + rng.Intn(4)), Proto: netaddr.ProtoTCP,
			}
			if got, want := n.classifier.Match(ft), ref.Match(ft); got != want {
				t.Fatalf("%s: %v classified as %v, Table.Match gives %v", step, ft, got, want)
			} else if got != nil {
				hits++
			}
		}
		if hits < 500 {
			t.Fatalf("%s: only %d of 2000 probes matched a policy", step, hits)
		}
	}

	if err := n.Install(Config{Policies: all[:trieMinRules-1]}); err != nil {
		t.Fatal(err)
	}
	check("install below", all[:trieMinRules-1])
	if err := n.ApplyDelta(ConfigDelta{Upserts: all[trieMinRules-1 : trieMinRules]}); err != nil {
		t.Fatal(err)
	}
	check("delta up to the crossover", all[:trieMinRules])
	if err := n.ApplyDelta(ConfigDelta{Removes: []int{all[0].ID, all[5].ID}}); err != nil {
		t.Fatal(err)
	}
	check("delta back below", n.Config().Policies)
	if err := n.Install(Config{Policies: all}); err != nil {
		t.Fatal(err)
	}
	check("install above", all)
}
