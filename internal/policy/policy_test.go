package policy

import (
	"fmt"
	"math/rand"
	"testing"

	"sdme/internal/netaddr"
)

func tuple(src, dst string, sp, dp uint16) netaddr.FiveTuple {
	return netaddr.FiveTuple{
		Src: netaddr.MustParseAddr(src), Dst: netaddr.MustParseAddr(dst),
		SrcPort: sp, DstPort: dp, Proto: netaddr.ProtoTCP,
	}
}

// paperTable builds the six example policies of the paper's Table I, with
// "subnet a" = 128.40.0.0/16.
func paperTable(t *testing.T) *Table {
	t.Helper()
	sub := netaddr.MustParsePrefix("128.40.0.0/16")
	tbl := NewTable()
	mk := func(src, dst netaddr.Prefix, sp, dp netaddr.PortRange, actions string) {
		d := NewDescriptor()
		d.Src, d.Dst, d.SrcPort, d.DstPort = src, dst, sp, dp
		a, err := ParseActions(actions)
		if err != nil {
			t.Fatal(err)
		}
		tbl.Add(d, a)
	}
	anyP, p80 := netaddr.AnyPort(), netaddr.SinglePort(80)
	star := netaddr.AnyPrefix()
	mk(sub, sub, anyP, p80, "permit")
	mk(sub, sub, p80, anyP, "permit")
	mk(star, sub, anyP, p80, "FW,IDS")
	mk(sub, star, p80, anyP, "IDS,FW")
	mk(sub, star, anyP, p80, "FW,IDS,WP")
	mk(star, sub, p80, anyP, "WP,IDS,FW")
	return tbl
}

func TestPaperTableI(t *testing.T) {
	tbl := paperTable(t)
	tests := []struct {
		name string
		ft   netaddr.FiveTuple
		want string // expected action list string, "" for no match
	}{
		{name: "internal web access permitted", ft: tuple("128.40.1.1", "128.40.2.2", 5000, 80), want: "permit"},
		{name: "internal web return permitted", ft: tuple("128.40.2.2", "128.40.1.1", 80, 5000), want: "permit"},
		{name: "external to internal server", ft: tuple("9.9.9.9", "128.40.2.2", 4000, 80), want: "FW -> IDS"},
		{name: "internal server reply outbound", ft: tuple("128.40.2.2", "9.9.9.9", 80, 4000), want: "IDS -> FW"},
		{name: "internal client to external web", ft: tuple("128.40.1.1", "8.8.8.8", 4000, 80), want: "FW -> IDS -> WP"},
		{name: "external web reply inbound", ft: tuple("8.8.8.8", "128.40.1.1", 80, 4000), want: "WP -> IDS -> FW"},
		{name: "unmatched traffic", ft: tuple("9.9.9.9", "8.8.8.8", 1, 2), want: ""},
	}
	for _, tt := range tests {
		p := tbl.Match(tt.ft)
		switch {
		case tt.want == "" && p != nil:
			t.Errorf("%s: matched %v, want none", tt.name, p)
		case tt.want != "" && p == nil:
			t.Errorf("%s: no match, want %q", tt.name, tt.want)
		case p != nil && p.Actions.String() != tt.want:
			t.Errorf("%s: actions = %q, want %q", tt.name, p.Actions, tt.want)
		}
	}
}

func TestFirstMatchWins(t *testing.T) {
	// The first two paper policies permit internal web traffic even
	// though later wildcard policies would also match it.
	tbl := paperTable(t)
	p := tbl.Match(tuple("128.40.1.1", "128.40.2.2", 1234, 80))
	if p == nil || !p.Actions.IsPermit() {
		t.Fatalf("internal web should hit the permit rule first, got %v", p)
	}
	if p.Prio != 0 {
		t.Errorf("Prio = %d, want 0", p.Prio)
	}
}

func TestActionListOps(t *testing.T) {
	a, err := ParseActions("FW, IDS, WP")
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := a.First(); !ok || f != FuncFW {
		t.Errorf("First = %v/%v", f, ok)
	}
	if l, ok := a.Last(); !ok || l != FuncWP {
		t.Errorf("Last = %v/%v", l, ok)
	}
	if n, ok := a.Next(FuncFW); !ok || n != FuncIDS {
		t.Errorf("Next(FW) = %v/%v", n, ok)
	}
	if n, ok := a.Next(FuncIDS); !ok || n != FuncWP {
		t.Errorf("Next(IDS) = %v/%v", n, ok)
	}
	if _, ok := a.Next(FuncWP); ok {
		t.Error("Next(last) should be not-ok")
	}
	if _, ok := a.Next(FuncTM); ok {
		t.Error("Next(absent) should be not-ok")
	}
	if !a.Contains(FuncIDS) || a.Contains(FuncTM) {
		t.Error("Contains wrong")
	}
	if a.Index(FuncWP) != 2 || a.Index(FuncTM) != -1 {
		t.Error("Index wrong")
	}
	if !a.ContainsAny([]FuncType{FuncTM, FuncWP}) || a.ContainsAny([]FuncType{FuncTM}) {
		t.Error("ContainsAny wrong")
	}
	pairs := a.AdjacentPairs()
	if len(pairs) != 2 || pairs[0] != [2]FuncType{FuncFW, FuncIDS} || pairs[1] != [2]FuncType{FuncIDS, FuncWP} {
		t.Errorf("AdjacentPairs = %v", pairs)
	}
	if !a.Equal(ActionList{FuncFW, FuncIDS, FuncWP}) || a.Equal(ActionList{FuncFW}) {
		t.Error("Equal wrong")
	}
}

func TestPermitList(t *testing.T) {
	for _, s := range []string{"", "permit", "PERMIT", "  "} {
		a, err := ParseActions(s)
		if err != nil {
			t.Errorf("ParseActions(%q): %v", s, err)
			continue
		}
		if !a.IsPermit() {
			t.Errorf("ParseActions(%q) should be permit", s)
		}
		if _, ok := a.First(); ok {
			t.Error("permit list First should be not-ok")
		}
		if _, ok := a.Last(); ok {
			t.Error("permit list Last should be not-ok")
		}
		if a.String() != "permit" {
			t.Errorf("String = %q", a.String())
		}
		if a.AdjacentPairs() != nil {
			t.Error("permit list has no adjacent pairs")
		}
	}
	if _, err := ParseActions("FW,NOPE"); err == nil {
		t.Error("unknown function should fail")
	}
}

func TestParseFunc(t *testing.T) {
	for _, tt := range []struct {
		in   string
		want FuncType
	}{{"FW", FuncFW}, {"fw", FuncFW}, {"Ids", FuncIDS}, {"WP", FuncWP}, {"tm", FuncTM}} {
		got, err := ParseFunc(tt.in)
		if err != nil || got != tt.want {
			t.Errorf("ParseFunc(%q) = %v, %v", tt.in, got, err)
		}
	}
	if _, err := ParseFunc("bogus"); err == nil {
		t.Error("bogus function should fail")
	}
}

func TestRegisterFunc(t *testing.T) {
	f := RegisterFunc("NAT")
	if f.String() != "NAT" {
		t.Errorf("registered name = %q", f)
	}
	got, err := ParseFunc("nat")
	if err != nil || got != f {
		t.Errorf("ParseFunc(nat) = %v, %v", got, err)
	}
	if FuncType(999).String() == "" {
		t.Error("unknown func should still render")
	}
}

func TestDescriptorProtoMatch(t *testing.T) {
	d := NewDescriptor()
	d.Proto = netaddr.ProtoUDP
	ft := tuple("1.1.1.1", "2.2.2.2", 1, 2) // TCP
	if d.Matches(ft) {
		t.Error("UDP descriptor must not match TCP flow")
	}
	ft.Proto = netaddr.ProtoUDP
	if !d.Matches(ft) {
		t.Error("UDP descriptor must match UDP flow")
	}
}

func TestRelevantSubsets(t *testing.T) {
	tbl := paperTable(t)
	sub := netaddr.MustParsePrefix("128.40.0.0/16")
	other := netaddr.MustParsePrefix("10.9.0.0/16")

	// Proxy for subnet a: every policy's src side either is subnet a or a
	// wildcard, so all 6 are relevant.
	if got := tbl.SrcRelevant(sub); len(got) != 6 {
		t.Errorf("SrcRelevant(subnet a) = %d policies, want 6", len(got))
	}
	// Proxy for an unrelated subnet: only wildcard-src policies (2).
	if got := tbl.SrcRelevant(other); len(got) != 2 {
		t.Errorf("SrcRelevant(other) = %d policies, want 2", len(got))
	}
	// Middlebox-side P_x: WP appears in 2 policies, FW in 4.
	if got := tbl.FuncRelevant([]FuncType{FuncWP}); len(got) != 2 {
		t.Errorf("FuncRelevant(WP) = %d, want 2", len(got))
	}
	if got := tbl.FuncRelevant([]FuncType{FuncFW}); len(got) != 4 {
		t.Errorf("FuncRelevant(FW) = %d, want 4", len(got))
	}
	if got := tbl.FuncRelevant([]FuncType{FuncTM}); len(got) != 0 {
		t.Errorf("FuncRelevant(TM) = %d, want 0", len(got))
	}
}

func TestAddPolicyKeepsID(t *testing.T) {
	global := NewTable()
	p := global.Add(NewDescriptor(), ActionList{FuncFW})
	local := NewTable()
	local.AddPolicy(p)
	if got := local.Match(tuple("1.1.1.1", "2.2.2.2", 1, 2)); got == nil || got.ID != p.ID {
		t.Errorf("local table lost identity: %v", got)
	}
}

func randomDescriptor(rng *rand.Rand) Descriptor {
	d := NewDescriptor()
	if rng.Intn(2) == 0 {
		d.Src = netaddr.PrefixFrom(netaddr.Addr(rng.Uint32()), rng.Intn(33))
	}
	if rng.Intn(2) == 0 {
		d.Dst = netaddr.PrefixFrom(netaddr.Addr(rng.Uint32()), rng.Intn(33))
	}
	if rng.Intn(3) == 0 {
		p := uint16(rng.Intn(65536))
		d.SrcPort = netaddr.SinglePort(p)
	}
	if rng.Intn(3) == 0 {
		p := uint16(rng.Intn(65536))
		d.DstPort = netaddr.SinglePort(p)
	}
	if rng.Intn(4) == 0 {
		d.Proto = netaddr.ProtoUDP
	}
	return d
}

func TestTrieMatchesLinearTable(t *testing.T) {
	// Property: on random policy sets and random probes (biased to share
	// prefixes with the policies so matches actually occur), the trie
	// classifier returns exactly the linear table's answer.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		tbl := NewTable()
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			tbl.Add(randomDescriptor(rng), ActionList{FuncFW})
		}
		trie := NewTrieClassifier(tbl.All())
		if trie.Len() != tbl.Len() {
			t.Fatalf("trial %d: Len %d != %d", trial, trie.Len(), tbl.Len())
		}
		for probe := 0; probe < 300; probe++ {
			var ft netaddr.FiveTuple
			if probe%2 == 0 && tbl.Len() > 0 {
				// Derive the probe from a random policy so it likely matches.
				p := tbl.All()[rng.Intn(tbl.Len())]
				ft = netaddr.FiveTuple{
					Src:     p.Desc.Src.Addr() + netaddr.Addr(rng.Intn(4)),
					Dst:     p.Desc.Dst.Addr() + netaddr.Addr(rng.Intn(4)),
					SrcPort: p.Desc.SrcPort.Lo,
					DstPort: p.Desc.DstPort.Lo,
					Proto:   netaddr.ProtoTCP,
				}
			} else {
				ft = netaddr.FiveTuple{
					Src: netaddr.Addr(rng.Uint32()), Dst: netaddr.Addr(rng.Uint32()),
					SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
					Proto: netaddr.ProtoTCP,
				}
			}
			want, got := tbl.Match(ft), trie.Match(ft)
			if want != got {
				t.Fatalf("trial %d probe %v: trie=%v linear=%v", trial, ft, got, want)
			}
		}
	}
}

func TestTrieOnPaperTable(t *testing.T) {
	tbl := paperTable(t)
	trie := NewTrieClassifier(tbl.All())
	probes := []netaddr.FiveTuple{
		tuple("128.40.1.1", "128.40.2.2", 5000, 80),
		tuple("9.9.9.9", "128.40.2.2", 4000, 80),
		tuple("128.40.1.1", "8.8.8.8", 4000, 80),
		tuple("8.8.8.8", "128.40.1.1", 80, 4000),
		tuple("9.9.9.9", "8.8.8.8", 1, 2),
	}
	for _, ft := range probes {
		if trie.Match(ft) != tbl.Match(ft) {
			t.Errorf("trie and table disagree on %v", ft)
		}
	}
}

func TestPolicyString(t *testing.T) {
	tbl := paperTable(t)
	for _, p := range tbl.All() {
		if p.String() == "" {
			t.Error("empty policy string")
		}
	}
	d := NewDescriptor()
	if d.String() == "" {
		t.Error("empty descriptor string")
	}
}

func BenchmarkLinearMatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tbl := NewTable()
	for i := 0; i < 500; i++ {
		tbl.Add(randomDescriptor(rng), ActionList{FuncFW})
	}
	ft := tuple("10.1.2.3", "10.4.5.6", 1234, 80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Match(ft)
	}
}

func BenchmarkTrieMatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tbl := NewTable()
	for i := 0; i < 500; i++ {
		tbl.Add(randomDescriptor(rng), ActionList{FuncFW})
	}
	trie := NewTrieClassifier(tbl.All())
	ft := tuple("10.1.2.3", "10.4.5.6", 1234, 80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trie.Match(ft)
	}
}

// Rule shapes for BenchmarkClassifierCrossover, after the benchmark
// bed's: paper rules are the §IV-A policy classes (a /16 subnet or a
// wildcard on each side, one destination port); tenant rules are
// source /24 × destination port range × protocol. Subnet i is 10.i.0.0/16.
func subnet16(i int) netaddr.Prefix {
	return netaddr.PrefixFrom(netaddr.MustParseAddr("10.0.0.0")+netaddr.Addr(i<<16), 16)
}

func addPaperRule(rng *rand.Rand, tbl *Table, i int) {
	services := []uint16{22, 25, 53, 443, 3306, 8080}
	d := NewDescriptor()
	switch i % 3 {
	case 0: // many-to-one
		d.Dst = subnet16(1 + rng.Intn(10))
		d.DstPort = netaddr.SinglePort(services[rng.Intn(len(services))])
	case 1: // one-to-many web
		d.Src = subnet16(1 + rng.Intn(10))
		d.DstPort = netaddr.SinglePort(80)
	default: // one-to-one
		d.Src, d.Dst = subnet16(1+rng.Intn(10)), subnet16(1+rng.Intn(10))
		d.DstPort = netaddr.SinglePort(services[rng.Intn(len(services))])
	}
	tbl.Add(d, ActionList{FuncFW, FuncIDS})
}

func addTenantRule(rng *rand.Rand, tbl *Table, i int) {
	d := NewDescriptor()
	d.Src = netaddr.PrefixFrom(subnet16(1).Addr()+netaddr.Addr(256*(1+i/5)), 24)
	lo := 1024 + rng.Intn(60000)
	d.DstPort = netaddr.PortRange{Lo: uint16(lo), Hi: uint16(min(lo+16<<rng.Intn(6), 65535))}
	d.Proto = netaddr.ProtoTCP
	if rng.Intn(2) == 0 {
		d.Proto = netaddr.ProtoUDP
	}
	tbl.Add(d, ActionList{FuncFW, FuncIDS})
}

// hostIn picks an address inside p (anywhere in the ten subnets for a
// wildcard).
func hostIn(rng *rand.Rand, p netaddr.Prefix) netaddr.Addr {
	if p.Bits() == 0 {
		return subnet16(1+rng.Intn(10)).Addr() + netaddr.Addr(1+rng.Intn(1<<16-2))
	}
	return p.Addr() + netaddr.Addr(1+rng.Intn(1<<(32-p.Bits())-2))
}

// crossoverRules builds an n-rule table of the given shape ("paper",
// "tenant", or "mixed": up to 30 paper rules ahead of tenant rules, as
// a proxy's P_x is laid out) and 1024 probes, each derived from a random
// rule; one in five is moved outside every rule's source /24 and port.
func crossoverRules(rng *rand.Rand, shape string, n int) (*Table, []netaddr.FiveTuple) {
	tbl := NewTable()
	for i := 0; i < n; i++ {
		switch {
		case shape == "paper" || shape == "mixed" && i < 30:
			addPaperRule(rng, tbl, i)
		default:
			addTenantRule(rng, tbl, i)
		}
	}
	probes := make([]netaddr.FiveTuple, 1024)
	for i := range probes {
		p := tbl.All()[rng.Intn(n)]
		ft := netaddr.FiveTuple{
			Src:     hostIn(rng, p.Desc.Src),
			Dst:     hostIn(rng, p.Desc.Dst),
			SrcPort: uint16(1024 + rng.Intn(60000)),
			DstPort: p.Desc.DstPort.Lo,
			Proto:   netaddr.ProtoTCP,
		}
		if p.Desc.Proto != 0 {
			ft.Proto = p.Desc.Proto
		}
		if i%5 == 0 {
			ft.Src = subnet16(11).Addr() + 1
			ft.DstPort = 1
		}
		probes[i] = ft
	}
	return tbl, probes
}

// matchSink keeps the compiler from discarding benchmarked lookups.
var matchSink *Policy

// BenchmarkClassifierCrossover measures linear-table and trie lookups
// over rule sets of growing size and three shapes; enforce's classifier
// size rule (trieMinRules) takes its constant from where they cross.
func BenchmarkClassifierCrossover(b *testing.B) {
	for _, shape := range []string{"paper", "tenant", "mixed"} {
		for _, n := range []int{10, 20, 30, 40, 50, 60, 70, 80, 110, 250, 1000} {
			tbl, probes := crossoverRules(rand.New(rand.NewSource(int64(n))), shape, n)
			for _, c := range []struct {
				name string
				cl   Classifier
			}{{"linear", tbl}, {"trie", NewTrieClassifier(tbl.All())}} {
				b.Run(fmt.Sprintf("%s/rules=%d/%s", shape, n, c.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						matchSink = c.cl.Match(probes[i&(len(probes)-1)])
					}
				})
			}
		}
	}
}
