package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sdme/internal/enforce"
	"sdme/internal/experiments"
	"sdme/internal/netaddr"
	"sdme/internal/nf"
	"sdme/internal/packet"
	"sdme/internal/policy"
	"sdme/internal/topo"
	"sdme/internal/workload"
)

// Dataplane workload shape.
const (
	// dpSlots is the number of concurrently active flows, served round
	// robin. 256 keeps the soft-state working set well inside L2; at 4096
	// the p50 flipped between two levels from run to run.
	dpSlots = 256
	// sweepEvery is the tick interval between Node.Sweep passes.
	sweepEvery = 512
	// paperPoolPackets sizes dp-paper's flow pool (~60k flows); the pool
	// is cycled, and a flow revisited after its entries expired is a new
	// flow to the dataplane.
	paperPoolPackets = 2_000_000
	// micePoolFlows sizes dp-mice's flow pool.
	micePoolFlows = 50_000
	// miceUnmatchedShare and miceSinglePacketShare shape dp-mice; both
	// stay well away from 0.5, where the median falls between two
	// latency modes.
	miceUnmatchedShare    = 0.2
	miceSinglePacketShare = 0.7
	// payloadLen is every dataplane packet's payload size.
	payloadLen = 64
	// traceSampleEvery picks the flows whose hops are checked against
	// enforce.TraceFlow.
	traceSampleEvery = 61
	// replayCap bounds the first-packet tuples kept for the classifier
	// probes.
	replayCap = 4096
)

// dpFlow is one pre-generated flow of a dataplane workload.
type dpFlow struct {
	tuple   netaddr.FiveTuple
	packets int32
	proxy   *enforce.Node
	payload []byte
	// plan is the middlebox sequence enforce.TraceFlow plans for a
	// sampled flow (empty for an unmatched one); nil when not sampled.
	plan []topo.NodeID
}

type dpSlot struct {
	flow int32
	sent int32
}

// dpBench drives packets through the enforcement chain in process: the
// source proxy's HandleOutbound, then each hop synchronously through the
// benchmark's forwarder, so one call covers the whole chain.
type dpBench struct {
	dep   *enforce.Deployment
	nodes []*enforce.Node // proxies then middleboxes, by ID
	fwd   *chainForwarder
	flows []dpFlow
	slots []dpSlot
	next  int
	now   int64

	// per-layer state of the traced phase
	base        map[topo.NodeID]enforce.Counters
	poolHits    int64
	poolMisses  int64
	replay      []replayed
	entrySum    float64
	entrySweeps int64

	// live runs the live probe (live.go) after the traced phase;
	// liveFails holds its failed checks for finalCheck.
	live      bool
	liveFails []string
}

type replayed struct {
	tuple netaddr.FiveTuple
	proxy *enforce.Node
}

func newDPPaper(seed int64) (bench, error) {
	bed, err := newPaperBed()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	pool := paperFlows(bed, paperPoolPackets, rng)
	flows := make([]dpFlow, len(pool))
	for i, f := range pool {
		flows[i] = dpFlow{tuple: f.Tuple, packets: int32(f.Packets)}
	}
	b, err := newDP(bed, seed, rng, pool, flows)
	if err != nil {
		return nil, err
	}
	b.live = true
	return b, nil
}

func newDPMice(seed int64) (bench, error) {
	bed, err := newPaperBed()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	rules := addTenantRules(bed, rng)
	subnets := bed.Dep.NumSubnets()
	flows := make([]dpFlow, 0, micePoolFlows)
	for len(flows) < micePoolFlows {
		var ft netaddr.FiveTuple
		if rng.Float64() < miceUnmatchedShare {
			s := 1 + rng.Intn(subnets)
			ft = netaddr.FiveTuple{
				Src:     slash24Host(s, tenantSlash24s+1+rng.Intn(unmatchedSlash24s), 1+rng.Intn(hostsPer24)),
				Dst:     otherHost(rng, subnets, s),
				SrcPort: uint16(20000 + rng.Intn(40000)),
				DstPort: uint16(1024 + rng.Intn(64511)),
				Proto:   netaddr.ProtoTCP,
			}
			if rng.Intn(2) == 0 {
				ft.Proto = netaddr.ProtoUDP
			}
			if bed.Table.Match(ft) != nil {
				continue // redraw: unmatched flows must match no rule
			}
		} else {
			r := rules[rng.Intn(len(rules))]
			pr := r.desc.DstPort
			ft = netaddr.FiveTuple{
				Src:     slash24Host(r.subnet, r.slash24, 1+rng.Intn(hostsPer24)),
				Dst:     otherHost(rng, subnets, r.subnet),
				SrcPort: uint16(20000 + rng.Intn(40000)),
				DstPort: uint16(int(pr.Lo) + rng.Intn(int(pr.Hi)-int(pr.Lo)+1)),
				Proto:   r.desc.Proto,
			}
		}
		n := int32(1)
		if rng.Float64() >= miceSinglePacketShare {
			n = 2
		}
		flows = append(flows, dpFlow{tuple: ft, packets: n})
	}
	// LB weights come from paper-shaped demand, as on the other workloads;
	// tenant chains carry no measured demand and select uniformly.
	demand := paperFlows(bed, paperPoolPackets/10, rng)
	return newDP(bed, seed, rng, demand, flows)
}

// newDP finishes a dataplane workload: nodes with LB weights solved on
// demand, payloads, trace plans for a sample of flows.
func newDP(bed *experiments.Bed, seed int64, rng *rand.Rand, demand []workload.Flow, flows []dpFlow) (*dpBench, error) {
	nodes, err := buildLBNodes(bed, controllerOptions(bed, seed), demand)
	if err != nil {
		return nil, err
	}
	b := &dpBench{dep: bed.Dep, flows: flows}
	ids := make([]topo.NodeID, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	b.fwd = &chainForwarder{byAddr: make(map[netaddr.Addr]*enforce.Node, len(nodes)), terminal: map[topo.NodeID]bool{}}
	for _, id := range ids {
		n := nodes[id]
		b.nodes = append(b.nodes, n)
		b.fwd.byAddr[n.Addr] = n
		if n.Funcs[policy.FuncWP] != nil || n.Funcs[policy.FuncFW] != nil {
			b.fwd.terminal[id] = true
		}
	}
	payloads := payloadPool(rng, 1<<20)
	for i := range b.flows {
		f := &b.flows[i]
		pid, ok := bed.Dep.ProxyFor(bed.Dep.SubnetIndexOf(f.tuple.Src))
		if !ok {
			return nil, fmt.Errorf("no proxy for %v", f.tuple)
		}
		f.proxy = nodes[pid]
		off := rng.Intn(len(payloads) - payloadLen)
		f.payload = payloads[off : off+payloadLen : off+payloadLen]
		if i%traceSampleEvery == 0 {
			tr, err := enforce.TraceFlow(nodes, bed.Dep, bed.AllPairs, f.tuple)
			if err != nil {
				return nil, fmt.Errorf("trace %v: %w", f.tuple, err)
			}
			f.plan = make([]topo.NodeID, 0, len(tr.Hops))
			for _, h := range tr.Hops {
				f.plan = append(f.plan, h.Node)
			}
		}
	}
	b.slots = make([]dpSlot, dpSlots)
	for i := range b.slots {
		b.slots[i] = dpSlot{flow: int32(b.next)}
		b.next++
	}
	return b, nil
}

func (b *dpBench) close() {}

// measure runs one packet per operation, round robin over the active
// flows; every sweepEvery ticks all nodes sweep (outside any operation,
// but inside the measured wall time).
func (b *dpBench) measure(lim limit, rec *recorder, tr *tracer) error {
	b.fwd.tr = tr
	rec.begin()
	for {
		b.now++
		if b.now%sweepEvery == 0 {
			b.sweep(tr)
		}
		s := &b.slots[b.now%int64(len(b.slots))]
		f := &b.flows[s.flow]
		first := s.sent == 0
		if first && tr != nil && len(b.replay) < replayCap {
			b.replay = append(b.replay, replayed{f.tuple, f.proxy})
		}
		pkt := packet.Get()
		pkt.Inner = packet.Header{
			Src: f.tuple.Src, Dst: f.tuple.Dst, SrcPort: f.tuple.SrcPort, DstPort: f.tuple.DstPort,
			Proto: f.tuple.Proto, TTL: packet.DefaultTTL,
		}
		pkt.PayloadLen = len(f.payload)
		pkt.Payload = f.payload
		b.fwd.startOp(f.tuple, b.now)

		var root, px int32
		if tr != nil {
			root = tr.begin(spanOp)
			px = tr.begin(spanProxy)
		}
		t0 := time.Now()
		err := f.proxy.HandleOutbound(pkt, b.now, b.fwd)
		t1 := time.Now()
		if tr != nil {
			tr.end(px)
			tr.end(root)
		}
		packet.Put(pkt)

		ok := b.fwd.verdict(err, f.plan)
		if !ok {
			rec.fail("flow %v packet %d: err=%v delivered=%d bad=%d hops=%v plan=%v",
				f.tuple, s.sent, err, b.fwd.delivered, b.fwd.bad, b.fwd.hops[:b.fwd.nhops], f.plan)
		}
		rec.add(t1, t1.Sub(t0), ok, first)

		s.sent++
		if s.sent >= f.packets {
			s.flow, s.sent = int32(b.next%len(b.flows)), 0
			b.next++
		}
		if rec.done(t1, lim) {
			break
		}
	}
	rec.finish()
	return nil
}

func (b *dpBench) sweep(tr *tracer) {
	var id int32
	if tr != nil {
		var entries int
		for _, n := range b.nodes {
			entries += n.FlowTable().Len()
			if lt := n.LabelTable(); lt != nil {
				entries += lt.Len()
			}
		}
		b.entrySum += float64(entries)
		b.entrySweeps++
		id = tr.begin(spanSweep)
	}
	for _, n := range b.nodes {
		n.Sweep(b.now)
	}
	if tr != nil {
		tr.end(id)
	}
}

func (b *dpBench) resetLayers() {
	b.base = make(map[topo.NodeID]enforce.Counters, len(b.nodes))
	for _, n := range b.nodes {
		b.base[n.ID] = n.CountersSnapshot()
	}
	b.poolHits, b.poolMisses = packet.PoolStats()
	b.replay = b.replay[:0]
	b.entrySum, b.entrySweeps = 0, 0
}

// counterDelta sums the nodes' counters since resetLayers, split into
// proxies and middleboxes.
func (b *dpBench) counterDelta() (px, mb enforce.Counters) {
	for _, n := range b.nodes {
		c, b0 := n.CountersSnapshot(), b.base[n.ID]
		t := &mb
		if n.IsProxy {
			t = &px
		}
		t.PacketsIn += c.PacketsIn - b0.PacketsIn
		t.Load += c.Load - b0.Load
		t.Classified += c.Classified - b0.Classified
		t.TunnelTx += c.TunnelTx - b0.TunnelTx
		t.LabelTx += c.LabelTx - b0.LabelTx
	}
	return px, mb
}

// layers reports counter ratios over the traced phase, span self times,
// and probes of each layer's public calls on the workload's own packets.
func (b *dpBench) layers(tr *tracer, ops int64) map[string]float64 {
	px, mb := b.counterDelta()
	per := float64(max(ops, 1))
	m := map[string]float64{
		"enforce.proxy_self_ns":         tr.meanSelfNs(spanProxy),
		"enforce.mb_self_ns":            tr.meanSelfNs(spanMB),
		"enforce.mb_visits_per_op":      float64(mb.PacketsIn) / per,
		"enforce.sweep_us_per_kop":      float64(tr.stats[spanSweep].total) / 1e3 / (per / 1e3),
		"flowtable.lookup_ns":           b.lookupProbe(),
		"policy.classifications_per_op": float64(px.Classified+mb.Classified) / per,
		"packet.tunnels_per_op":         float64(px.TunnelTx+mb.TunnelTx) / per,
		"nf.load_per_op":                float64(mb.Load) / per,
	}
	if in := px.PacketsIn + mb.PacketsIn; in > 0 {
		m["flowtable.hit_ratio"] = 1 - float64(px.Classified+mb.Classified)/float64(in)
	}
	if b.entrySweeps > 0 {
		m["flowtable.entries"] = b.entrySum / float64(b.entrySweeps)
	}
	if tx := px.LabelTx + mb.LabelTx + px.TunnelTx + mb.TunnelTx; tx > 0 {
		m["label.fastpath_share"] = float64(px.LabelTx+mb.LabelTx) / float64(tx)
	}
	hits, misses := packet.PoolStats()
	if gets := hits - b.poolHits + misses - b.poolMisses; gets > 0 {
		m["packet.pool_hit_ratio"] = float64(hits-b.poolHits) / float64(gets)
	}
	probe := b.probeFlows()
	parts := []map[string]float64{classifierProbe(b.replay), packetProbe(probe), nfProbe(probe)}
	if b.live {
		lm, fails := liveProbe(b.dep, b.nodes, probe)
		parts = append(parts, lm)
		b.liveFails = fails
	}
	for _, part := range parts {
		for k, v := range part {
			m[k] = v
		}
	}
	return m
}

// probeFlows is the slice of flows the layer probes replay: the flows
// active at the end of the run, then the ones after them in the pool.
func (b *dpBench) probeFlows() []dpFlow {
	out := make([]dpFlow, 0, replayCap)
	for i := 0; len(out) < replayCap && i < len(b.flows); i++ {
		out = append(out, b.flows[(b.next+i)%len(b.flows)])
	}
	return out
}

// lookupProbe times Table.Lookup on the proxies for the active flows,
// whose entries are present: the flow-table hit path.
func (b *dpBench) lookupProbe() float64 {
	const rounds = 64
	var n int
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, s := range b.slots {
			f := &b.flows[s.flow]
			f.proxy.FlowTable().Lookup(f.tuple, b.now)
			n++
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// finalCheck requires the error counters that per-op checks cannot
// attribute to stay at zero, and the live probe's checks to have passed.
func (b *dpBench) finalCheck() []string {
	out := append([]string(nil), b.liveFails...)
	for _, n := range b.nodes {
		c := n.CountersSnapshot()
		if c.Misdirected != 0 || c.LabelMiss != 0 || c.NoProvider != 0 {
			out = append(out, fmt.Sprintf("node %v: misdirected=%d labelmiss=%d noprovider=%d",
				n.ID, c.Misdirected, c.LabelMiss, c.NoProvider))
		}
	}
	return out
}

// chainForwarder is the benchmark's synchronous enforce.Forwarder: a data
// packet addressed to a middlebox is handed to that node's HandleArrival,
// a control message to the proxy's HandleControl, and anything else has
// left the enforcement layer and is checked as delivered.
type chainForwarder struct {
	byAddr   map[netaddr.Addr]*enforce.Node
	terminal map[topo.NodeID]bool // middleboxes that may drop or serve
	tr       *tracer
	now      int64

	flow      netaddr.FiveTuple
	delivered int
	bad       int
	errs      int
	hops      [8]topo.NodeID
	nhops     int
}

var _ enforce.Forwarder = (*chainForwarder)(nil)

func (f *chainForwarder) startOp(flow netaddr.FiveTuple, now int64) {
	f.flow, f.now = flow, now
	f.delivered, f.bad, f.errs, f.nhops = 0, 0, 0, 0
}

func (f *chainForwarder) Send(from *enforce.Node, pkt *packet.Packet) {
	n, ok := f.byAddr[pkt.OutermostDst()]
	if !ok {
		// Delivered: it must be the original packet again, decapsulated,
		// unlabeled, with its destination restored.
		f.delivered++
		if pkt.IsEncapsulated() || pkt.Label() != 0 || pkt.FiveTuple() != f.flow {
			f.bad++
		}
		return
	}
	if n.IsProxy || f.nhops == len(f.hops) {
		f.bad++
		return
	}
	f.hops[f.nhops] = n.ID
	f.nhops++
	var id int32
	if f.tr != nil {
		id = f.tr.begin(spanMB)
	}
	if err := n.HandleArrival(pkt, f.now, f); err != nil {
		f.errs++
	}
	if f.tr != nil {
		f.tr.end(id)
	}
}

func (f *chainForwarder) SendControl(from *enforce.Node, to netaddr.Addr, flow netaddr.FiveTuple) {
	n, ok := f.byAddr[to]
	if !ok || !n.IsProxy {
		f.bad++
		return
	}
	var id int32
	if f.tr != nil {
		id = f.tr.begin(spanControl)
	}
	n.HandleControl(flow, f.now)
	if f.tr != nil {
		f.tr.end(id)
	}
}

// verdict checks one operation: no error anywhere, and either exactly one
// correct delivery or a stop at a middlebox that may drop or serve; a
// sampled flow must visit exactly the middleboxes TraceFlow planned (a
// prefix of them when it stopped early).
func (f *chainForwarder) verdict(err error, plan []topo.NodeID) bool {
	if err != nil || f.errs != 0 || f.bad != 0 || f.delivered > 1 {
		return false
	}
	if f.delivered == 0 && (f.nhops == 0 || !f.terminal[f.hops[f.nhops-1]]) {
		return false
	}
	if plan != nil {
		if f.nhops > len(plan) || (f.delivered == 1 && f.nhops != len(plan)) {
			return false
		}
		for i := 0; i < f.nhops; i++ {
			if f.hops[i] != plan[i] {
				return false
			}
		}
	}
	return true
}

// classifierProbe times the node's classifier (the linear policy.Table the
// node builds from its P_x, since no workload sets UseTrie) and the trie
// classifier on the first packets the traced phase replayed.
func classifierProbe(replay []replayed) map[string]float64 {
	if len(replay) == 0 {
		return nil
	}
	tables := map[*enforce.Node]*policy.Table{}
	tries := map[*enforce.Node]*policy.TrieClassifier{}
	for _, r := range replay {
		if tables[r.proxy] == nil {
			t := policy.NewTable()
			for _, p := range r.proxy.Config().Policies {
				t.AddPolicy(p)
			}
			tables[r.proxy] = t
			tries[r.proxy] = policy.NewTrieClassifier(r.proxy.Config().Policies)
		}
	}
	linear := make([]policy.Classifier, len(replay))
	trie := make([]policy.Classifier, len(replay))
	for i, r := range replay {
		linear[i], trie[i] = tables[r.proxy], tries[r.proxy]
	}
	return map[string]float64{
		"policy.classify_ns":      timeClassify(linear, replay),
		"policy.trie_classify_ns": timeClassify(trie, replay),
	}
}

var probeSink interface{}

func timeClassify(cls []policy.Classifier, replay []replayed) float64 {
	var n int
	var last *policy.Policy
	t0 := time.Now()
	for time.Since(t0) < 5*time.Millisecond {
		for i, r := range replay {
			last = cls[i].Match(r.tuple)
		}
		n += len(replay)
	}
	probeSink = last
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// probePackets builds one packet per probe flow, as the driver does.
func probePackets(flows []dpFlow) []*packet.Packet {
	out := make([]*packet.Packet, len(flows))
	for i, f := range flows {
		p := packet.New(f.tuple, len(f.payload))
		p.Payload = f.payload
		out[i] = p
	}
	return out
}

// packetProbe times Encapsulate, Decapsulate and AppendMarshal on the
// workload's packets.
func packetProbe(flows []dpFlow) map[string]float64 {
	if len(flows) == 0 {
		return nil
	}
	pkts := probePackets(flows)
	var enc, dec time.Duration
	var n int
	for enc+dec < 5*time.Millisecond {
		t0 := time.Now()
		for _, p := range pkts {
			_ = p.Encapsulate(p.Inner.Src, p.Inner.Dst)
		}
		t1 := time.Now()
		for _, p := range pkts {
			_, _ = p.Decapsulate()
		}
		t2 := time.Now()
		enc += t1.Sub(t0)
		dec += t2.Sub(t1)
		n += len(pkts)
	}
	buf := make([]byte, 0, packet.WireBufferSize)
	var m int
	t0 := time.Now()
	for time.Since(t0) < 5*time.Millisecond {
		for _, p := range pkts {
			buf = p.AppendMarshal(buf[:0])
		}
		m += len(pkts)
	}
	marshal := time.Since(t0)
	probeSink = buf
	return map[string]float64{
		"packet.encap_ns":   float64(enc.Nanoseconds()) / float64(n),
		"packet.decap_ns":   float64(dec.Nanoseconds()) / float64(n),
		"packet.marshal_ns": float64(marshal.Nanoseconds()) / float64(m),
	}
}

// nfProbe times fresh instances of each network function on the
// workload's packets.
func nfProbe(flows []dpFlow) map[string]float64 {
	if len(flows) == 0 {
		return nil
	}
	pkts := probePackets(flows)
	out := map[string]float64{}
	for _, c := range []struct {
		name string
		f    policy.FuncType
	}{{"nf.fw_ns", policy.FuncFW}, {"nf.ids_ns", policy.FuncIDS}, {"nf.wp_ns", policy.FuncWP}, {"nf.tm_ns", policy.FuncTM}} {
		fn, err := nf.New(c.f)
		if err != nil {
			continue
		}
		var n int
		t0 := time.Now()
		for time.Since(t0) < 5*time.Millisecond {
			for i, p := range pkts {
				fn.Process(p, int64(n+i))
			}
			n += len(pkts)
		}
		out[c.name] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return out
}
