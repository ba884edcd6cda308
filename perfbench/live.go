package main

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"sdme/internal/enforce"
	"sdme/internal/live"
	"sdme/internal/netaddr"
	"sdme/internal/packet"
	"sdme/internal/policy"
)

// Live probe shape. The probe is part of dp-paper's traced run only: over
// ten seeds a timed live workload spread 27% in ops_per_s and 142% in
// op_p99_us on the shared host (README.md), too much for an end-to-end
// gate, but its per-layer figures still show where the live substrate
// spends its time.
const (
	// liveProbePackets is how many packets the probe injects.
	liveProbePackets = 4000
	// liveSlots is the number of concurrently active probe flows.
	liveSlots = 16
	// liveWindow is the in-flight bound: well below what one loopback
	// socket buffer holds, so the fabric never drops for lack of space.
	liveWindow = 8
	// liveTimeout bounds every wait for the sink; a packet that has not
	// arrived by then is lost.
	liveTimeout = 2 * time.Second
)

// liveProbe carries a fixed sample of the workload's flows from one source
// subnet through live.Runtime devices on loopback UDP (one worker each)
// into a Sink, injecting each packet with Runtime.Inject once fewer than
// liveWindow packets are in flight. A packet is in flight until the sink
// has received it or a middlebox has dropped or served it. The devices run
// fresh copies of the workload's nodes, with the same configuration but no
// soft-state expiry: the runtime's clock is in microseconds, not the
// dataplane workloads' ticks. It returns the live.* metrics and one line
// per failed check.
func liveProbe(dep *enforce.Deployment, nodes []*enforce.Node, flows []dpFlow) (map[string]float64, []string) {
	sample := liveSample(dep, flows)
	if len(sample) == 0 {
		return nil, []string{"live probe: no flows to inject"}
	}
	copies, err := copyNodes(dep, nodes)
	if err != nil {
		return nil, []string{fmt.Sprintf("live probe: %v", err)}
	}

	rt := live.NewRuntime()
	defer rt.Close()
	rt.SetDefaultWorkers(1)
	reg := rt.NewRegistry()
	rt.AttachMetrics(reg)
	var terminal []*enforce.Node
	for _, n := range copies {
		if _, err := rt.AddDevice(n); err != nil {
			return nil, []string{fmt.Sprintf("live probe: %v", err)}
		}
		if n.Funcs[policy.FuncFW] != nil || n.Funcs[policy.FuncWP] != nil {
			terminal = append(terminal, n)
		}
	}
	dsts := map[netaddr.Addr]bool{}
	for _, f := range sample {
		dsts[f.tuple.Dst] = true
	}
	addrs := make([]netaddr.Addr, 0, len(dsts))
	for a := range dsts {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	sink, err := rt.AddSink(addrs...)
	if err != nil {
		return nil, []string{fmt.Sprintf("live probe: %v", err)}
	}
	// finished counts packets that left the fabric: received by the sink,
	// or dropped or served by a middlebox (counters are atomic).
	finished := func() int64 {
		n := int64(sink.Received())
		for _, t := range terminal {
			c := t.CountersSnapshot()
			n += c.Dropped + c.Served
		}
		return n
	}
	waitBelow := func(injected, bound int64) bool {
		deadline := time.Now().Add(liveTimeout)
		for injected-finished() > bound {
			if time.Now().After(deadline) {
				return false
			}
			runtime.Gosched()
		}
		return true
	}

	var fails []string
	var injected int64
	var injectNs, waitNs time.Duration
	slots := make([]dpSlot, min(liveSlots, len(sample)))
	next := 0
	for i := range slots {
		slots[i] = dpSlot{flow: int32(next)}
		next++
	}
	proxy := sample[0].proxy.Addr
	for op := 0; op < liveProbePackets; op++ {
		s := &slots[op%len(slots)]
		f := &sample[s.flow]
		t0 := time.Now()
		if !waitBelow(injected, liveWindow-1) {
			fails = append(fails, fmt.Sprintf("live probe: %d packets still in flight after %v", injected-finished(), liveTimeout))
			break
		}
		t1 := time.Now()
		pkt := packet.New(f.tuple, len(f.payload))
		pkt.Payload = f.payload
		if err := rt.Inject(proxy, pkt); err != nil {
			fails = append(fails, fmt.Sprintf("live probe: inject: %v", err))
			break
		}
		t2 := time.Now()
		injected++
		waitNs += t1.Sub(t0)
		injectNs += t2.Sub(t1)
		s.sent++
		if s.sent >= f.packets {
			s.flow, s.sent = int32(next%len(sample)), 0
			next++
		}
	}
	waitBelow(injected, 0)
	rt.Close()

	var in int64
	for _, n := range copies {
		c := n.CountersSnapshot()
		in += c.PacketsIn
		if c.Misdirected != 0 || c.LabelMiss != 0 || c.NoProvider != 0 {
			fails = append(fails, fmt.Sprintf("live probe: node %v: misdirected=%d labelmiss=%d noprovider=%d",
				n.ID, c.Misdirected, c.LabelMiss, c.NoProvider))
		}
	}
	for _, d := range rt.Devices() {
		if e := d.Errors.Load(); e != 0 {
			fails = append(fails, fmt.Sprintf("live probe: device %v: %d dataplane errors", d.Node.ID, e))
		}
	}
	lost := injected - finished()
	if lost != 0 {
		fails = append(fails, fmt.Sprintf("live probe: %d of %d packets neither received nor dropped or served", lost, injected))
	}
	if enc, lbl := sink.Anomalies(); enc != 0 || lbl != 0 {
		fails = append(fails, fmt.Sprintf("live probe: sink got %d encapsulated and %d labeled packets", enc, lbl))
	}
	var depth int64
	for _, n := range copies {
		h := reg.Histogram(live.MetricWorkerQueueDepth, live.QueueDepthBuckets, "node", strconv.Itoa(int(n.ID)))
		depth = max(depth, h.Quantile(1))
	}
	per := float64(max(injected, 1))
	return map[string]float64{
		"live.inject_us":       float64(injectNs.Nanoseconds()) / 1e3 / per,
		"live.window_wait_us":  float64(waitNs.Nanoseconds()) / 1e3 / per,
		"live.hops_per_op":     float64(in) / per,
		"live.dropped":         float64(lost),
		"live.queue_depth_max": float64(depth),
	}, fails
}

// liveSample is the probe's flows: the given flows whose source is in the
// first one's subnet, in order.
func liveSample(dep *enforce.Deployment, flows []dpFlow) []dpFlow {
	if len(flows) == 0 {
		return nil
	}
	subnet := dep.SubnetIndexOf(flows[0].tuple.Src)
	var out []dpFlow
	for _, f := range flows {
		if dep.SubnetIndexOf(f.tuple.Src) == subnet {
			out = append(out, f)
		}
	}
	return out
}

// copyNodes builds fresh nodes with the given nodes' configurations and
// soft-state expiry turned off, in ID order.
func copyNodes(dep *enforce.Deployment, nodes []*enforce.Node) ([]*enforce.Node, error) {
	out := make([]*enforce.Node, 0, len(nodes))
	for _, n := range nodes {
		var c *enforce.Node
		if n.IsProxy {
			c = enforce.NewProxy(dep, n.ID)
		} else {
			var err error
			if c, err = enforce.NewMiddlebox(dep, n.ID); err != nil {
				return nil, err
			}
		}
		cfg := n.Config()
		cfg.FlowTTL, cfg.LabelTTL = 0, 0
		if err := c.Install(cfg); err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}
