package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"sdme/internal/controller"
	"sdme/internal/enforce"
	"sdme/internal/experiments"
	"sdme/internal/live"
	"sdme/internal/metrics"
	"sdme/internal/mgmt"
	"sdme/internal/policy"
	"sdme/internal/topo"
	"sdme/internal/verify"
	"sdme/internal/workload"
)

// Control-plane workload shape.
const (
	// demandSets is the number of pre-generated demand sets refreshes
	// walk through in order; demandPackets sizes each. One set's full
	// solve costs 80-240 ms, so a seed's sets must be many for their mean
	// cost to vary little from seed to seed.
	demandSets    = 64
	demandPackets = 20000
	// ctlEvents is how many events are generated before timing; a phase
	// that uses them all stops early.
	ctlEvents = 40000
	// replaySamples is how many traced operations keep their inputs for
	// the stage replays; two cycles' worth, so full solves are among them.
	replaySamples = 24
)

// ctlSample is what a traced operation keeps for the stage replays that
// run after the traced phase.
type ctlSample struct {
	meas      controller.Measurements
	prev, cur *controller.Plan
	deltas    map[topo.NodeID]enforce.ConfigDelta
	full      bool
}

type evKind uint8

const (
	evRefresh    evKind = iota
	evEdit              // policy.Table.Update to another chain (and back)
	evAdd               // policy.Table.Add of a clone
	evUnadd             // policy.Table.Remove of that clone
	evRemoveTail        // policy.Table.Remove of the last policy
	evReadd             // policy.Table.AddPolicy of it again
	evFail              // controller.MarkFailed(mb, true)
	evRecover           // controller.MarkFailed(mb, false)
	// Cycle slots that genEvents resolves to one of the kinds above.
	evPolicy // an edit, add or tail removal
	evUndo   // the inverse of the preceding policy event
)

// ctlEvent is one pre-generated churn event.
type ctlEvent struct {
	kind     evKind
	policyID int
	desc     policy.Descriptor
	actions  policy.ActionList
	mb       topo.NodeID
	demand   int
}

// ctlBench measures one event at a time: the mutation and its dirty mark,
// Pipeline.Recompute, and PushAllDelta2PC to one mgmt.Agent per node over
// loopback TCP, returning once every commit is acked.
type ctlBench struct {
	bed     *experiments.Bed
	ctl     *controller.Controller
	pipe    *controller.Pipeline
	opts    controller.Options
	rt      *live.Runtime
	server  *mgmt.Server
	agents  []*mgmt.Agent
	devices map[topo.NodeID]*live.Device
	reg     *metrics.Registry
	pol     mgmt.RetryPolicy

	demands [][]enforce.FlowDemand
	cur     int
	events  []ctlEvent
	next    int
	removed []*policy.Policy

	// per-layer accumulators of the traced phase
	regBase      map[string]int64
	samples      []ctlSample
	dirtyFrac    float64
	fullOps      int64
	deltaEntries int64
	pushedNodes  int64
	pushes       int64
}

func newCtlChurn(seed int64) (bench, error) {
	bed, err := newPaperBed()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	b := &ctlBench{bed: bed, opts: controllerOptions(bed, seed),
		pol: mgmt.RetryPolicy{Attempts: 3, PerAttempt: 5 * time.Second}}
	for i := 0; i < demandSets; i++ {
		b.demands = append(b.demands, demandsOf(paperFlows(bed, demandPackets, rng)))
	}
	b.events = genEvents(bed, rng, ctlEvents)

	b.ctl = controller.New(bed.Dep, bed.AllPairs, bed.Table, b.opts)
	b.pipe = b.ctl.NewPipeline(controller.PipelineOptions{})
	upd, err := b.pipe.Recompute(b.measurements())
	if err != nil {
		return nil, err
	}
	nodes, err := b.ctl.BuildNodesFromPlan(upd.Plan)
	if err != nil {
		return nil, err
	}
	if err := b.startFleet(nodes); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// startFleet gives every node a live device and an agent, and rolls the
// first plan out as full configurations.
func (b *ctlBench) startFleet(nodes map[topo.NodeID]*enforce.Node) error {
	b.rt = live.NewRuntime()
	b.rt.SetDefaultWorkers(1)
	server, err := mgmt.NewServer("127.0.0.1:0", nil)
	if err != nil {
		return err
	}
	b.server = server
	b.reg = metrics.NewRegistry(nil)
	server.SetMetrics(b.reg)
	b.devices = make(map[topo.NodeID]*live.Device, len(nodes))
	ids := make([]topo.NodeID, 0, len(nodes))
	for id, n := range nodes {
		dev, err := b.rt.AddDevice(n)
		if err != nil {
			return err
		}
		b.devices[id] = dev
		agent, err := mgmt.NewAgent(dev, server.Addr(), 0)
		if err != nil {
			return err
		}
		b.agents = append(b.agents, agent)
		ids = append(ids, id)
	}
	if !server.WaitConnected(10*time.Second, ids...) {
		return fmt.Errorf("agents did not connect: %d of %d", len(server.Connected()), len(ids))
	}
	plans := make(map[topo.NodeID]mgmt.ConfigDTO, len(nodes))
	for id, n := range nodes {
		plans[id] = mgmt.ConfigToDTO(0, n.Config())
	}
	if _, err := server.PushAll2PC(plans, b.pol); err != nil {
		return fmt.Errorf("initial rollout: %w", err)
	}
	return nil
}

func (b *ctlBench) close() {
	for _, a := range b.agents {
		a.Close()
	}
	b.agents = nil
	if b.server != nil {
		b.server.Close()
		b.server = nil
	}
	if b.rt != nil {
		b.rt.Close()
		b.rt = nil
	}
}

func (b *ctlBench) measurements() controller.Measurements {
	return controller.MeasurementsFromFlows(b.bed.Dep, b.bed.Table, b.demands[b.cur])
}

// ctlCycle is the fixed sequence of event slots the stream repeats, so
// every run has the same mix: 8 of 12 events are policy edits, adds or
// tail removals, each undone by the next event; 2 are measurement
// refreshes; 2 fail a middlebox and recover it. Refreshes always dirty
// every chain instance (full solve); middlebox events dirty up to all of
// them. With a random mix of the same shares, the number of expensive
// events per run varied, and ops_per_s spread 33% over five seeds.
var ctlCycle = []evKind{
	evPolicy, evUndo, evPolicy, evUndo, evRefresh, evPolicy,
	evUndo, evFail, evRecover, evPolicy, evUndo, evRefresh,
}

// genEvents pre-generates the event stream against a shadow copy of the
// policy table, so every event is valid when replayed. Policies and
// chains are drawn from rng; refreshes walk the demand sets in order and
// failed middleboxes walk a seeded permutation of all of them, so every
// run covers the same content in the same proportions.
func genEvents(bed *experiments.Bed, rng *rand.Rand, n int) []ctlEvent {
	shadow := policy.NewTable()
	for _, p := range bed.Table.All() {
		cp := *p
		shadow.AddPolicy(&cp)
	}
	classes := []workload.Class{workload.ManyToOne, workload.OneToMany, workload.OneToOne}
	mbs := make([]topo.NodeID, len(bed.Dep.MBNodes))
	for i, j := range rng.Perm(len(mbs)) {
		mbs[i] = bed.Dep.MBNodes[j]
	}
	var undo ctlEvent
	var removed *policy.Policy
	cur, nextMB := 0, 0
	out := make([]ctlEvent, 0, n)
	for i := 0; len(out) < n; i++ {
		switch ctlCycle[i%len(ctlCycle)] {
		case evRefresh:
			cur = (cur + 1) % demandSets
			out = append(out, ctlEvent{kind: evRefresh, demand: cur})
		case evFail:
			mb := mbs[nextMB%len(mbs)]
			nextMB++
			undo = ctlEvent{kind: evRecover, mb: mb}
			out = append(out, ctlEvent{kind: evFail, mb: mb})
		case evRecover, evUndo:
			switch undo.kind {
			case evEdit:
				shadow.Update(undo.policyID, undo.desc, undo.actions)
			case evUnadd:
				shadow.Remove(undo.policyID)
			case evReadd:
				shadow.AddPolicy(removed)
			}
			out = append(out, undo)
		case evPolicy:
			all := shadow.All()
			switch rng.Intn(3) {
			case 0:
				p := all[rng.Intn(len(all))]
				acts := classes[rng.Intn(len(classes))].Actions()
				for acts.Equal(p.Actions) {
					acts = classes[rng.Intn(len(classes))].Actions()
				}
				undo = ctlEvent{kind: evEdit, policyID: p.ID, desc: p.Desc, actions: p.Actions}
				shadow.Update(p.ID, p.Desc, acts)
				out = append(out, ctlEvent{kind: evEdit, policyID: p.ID, desc: p.Desc, actions: acts})
			case 1:
				p := all[rng.Intn(len(all))]
				np := shadow.Add(p.Desc, p.Actions)
				undo = ctlEvent{kind: evUnadd, policyID: np.ID}
				out = append(out, ctlEvent{kind: evAdd, policyID: np.ID, desc: p.Desc, actions: p.Actions})
			case 2:
				removed = all[len(all)-1]
				shadow.Remove(removed.ID)
				undo = ctlEvent{kind: evReadd, policyID: removed.ID}
				out = append(out, ctlEvent{kind: evRemoveTail, policyID: removed.ID})
			}
		}
	}
	return out
}

// apply performs one event's mutation and marks what it dirtied.
func (b *ctlBench) apply(ev ctlEvent) error {
	tbl := b.bed.Table
	switch ev.kind {
	case evRefresh:
		b.cur = ev.demand
		return nil
	case evEdit:
		if tbl.Update(ev.policyID, ev.desc, ev.actions) == nil {
			return fmt.Errorf("edit: no policy %d", ev.policyID)
		}
	case evAdd:
		if p := tbl.Add(ev.desc, ev.actions); p.ID != ev.policyID {
			return fmt.Errorf("add: got policy %d, generated %d", p.ID, ev.policyID)
		}
	case evUnadd:
		if !tbl.Remove(ev.policyID) {
			return fmt.Errorf("unadd: no policy %d", ev.policyID)
		}
	case evRemoveTail:
		all := tbl.All()
		p := all[len(all)-1]
		if p.ID != ev.policyID {
			return fmt.Errorf("remove: tail is %d, generated %d", p.ID, ev.policyID)
		}
		tbl.Remove(p.ID)
		b.removed = append(b.removed, p)
	case evReadd:
		p := b.removed[len(b.removed)-1]
		b.removed = b.removed[:len(b.removed)-1]
		tbl.AddPolicy(p)
	case evFail, evRecover:
		if err := b.ctl.MarkFailed(ev.mb, ev.kind == evFail); err != nil {
			return err
		}
		b.pipe.NodeChanged(ev.mb)
		return nil
	}
	b.pipe.PolicyChanged(ev.policyID)
	return nil
}

// planConfig is a node's full configuration under a plan: the fallback
// payload of the delta rollout.
func (b *ctlBench) planConfig(p *controller.Plan, id topo.NodeID) enforce.Config {
	cfg := enforce.Config{
		Candidates:     p.Candidates[id],
		Policies:       p.NodePolicies[id],
		Strategy:       b.opts.Strategy,
		HashSeed:       b.opts.HashSeed,
		LabelSwitching: b.opts.LabelSwitching,
		FlowTTL:        b.opts.FlowTTL,
		LabelTTL:       b.opts.LabelTTL,
	}
	if w := p.Weights[id]; len(w) > 0 {
		cfg.Weights = w
	}
	return cfg
}

var errEventsExhausted = errors.New("pre-generated events exhausted")

// step runs one operation. The measurements derived from the mutated
// table are computed between the mutation and Recompute and are not part
// of the operation's time: in a deployment they arrive from the proxies.
func (b *ctlBench) step(tr *tracer) (lat time.Duration, full bool, err error) {
	if b.next >= len(b.events) {
		return 0, false, errEventsExhausted
	}
	ev := b.events[b.next]
	b.next++

	var root int32
	if tr != nil {
		root = tr.begin(spanOp)
	}
	t0 := time.Now()
	err = b.apply(ev)
	t1 := time.Now()
	if tr != nil {
		tr.add(spanMutate, t0, t1)
	}
	if err != nil {
		if tr != nil {
			tr.end(root)
		}
		return t1.Sub(t0), false, err
	}
	meas := b.measurements()
	prev := b.pipe.Plan()

	t2 := time.Now()
	upd, err := b.pipe.Recompute(meas)
	t3 := time.Now()
	if tr != nil {
		tr.add(spanRecompute, t2, t3)
	}
	t4 := t3
	if err == nil && len(upd.Deltas) > 0 {
		fallback := make(map[topo.NodeID]mgmt.ConfigDTO, len(upd.Deltas))
		for id := range upd.Deltas {
			fallback[id] = mgmt.ConfigToDTO(0, b.planConfig(upd.Plan, id))
		}
		_, err = b.server.PushAllDelta2PC(upd.Deltas, fallback, b.pol)
		t4 = time.Now()
		if tr != nil {
			tr.add(spanPush, t3, t4)
		}
	}
	if tr != nil {
		// Span times are contiguous except for the measurement gap, which
		// the op span must not count either.
		tr.cur[root].start += int64(t2.Sub(t1))
		tr.end(root)
	}
	lat = t1.Sub(t0) + t4.Sub(t2)
	if err != nil {
		return lat, false, err
	}
	if tr != nil {
		b.traceStep(prev, upd, meas)
	}
	return lat, upd.Stats.FullSolve, nil
}

// traceStep accumulates the control-plane counts of one traced operation
// and keeps the first replaySamples operations' inputs for replays.
func (b *ctlBench) traceStep(prev *controller.Plan, upd *controller.PlanUpdate, meas controller.Measurements) {
	st := upd.Stats
	if st.Instances > 0 {
		b.dirtyFrac += float64(st.Dirty) / float64(st.Instances)
	}
	if st.FullSolve {
		b.fullOps++
	}
	b.deltaEntries += int64(st.Delta.Total())
	b.pushes++
	b.pushedNodes += int64(len(upd.Deltas))
	if len(b.samples) < replaySamples {
		b.samples = append(b.samples, ctlSample{meas, prev, upd.Plan, upd.Deltas, st.FullSolve})
	}
}

// replay times Stage 1 (CompilePlan), Stage 3 (DiffPlans), the wire
// encoding of the deltas and, on full-solve operations, SolveLB, on the
// kept operations' inputs. It runs after the traced phase, so neither its
// time nor its allocations count toward the phase; CompilePlan and
// SolveLB see the controller's final policy table and failed set.
func (b *ctlBench) replay() map[string]float64 {
	var compile, diff, encode, solve time.Duration
	var diffs, solves int
	for _, s := range b.samples {
		t := time.Now()
		_, _ = b.ctl.CompilePlan(s.meas, false)
		compile += time.Since(t)
		if s.prev != nil {
			t = time.Now()
			controller.DiffPlans(s.prev, s.cur)
			diff += time.Since(t)
			diffs++
		}
		t = time.Now()
		for _, d := range s.deltas {
			_, _ = mgmt.EncodeEnvelope(mgmt.TypeDelta, mgmt.DeltaToDTO(0, d))
		}
		encode += time.Since(t)
		if s.full {
			t = time.Now()
			_, _ = b.ctl.SolveLB(s.meas)
			solve += time.Since(t)
			solves++
		}
	}
	mean := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n) / 1e3
	}
	return map[string]float64{
		"controller.compile_us": mean(compile, len(b.samples)),
		"controller.diff_us":    mean(diff, diffs),
		"mgmt.encode_us":        mean(encode, len(b.samples)),
		"lp.full_solve_us":      mean(solve, solves),
	}
}

func (b *ctlBench) measure(lim limit, rec *recorder, tr *tracer) error {
	rec.begin()
	for {
		lat, full, err := b.step(tr)
		now := time.Now()
		if errors.Is(err, errEventsExhausted) {
			break
		}
		if err != nil {
			rec.fail("event %d: %v", b.next-1, err)
		}
		rec.add(now, lat, err == nil, full)
		if rec.done(now, lim) {
			break
		}
	}
	rec.finish()
	return nil
}

var registryCounters = []string{
	mgmt.MetricPushBytesFull, mgmt.MetricPushBytesDelta, mgmt.MetricPushRetries, mgmt.MetricDeltaFallbacks,
}

func (b *ctlBench) resetLayers() {
	b.regBase = map[string]int64{}
	for _, name := range registryCounters {
		b.regBase[name] = b.reg.Counter(name).Value()
	}
}

func (b *ctlBench) regDelta(name string) int64 {
	return b.reg.Counter(name).Value() - b.regBase[name]
}

func (b *ctlBench) layers(tr *tracer, ops int64) map[string]float64 {
	per := float64(max(ops, 1))
	m := b.replay()
	for k, v := range map[string]float64{
		"controller.recompute_us_p50":     durQuantileUS(tr.durs[spanRecompute], 0.5),
		"controller.recompute_us_p99":     durQuantileUS(tr.durs[spanRecompute], 0.99),
		"controller.dirty_frac":           b.dirtyFrac / per,
		"controller.full_share":           float64(b.fullOps) / per,
		"controller.delta_entries_per_op": float64(b.deltaEntries) / per,
		"mgmt.push_us_p50":                durQuantileUS(tr.durs[spanPush], 0.5),
		"mgmt.push_us_p99":                durQuantileUS(tr.durs[spanPush], 0.99),
		"mgmt.bytes_per_op":               float64(b.regDelta(mgmt.MetricPushBytesFull)+b.regDelta(mgmt.MetricPushBytesDelta)) / per,
		"mgmt.nodes_per_push":             float64(b.pushedNodes) / float64(max(b.pushes, 1)),
		"mgmt.retries":                    float64(b.regDelta(mgmt.MetricPushRetries) + b.regDelta(mgmt.MetricDeltaFallbacks)),
	} {
		m[k] = v
	}
	return m
}

// finalCheck requires every agent's node to hold exactly the configuration
// a from-scratch rebuild of the pipeline's current plan produces.
func (b *ctlBench) finalCheck() []string {
	rebuilt, err := b.ctl.BuildNodesFromPlan(b.pipe.Plan())
	if err != nil {
		return []string{fmt.Sprintf("rebuild plan: %v", err)}
	}
	full := make(map[topo.NodeID]enforce.Config, len(rebuilt))
	for id, n := range rebuilt {
		full[id] = n.Config()
	}
	applied := make(map[topo.NodeID]enforce.Config, len(b.devices))
	for id, dev := range b.devices {
		id := id
		dev.Do(func(n *enforce.Node) { applied[id] = n.Config() })
	}
	var out []string
	for _, v := range verify.CheckDeltaEquivalence(applied, full) {
		out = append(out, v.String())
	}
	return out
}
