package mgmt_test

import (
	"errors"
	"testing"
	"time"

	"sdme/internal/live"
	"sdme/internal/mgmt"
	"sdme/internal/netaddr"
	"sdme/internal/packet"
	"sdme/internal/topo"
	"sdme/internal/verify"
)

// fleetViews snapshots every node's (epoch, installed config) for the
// cross-node plan-consistency invariant.
func (b *mgmtBed) fleetViews() map[topo.NodeID]verify.NodePlanView {
	views := make(map[topo.NodeID]verify.NodePlanView, len(b.agents))
	for id, a := range b.agents {
		views[id] = verify.ViewOf(a.LastEpoch(), b.nodes[id].Config())
	}
	return views
}

// plansFor builds each node's controller-computed plan as a DTO batch.
func (b *mgmtBed) plansFor() map[topo.NodeID]mgmt.ConfigDTO {
	plans := make(map[topo.NodeID]mgmt.ConfigDTO, len(b.nodes))
	for id, n := range b.nodes {
		plans[id] = mgmt.ConfigToDTO(0, n.Config())
	}
	return plans
}

func TestTwoPhasePushAllCommits(t *testing.T) {
	b := newMgmtBed(t, 0)
	epoch, err := b.server.PushAll2PC(b.plansFor(), mgmt.RetryPolicy{Attempts: 2, PerAttempt: 3 * time.Second})
	if err != nil {
		t.Fatalf("2pc push: %v", err)
	}
	if epoch == 0 {
		t.Fatal("2pc push returned zero epoch")
	}
	for id, a := range b.agents {
		if got := a.LastEpoch(); got != epoch {
			t.Errorf("node %v on epoch %d, want %d", id, got, epoch)
		}
		st := a.Stats()
		if st.Prepared < 1 || st.Committed < 1 {
			t.Errorf("node %v: prepared=%d committed=%d, want >=1 each", id, st.Prepared, st.Committed)
		}
		if se := a.StagedEpoch(); se != 0 {
			t.Errorf("node %v still holds staged epoch %d after commit", id, se)
		}
	}
	if !b.server.Converged() {
		t.Error("server not converged after full 2pc commit")
	}

	// The committed plan actually enforces: a chain flow traverses it.
	proxyID, _ := b.dep.ProxyFor(1)
	ft := netaddr.FiveTuple{
		Src: topo.HostAddr(1, 1), Dst: topo.HostAddr(2, 1),
		SrcPort: 47100, DstPort: 80, Proto: netaddr.ProtoTCP,
	}
	if err := b.rt.Inject(b.dep.AddrOf(proxyID), packet.New(ft, 24)); err != nil {
		t.Fatal(err)
	}
	if !live.WaitUntil(3*time.Second, func() bool { return b.sink.Received() >= 1 }) {
		t.Fatal("flow did not traverse the 2pc-committed plan")
	}
}

// A prepare refusal anywhere must leave EVERY node on its previous plan:
// the failed epoch is rolled back, nothing is half-deployed, and no two
// nodes disagree about the running epoch.
func TestTwoPhaseAbortOnPrepareFailureNeverMixesPlans(t *testing.T) {
	b := newMgmtBed(t, 0)

	// Establish a committed baseline epoch first.
	base, err := b.server.PushAll2PC(b.plansFor(), mgmt.RetryPolicy{Attempts: 2, PerAttempt: 3 * time.Second})
	if err != nil {
		t.Fatalf("baseline 2pc: %v", err)
	}

	// Next generation: one node's plan is garbage (unknown strategy), so
	// its prepare is refused and the whole batch must roll back.
	plans := b.plansFor()
	victim := b.dep.MBNodes[0]
	bad := plans[victim]
	bad.Strategy = 99
	plans[victim] = bad

	_, err = b.server.PushAll2PC(plans, mgmt.RetryPolicy{Attempts: 2, PerAttempt: 3 * time.Second})
	if err == nil {
		t.Fatal("2pc with an invalid plan committed")
	}
	var refused *mgmt.RefusedError
	if !errors.As(err, &refused) {
		t.Errorf("prepare failure should surface the agent's refusal, got %v", err)
	}

	for id, a := range b.agents {
		if got := a.LastEpoch(); got != base {
			t.Errorf("node %v on epoch %d after rollback, want baseline %d", id, got, base)
		}
		if se := a.StagedEpoch(); se != 0 {
			t.Errorf("node %v kept staged epoch %d after abort", id, se)
		}
	}
	// At least one healthy node staged and then discarded the plan.
	var aborted int64
	for _, a := range b.agents {
		aborted += a.Stats().Aborted
	}
	if aborted == 0 {
		t.Error("no agent recorded an abort — rollback never reached the staged nodes")
	}
}

// A reconnect re-push (plain config at the committed epoch) overtaking a
// late prepare retry must win: prepare for an epoch the agent already
// applied acks idempotently and stages nothing.
func TestTwoPhasePrepareAfterApplyIsIdempotent(t *testing.T) {
	b := newMgmtBed(t, 0)
	epoch, err := b.server.PushAll2PC(b.plansFor(), mgmt.RetryPolicy{Attempts: 2, PerAttempt: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Re-run the same generation: every prepare hits the already-applied
	// fence... but PushAll2PC always mints a fresh epoch, so drive one
	// node directly through Push with the committed epoch instead.
	node := b.dep.MBNodes[0]
	dto := mgmt.ConfigToDTO(0, b.nodes[node].Config())
	dto.Epoch = epoch
	if err := b.server.Push(node, dto, 3*time.Second); err != nil {
		t.Fatalf("re-push at committed epoch: %v", err)
	}
	a := b.agents[node]
	if got := a.LastEpoch(); got != epoch {
		t.Errorf("epoch regressed to %d", got)
	}
	if a.Stats().StaleConfigs == 0 {
		t.Error("re-push at applied epoch was not treated as stale")
	}
	if se := a.StagedEpoch(); se != 0 {
		t.Errorf("idempotent path staged epoch %d", se)
	}
}

// Successive 2PC generations advance the fleet monotonically.
func TestTwoPhaseSuccessiveGenerations(t *testing.T) {
	b := newMgmtBed(t, 0)
	pol := mgmt.RetryPolicy{Attempts: 2, PerAttempt: 3 * time.Second}
	e1, err := b.server.PushAll2PC(b.plansFor(), pol)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := b.server.PushAll2PC(b.plansFor(), pol)
	if err != nil {
		t.Fatal(err)
	}
	if e2 <= e1 {
		t.Fatalf("epochs not monotonic: %d then %d", e1, e2)
	}
	for id, a := range b.agents {
		if got := a.LastEpoch(); got != e2 {
			t.Errorf("node %v on epoch %d, want %d", id, got, e2)
		}
	}
}

// The plan-consistency invariant over a real fleet: clean after an
// epoch-fenced batch, and flagging the exact divergent node after a
// deliberately partial plain push — the failure mode 2PC exists to
// prevent.
func TestTwoPhaseFleetPlanConsistency(t *testing.T) {
	b := newMgmtBed(t, 0)
	if _, err := b.server.PushAll2PC(b.plansFor(), mgmt.RetryPolicy{Attempts: 2, PerAttempt: 3 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if v := verify.CheckConsistency(b.fleetViews()); len(v) != 0 {
		t.Fatalf("consistent fleet flagged: %v", v)
	}

	// Push a lone node forward with a plain (unfenced) config: the fleet
	// now mixes generations, and the checker must say which node.
	node := b.dep.MBNodes[0]
	dto := mgmt.ConfigToDTO(0, b.nodes[node].Config())
	if err := b.server.PushRetry(node, dto, mgmt.RetryPolicy{Attempts: 2, PerAttempt: 3 * time.Second}); err != nil {
		t.Fatal(err)
	}
	viol := verify.CheckConsistency(b.fleetViews())
	if len(viol) == 0 {
		t.Fatal("mixed-epoch fleet passed the consistency check")
	}
	for _, v := range viol {
		if v.Invariant != verify.InvConsistency {
			t.Errorf("violation %v not tagged %v", v, verify.InvConsistency)
		}
	}
}

// Killing an agent before commit: the batch's commit phase reports a
// straggler, but the plan is recorded as latest, so the rejoining agent
// is caught up by the reconnect re-push and the fleet converges anyway.
func TestTwoPhaseCommitStragglerHealsViaReconnect(t *testing.T) {
	b := newMgmtBed(t, 0)
	pol := mgmt.RetryPolicy{Attempts: 2, PerAttempt: 3 * time.Second}
	// Snapshot the plans once: after the rejoin, the reconnect re-push
	// installs on the node concurrently with this goroutine.
	plans := b.plansFor()
	base, err := b.server.PushAll2PC(plans, pol)
	if err != nil {
		t.Fatal(err)
	}

	// Drop one agent entirely. Prepare cannot reach it, so this generation
	// rolls back; that is the fenced behavior — no node moves.
	node := b.dep.MBNodes[0]
	b.agents[node].Close()
	delete(b.agents, node)
	b.server.DropConn(node)

	if _, err := b.server.PushAll2PC(plans, mgmt.RetryPolicy{Attempts: 1, PerAttempt: time.Second}); err == nil {
		t.Fatal("2pc committed with a dead member")
	}
	for id, a := range b.agents {
		if got := a.LastEpoch(); got != base {
			t.Errorf("node %v moved to epoch %d while fleet was partial", id, got)
		}
	}

	// Rejoin and run the next generation: everyone lands on it together.
	agent, err := mgmt.NewAgent(b.devices[node], b.server.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b.agents[node] = agent
	if !b.server.WaitConnected(3*time.Second, node) {
		t.Fatal("agent did not rejoin")
	}
	next, err := b.server.PushAll2PC(plans, pol)
	if err != nil {
		t.Fatalf("2pc after rejoin: %v", err)
	}
	if !live.WaitUntil(3*time.Second, func() bool {
		for _, a := range b.agents {
			if a.LastEpoch() != next {
				return false
			}
		}
		return true
	}) {
		t.Fatal("fleet did not converge on the post-rejoin generation")
	}
}
