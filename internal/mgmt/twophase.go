package mgmt

import (
	"encoding/json"
	"fmt"
	"sync"

	"sdme/internal/enforce"
	"sdme/internal/metrics"
	"sdme/internal/topo"
)

// Epoch-fenced two-phase rollout: the one path by which a plan generation
// reaches a fleet. A plain per-node push configures nodes one by one, so
// a crash (or a refusal) partway through a multi-node rollout leaves some
// nodes on epoch N and others on N−1 — two plans mixed in one network,
// exactly the cross-node inconsistency verify.Consistency flags. The
// rollout closes that window: every node first STAGES its share of the
// new plan (prepare), and only when all of them have staged it does the
// server tell them to atomically flip (commit). If any prepare fails
// after retries, the staged plans are discarded (abort) and no node ever
// ran the new epoch. Nodes that die between prepare and commit converge
// through the reconnect catch-up: the commit decision records each
// node's merged full configuration as its latest, so a rejoining agent
// is re-pushed the committed plan idempotently.
//
// A node's share travels either as its full configuration (TypePrepare)
// or, when only part of it changed, as a delta (TypeDelta) that carries
// just the edits since the node's current epoch. Delta safety rests on
// two rules:
//
//  1. Base fencing. Every delta names the epoch it was diffed against
//     (BaseEpoch). An agent on any other epoch refuses to stage it, and
//     the server re-prepares the merged full configuration at the same
//     epoch — a delta is never applied to a base it does not match.
//  2. Merge-at-store. The server merges each delta into the node's
//     recorded latest full configuration before the commit decision and
//     stores the result. The reconnect catch-up therefore always
//     re-pushes full configurations: a node that was down through any
//     number of delta epochs converges in one push, never by replaying a
//     delta chain.

// nodePlan is one node's share of a plan generation: the full
// configuration it must end up running and, when the server holds the
// node's base, the delta that takes the base there.
type nodePlan struct {
	delta *DeltaDTO
	full  ConfigDTO
}

// PushAll2PC rolls one plan generation out to all given nodes as full
// configurations under prepare/commit fencing. It assigns a single fresh
// epoch to the batch and returns it. On a prepare failure the batch is
// aborted (best-effort, one attempt per node) and the error of the
// first failed prepare is returned: no node applied anything. After the
// commit decision, individual commit failures are returned as an error
// but the plan is already recorded as every node's latest — stragglers
// heal via reconnect re-push, and Converged reports the fleet's progress.
func (s *Server) PushAll2PC(plans map[topo.NodeID]ConfigDTO, pol RetryPolicy) (uint64, error) {
	return s.rollout("2pc push", pol, func(epoch, term uint64) (map[topo.NodeID]nodePlan, error) {
		out := make(map[topo.NodeID]nodePlan, len(plans))
		for node, dto := range plans {
			dto.Epoch, dto.Term = epoch, term
			out[node] = nodePlan{full: dto}
		}
		return out, nil
	})
}

// PushAllDelta2PC rolls one plan generation out as per-node deltas under
// the same rollout as PushAll2PC. fallback supplies each node's full
// configuration for the new plan; it is REQUIRED for nodes the server
// has no recorded base for (ErrNoBase otherwise). A node whose agent
// refuses its delta's base epoch is re-prepared with the merged full
// configuration automatically. Nodes absent from deltas are not touched
// at all — that is the point of a delta rollout.
func (s *Server) PushAllDelta2PC(deltas map[topo.NodeID]enforce.ConfigDelta, fallback map[topo.NodeID]ConfigDTO, pol RetryPolicy) (uint64, error) {
	return s.rollout("2pc delta push", pol, func(epoch, term uint64) (map[topo.NodeID]nodePlan, error) {
		out := make(map[topo.NodeID]nodePlan, len(deltas))
		for node, d := range deltas {
			if base, ok := s.latest[node]; ok {
				ddto := DeltaToDTO(0, d)
				ddto.Epoch, ddto.Term, ddto.BaseEpoch = epoch, term, base.Epoch
				full, err := mergeDelta(base, ddto)
				if err != nil {
					return nil, fmt.Errorf("merge for %v: %w", node, err)
				}
				out[node] = nodePlan{delta: &ddto, full: full}
				continue
			}
			fb, ok := fallback[node]
			if !ok {
				return nil, fmt.Errorf("to %v: %w", node, ErrNoBase)
			}
			fb.Epoch, fb.Term = epoch, term
			out[node] = nodePlan{full: fb}
		}
		return out, nil
	})
}

// mergeDelta returns the full configuration that base + delta yields,
// stamped with the delta's epoch and term.
func mergeDelta(base ConfigDTO, ddto DeltaDTO) (ConfigDTO, error) {
	cfg, err := ConfigFromDTO(base)
	if err != nil {
		return ConfigDTO{}, err
	}
	d := DeltaFromDTO(ddto)
	out := ConfigToDTO(0, d.ApplyToConfig(cfg))
	out.Epoch = ddto.Epoch
	out.Term = ddto.Term
	return out, nil
}

// rollout mints the generation's epoch, has build lay out every node's
// share under s.mu (deltas read the recorded bases), and runs
// prepare → decision → commit.
func (s *Server) rollout(op string, pol RetryPolicy, build func(epoch, term uint64) (map[topo.NodeID]nodePlan, error)) (uint64, error) {
	pol = pol.fill()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("mgmt: %s: %w", op, ErrServerClosed)
	}
	if s.notLeader {
		s.mu.Unlock()
		return 0, fmt.Errorf("mgmt: %s: %w", op, ErrNotLeader)
	}
	s.epoch++
	epoch, term := s.epoch, s.term
	plans, err := build(epoch, term)
	s.mu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("mgmt: %s: %w", op, err)
	}

	nodes := make([]topo.NodeID, 0, len(plans))
	for id := range plans {
		nodes = append(nodes, id)
	}
	nodes = topo.SortedIDs(nodes)

	// Phase 1: stage the plan everywhere.
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node topo.NodeID, np nodePlan) {
			defer wg.Done()
			errs[i] = s.prepare(node, np, pol)
		}(i, node, plans[node])
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			continue
		}
		// Prepare quorum failed: roll the staged plans back. Best-effort
		// single attempts — an unreachable agent discards its stale stage
		// anyway when a newer epoch arrives.
		s.smInc(func(m *serverMetrics) *metrics.Counter { return m.rollbacks })
		abortPol := RetryPolicy{Attempts: 1, PerAttempt: pol.PerAttempt}
		for _, node := range nodes {
			_ = s.callRetry(node, TypeAbort, func(seq uint64) interface{} {
				return Commit{Seq: seq, Epoch: epoch, Term: term}
			}, abortPol, 0)
		}
		return epoch, fmt.Errorf("mgmt: %s: prepare failed at node %v (rolled back): %w", op, nodes[i], err)
	}

	// Decision: commit. Record every node's merged full configuration as
	// its latest FIRST, so even a node that dies right now converges via
	// reconnect re-push — which never replays deltas.
	s.mu.Lock()
	for _, node := range nodes {
		s.storeLatestLocked(node, plans[node].full)
	}
	s.mu.Unlock()

	// Phase 2: flip everywhere.
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node topo.NodeID) {
			defer wg.Done()
			s.smInc(func(m *serverMetrics) *metrics.Counter { return m.commits })
			errs[i] = s.callRetry(node, TypeCommit, func(seq uint64) interface{} {
				return Commit{Seq: seq, Epoch: epoch, Term: term}
			}, pol, epoch)
		}(i, node)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return epoch, fmt.Errorf("mgmt: %s: commit straggler %v (will heal via re-push): %w", op, nodes[i], err)
		}
	}
	return epoch, nil
}

// prepare stages one node's share: the delta when there is one, and the
// full configuration when there is none or the agent refuses the delta's
// base epoch — the plan content is identical, only the transport form
// degrades.
func (s *Server) prepare(node topo.NodeID, np nodePlan, pol RetryPolicy) error {
	s.smInc(func(m *serverMetrics) *metrics.Counter { return m.prepares })
	if np.delta != nil {
		s.smInc(func(m *serverMetrics) *metrics.Counter { return m.deltaPushes })
		ddto := *np.delta
		s.observePushBytes(TypeDelta, ddto)
		err := s.callRetry(node, TypeDelta, func(seq uint64) interface{} {
			ddto.Seq = seq
			return ddto
		}, pol, 0)
		if !IsBaseMismatch(err) {
			return err
		}
		s.smInc(func(m *serverMetrics) *metrics.Counter { return m.deltaFallbacks })
	}
	dto := np.full
	s.observePushBytes(TypePrepare, dto)
	return s.callRetry(node, TypePrepare, func(seq uint64) interface{} {
		dto.Seq = seq
		return dto
	}, pol, 0)
}

// stagedPlan is an agent's prepared-but-not-applied configuration: a
// full ConfigDTO from a TypePrepare, or a DeltaDTO from a TypeDelta
// (delta non-nil wins).
type stagedPlan struct {
	epoch uint64
	dto   ConfigDTO
	delta *DeltaDTO
}

// handlePrepare stages a full plan (TypePrepare) or a delta (TypeDelta)
// without applying it. Admission runs at stage time, not commit time — a
// plan that cannot be applied, or a delta whose base the agent does not
// run, must fail the prepare before any node flips. The ack carries
// Prepared so the server never mistakes "staged" for "running".
func (a *Agent) handlePrepare(typ string, data []byte) {
	st := &stagedPlan{}
	var msg planMsg = &st.dto
	if typ == TypeDelta {
		st.delta = &DeltaDTO{}
		msg = st.delta
	}
	if !a.admit(typ, data, msg) {
		return
	}
	seq, epoch, _ := msg.header()
	st.epoch = epoch
	a.stagedMu.Lock()
	// A newer prepare supersedes an older staged plan (the older epoch's
	// commit can no longer win: its quorum failed or this one would not
	// have been issued).
	a.staged = st
	a.stagedMu.Unlock()
	a.prepared.Add(1)
	if a.am != nil {
		a.am.prepares.Inc()
	}
	_ = a.write(TypeAck, Ack{Seq: seq, Epoch: epoch, Prepared: true})
}

// handleCommit atomically applies the staged plan for the named epoch.
func (a *Agent) handleCommit(data []byte) {
	var cm Commit
	if err := json.Unmarshal(data, &cm); err != nil {
		_ = a.write(TypeAck, Ack{Seq: cm.Seq, Error: "bad commit: " + err.Error()})
		return
	}
	if err := cm.Validate(); err != nil {
		_ = a.write(TypeAck, Ack{Seq: cm.Seq, Error: err.Error()})
		return
	}
	// Same fence as prepare: a deposed leader's commit decision is void.
	if reason := a.fenceTerm(cm.Term); reason != "" {
		_ = a.write(TypeAck, Ack{Seq: cm.Seq, Epoch: cm.Epoch, Term: a.term.Load(), Error: reason})
		return
	}
	if cm.Epoch <= a.epoch.Load() {
		// Duplicate commit (retry crossing an earlier ack): idempotent.
		a.stale.Add(1)
		_ = a.write(TypeAck, Ack{Seq: cm.Seq, Epoch: cm.Epoch})
		return
	}
	a.stagedMu.Lock()
	st := a.staged
	if st != nil && st.epoch == cm.Epoch {
		a.staged = nil
	}
	a.stagedMu.Unlock()
	if st == nil || st.epoch != cm.Epoch {
		_ = a.write(TypeAck, Ack{Seq: cm.Seq, Epoch: cm.Epoch,
			Error: fmt.Sprintf("no staged plan for epoch %d", cm.Epoch)})
		return
	}
	// applyDTO / applyDeltaDTO re-validate before installing (defense in
	// depth at the wire trust boundary; the staged copy crossed goroutines
	// since its prepare-time check).
	var errStr string
	if st.delta != nil {
		errStr = a.applyDeltaDTO(*st.delta)
	} else {
		errStr = a.applyDTO(st.dto)
	}
	if errStr == "" {
		a.committed.Add(1)
		if a.am != nil {
			a.am.commits.Inc()
		}
	}
	_ = a.write(TypeAck, Ack{Seq: cm.Seq, Epoch: cm.Epoch, Error: errStr})
}

// handleAbort discards a staged plan; aborting an epoch that was never
// staged (or already superseded) acks successfully — abort is the
// "make sure it never runs" message, and it never ran.
func (a *Agent) handleAbort(data []byte) {
	var cm Commit
	if err := json.Unmarshal(data, &cm); err != nil {
		_ = a.write(TypeAck, Ack{Seq: cm.Seq, Error: "bad abort: " + err.Error()})
		return
	}
	if err := cm.Validate(); err != nil {
		_ = a.write(TypeAck, Ack{Seq: cm.Seq, Error: err.Error()})
		return
	}
	a.stagedMu.Lock()
	if a.staged != nil && a.staged.epoch == cm.Epoch {
		a.staged = nil
		a.aborted.Add(1)
		if a.am != nil {
			a.am.aborts.Inc()
		}
	}
	a.stagedMu.Unlock()
	_ = a.write(TypeAck, Ack{Seq: cm.Seq, Epoch: cm.Epoch})
}

// StagedEpoch returns the epoch of the currently staged (uncommitted)
// plan, 0 if none — test and conformance hook.
func (a *Agent) StagedEpoch() uint64 {
	a.stagedMu.Lock()
	defer a.stagedMu.Unlock()
	if a.staged == nil {
		return 0
	}
	return a.staged.epoch
}

// applyDTO validates and installs a full configuration on the device,
// returning an error string for the ack ("" on success). Shared by the
// direct config path and the commit path.
func (a *Agent) applyDTO(dto ConfigDTO) string {
	if err := dto.Validate(); err != nil {
		return err.Error()
	}
	cfg, err := ConfigFromDTO(dto)
	if err != nil {
		return err.Error()
	}
	errStr := ""
	applied := a.dev.Do(func(n *enforce.Node) {
		if ierr := n.Install(cfg); ierr != nil {
			errStr = ierr.Error()
		}
	})
	if !applied {
		errStr = "device stopped"
	}
	if errStr == "" {
		a.appliedEpoch(dto.Epoch)
	}
	return errStr
}

// applyDeltaDTO validates and applies a staged delta in place, returning
// an error string for the ack ("" on success). The base check is
// repeated here because epochs may have advanced (a reconnect re-push)
// since the prepare-time check.
func (a *Agent) applyDeltaDTO(dto DeltaDTO) string {
	if err := dto.Validate(); err != nil {
		return err.Error()
	}
	if cur := a.epoch.Load(); cur != dto.BaseEpoch {
		return baseMismatch(cur, dto.BaseEpoch)
	}
	d := DeltaFromDTO(dto)
	errStr := ""
	applied := a.dev.Do(func(n *enforce.Node) {
		if err := n.ApplyDelta(d); err != nil {
			errStr = err.Error()
		}
	})
	if !applied {
		errStr = "device stopped"
	}
	if errStr == "" {
		a.deltaApplies.Add(1)
		if a.am != nil {
			a.am.deltaApplies.Inc()
		}
		a.appliedEpoch(dto.Epoch)
	}
	return errStr
}

// appliedEpoch counts a successful apply and advances the agent's
// applied epoch to it.
func (a *Agent) appliedEpoch(epoch uint64) {
	a.applies.Add(1)
	if a.am != nil {
		a.am.applies.Inc()
	}
	if epoch > a.epoch.Load() {
		a.epoch.Store(epoch)
	}
}
