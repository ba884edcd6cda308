package mgmt

import (
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"sdme/internal/enforce"
	"sdme/internal/metrics"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// The delta rollout's two safety rules are protocol behavior, so they
// are tested at the wire level with a scripted peer standing in for the
// agent: base fencing (a refused delta prepare degrades to a prepare of
// the merged full configuration at the same epoch) and merge-at-store
// (reconnect catch-up always re-pushes a full merged configuration,
// never a delta chain).

const fakeNode = topo.NodeID(7)

// dialFake connects a scripted agent to the server and completes the
// hello handshake, reporting the given applied epoch.
func dialFake(t *testing.T, addr string, epoch uint64) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeMsg(conn, TypeHello, Hello{NodeID: int(fakeNode), Name: "fake", Epoch: epoch}); err != nil {
		t.Fatal(err)
	}
	env, err := readMsg(conn)
	if err != nil || env.T != TypeHelloAck {
		t.Fatalf("handshake: %v %v", env, err)
	}
	return conn
}

// serveScript records every envelope and answers it with handle's ack,
// until the connection closes. Recording comes first, so an envelope is
// on seen before the server can observe its ack (or the conn dying).
func serveScript(t *testing.T, conn net.Conn, seen chan<- *Envelope, handle func(env *Envelope) Ack) {
	for {
		env, err := readMsg(conn)
		if err != nil {
			return
		}
		seen <- env
		if err := writeMsg(conn, TypeAck, handle(env)); err != nil {
			return
		}
	}
}

func seqEpochOf(t *testing.T, env *Envelope) (uint64, uint64) {
	t.Helper()
	var hdr struct {
		Seq   uint64 `json:"seq"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(env.Data, &hdr); err != nil {
		t.Fatalf("decode %s header: %v", env.T, err)
	}
	return hdr.Seq, hdr.Epoch
}

// ackAll is the script of an agent that stages and commits everything.
func ackAll(t *testing.T) func(env *Envelope) Ack {
	return func(env *Envelope) Ack {
		seq, epoch := seqEpochOf(t, env)
		return Ack{Seq: seq, Epoch: epoch, Prepared: env.T == TypePrepare || env.T == TypeDelta}
	}
}

func drain(seen <-chan *Envelope) []*Envelope {
	var out []*Envelope
	for len(seen) > 0 {
		out = append(out, <-seen)
	}
	return out
}

func TestDelta2PCRequiresFullBase(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, err = srv.PushAllDelta2PC(map[topo.NodeID]enforce.ConfigDelta{fakeNode: seedDelta()}, nil,
		RetryPolicy{Attempts: 1, PerAttempt: time.Second})
	if !errors.Is(err, ErrNoBase) {
		t.Fatalf("delta rollout without a recorded base or fallback: err = %v, want ErrNoBase", err)
	}
}

func TestDelta2PCBaseMismatchFallsBackToFull(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := metrics.NewRegistry(nil)
	srv.SetMetrics(reg)

	conn := dialFake(t, srv.Addr(), 0)
	defer conn.Close()
	seen := make(chan *Envelope, 16)
	ack := ackAll(t)
	go serveScript(t, conn, seen, func(env *Envelope) Ack {
		if env.T == TypeDelta {
			// Script the race the fallback exists for: the agent reports
			// an applied epoch other than the delta's base.
			seq, epoch := seqEpochOf(t, env)
			return Ack{Seq: seq, Epoch: epoch, Prepared: true, Error: RefuseDeltaBase + ": applied epoch 9, delta base 1"}
		}
		return ack(env)
	})
	if !srv.WaitConnected(3*time.Second, fakeNode) {
		t.Fatal("fake agent not registered")
	}

	pol := RetryPolicy{Attempts: 1, PerAttempt: 3 * time.Second}
	if err := srv.PushRetry(fakeNode, ConfigToDTO(0, seedConfig()), pol); err != nil {
		t.Fatalf("full push: %v", err)
	}
	epoch, err := srv.PushAllDelta2PC(map[topo.NodeID]enforce.ConfigDelta{fakeNode: seedDelta()}, nil, pol)
	if err != nil {
		t.Fatalf("delta rollout should fall back to a full prepare, got %v", err)
	}
	if epoch != 2 {
		t.Fatalf("rollout epoch = %d, want 2", epoch)
	}

	envs := drain(seen)
	var types []string
	for _, env := range envs {
		types = append(types, env.T)
	}
	want := []string{TypeConfig, TypeDelta, TypePrepare, TypeCommit}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("wire sequence = %v, want %v", types, want)
	}
	// The fallback is the delta-merged full configuration at the delta's
	// epoch: the seed delta removes policy 2, so the merged config must
	// not carry it.
	var dto ConfigDTO
	if err := json.Unmarshal(envs[2].Data, &dto); err != nil {
		t.Fatal(err)
	}
	if dto.Epoch != epoch {
		t.Errorf("fallback epoch = %d, want the delta's epoch %d", dto.Epoch, epoch)
	}
	for _, p := range dto.Policies {
		if p.ID == 2 {
			t.Errorf("fallback config still carries removed policy 2")
		}
	}
	if got := reg.Counter(MetricDeltaFallbacks).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricDeltaFallbacks, got)
	}
	if reg.Counter(MetricPushBytesDelta).Value() == 0 {
		t.Errorf("%s not counted", MetricPushBytesDelta)
	}
	if reg.Counter(MetricPushBytesFull).Value() == 0 {
		t.Errorf("%s not counted", MetricPushBytesFull)
	}
	if !srv.Converged(fakeNode) {
		t.Error("server not converged after the fallback commit")
	}
}

func TestDeltaReconnectCatchupPushesMergedFull(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn := dialFake(t, srv.Addr(), 0)
	seen := make(chan *Envelope, 16)
	ack := ackAll(t)
	// The agent commits the first delta epoch (2), stages the second (3)
	// and dies before its commit.
	go serveScript(t, conn, seen, func(env *Envelope) Ack {
		if _, epoch := seqEpochOf(t, env); env.T == TypeCommit && epoch == 3 {
			_ = conn.Close()
		}
		return ack(env)
	})
	if !srv.WaitConnected(3*time.Second, fakeNode) {
		t.Fatal("fake agent not registered")
	}
	pol := RetryPolicy{Attempts: 1, PerAttempt: 3 * time.Second}
	if err := srv.PushRetry(fakeNode, ConfigToDTO(0, seedConfig()), pol); err != nil {
		t.Fatalf("full push: %v", err)
	}
	d1 := enforce.ConfigDelta{Removes: []int{2}}
	d2 := enforce.ConfigDelta{SetWeights: map[enforce.WeightKey][]float64{
		{PolicyID: 1, Func: policy.FuncFW}: {0.25, 0.75},
	}}
	if _, err := srv.PushAllDelta2PC(map[topo.NodeID]enforce.ConfigDelta{fakeNode: d1}, nil, pol); err != nil {
		t.Fatalf("first delta rollout: %v", err)
	}
	if _, err := srv.PushAllDelta2PC(map[topo.NodeID]enforce.ConfigDelta{fakeNode: d2}, nil, pol); err == nil {
		t.Fatal("a rollout whose commit never reaches the node should report the straggler")
	}
	drain(seen)

	// Reconnect reporting the last applied epoch (2). The commit decision
	// recorded the merged full configuration, so catch-up must send ONE
	// full config at epoch 3 with both deltas folded in — a node is never
	// asked to replay a delta chain.
	conn2 := dialFake(t, srv.Addr(), 2)
	defer conn2.Close()
	go serveScript(t, conn2, seen, ack)
	var env *Envelope
	select {
	case env = <-seen:
	case <-time.After(3 * time.Second):
		t.Fatal("no catch-up push after reconnect")
	}
	if env.T != TypeConfig {
		t.Fatalf("catch-up pushed %s, want %s", env.T, TypeConfig)
	}
	var dto ConfigDTO
	if err := json.Unmarshal(env.Data, &dto); err != nil {
		t.Fatal(err)
	}
	if dto.Epoch != 3 {
		t.Errorf("catch-up epoch = %d, want 3", dto.Epoch)
	}
	for _, p := range dto.Policies {
		if p.ID == 2 {
			t.Errorf("catch-up config still carries policy 2 removed by the first delta")
		}
	}
	var w []float64
	for _, wd := range dto.Weights {
		if wd.PolicyID == 1 && wd.Func == int(policy.FuncFW) {
			w = wd.Weights
		}
	}
	if len(w) != 2 || w[0] != 0.25 || w[1] != 0.75 {
		t.Errorf("catch-up config missing the second delta's weights: %v", w)
	}
	select {
	case extra := <-seen:
		t.Errorf("catch-up sent a second message %s", extra.T)
	case <-time.After(100 * time.Millisecond):
	}
}
