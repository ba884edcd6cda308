package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanKind names the public call a span wraps.
type spanKind uint8

const (
	spanOp        spanKind = iota // one benchmark operation (root)
	spanProxy                     // enforce.Node.HandleOutbound
	spanMB                        // enforce.Node.HandleArrival, from the forwarder
	spanControl                   // enforce.Node.HandleControl, from the forwarder
	spanSweep                     // enforce.Node.Sweep over every node (root)
	spanMutate                    // policy.Table / controller.MarkFailed edit
	spanRecompute                 // controller.Pipeline.Recompute
	spanPush                      // mgmt.Server.PushAllDelta2PC
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"op", "enforce.HandleOutbound", "enforce.HandleArrival", "enforce.HandleControl",
	"enforce.Sweep", "churn.mutate", "controller.Recompute", "mgmt.PushAllDelta2PC",
}

// span is one timed call. Times are nanoseconds since the tracer's base;
// parent indexes the enclosing span of the same operation (-1: root).
type span struct {
	kind       spanKind
	parent     int32
	start, end int64
}

type spanStats struct {
	n, total, self int64
}

// sampleEvery keeps every n-th operation's spans for the dump; all
// operations feed the aggregates.
const sampleEvery = 64

// maxSampled bounds the dumped spans.
const maxSampled = 1 << 16

// tracer records spans around the benchmark's calls into each layer. It is
// used from the single driver goroutine only. Spans of the operation in
// progress are held until its root span ends, then folded into per-kind
// aggregates (count, total and self time: duration minus the children's
// durations); every sampleEvery-th operation is also kept for the dump.
type tracer struct {
	base    time.Time
	cur     []span
	childNs []int64
	open    int32
	roots   int64
	stats   [nSpanKinds]spanStats
	// durs keeps every duration of the kinds whose percentiles are
	// reported (recompute and push: one per control-plane operation).
	durs    [nSpanKinds][]int64
	keepDur [nSpanKinds]bool
	sampled []sampledSpan
}

type sampledSpan struct {
	Op     int64  `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer {
	t := &tracer{base: time.Now(), open: -1}
	t.keepDur[spanRecompute] = true
	t.keepDur[spanPush] = true
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(k spanKind) int32 {
	id := int32(len(t.cur))
	t.cur = append(t.cur, span{kind: k, parent: t.open, start: t.now()})
	t.open = id
	return id
}

// end closes span id; closing a root folds the operation's spans.
func (t *tracer) end(id int32) {
	s := &t.cur[id]
	s.end = t.now()
	t.open = s.parent
	if t.open < 0 {
		t.fold()
	}
}

// add records a span whose start and end the caller measured itself.
func (t *tracer) add(k spanKind, start, end time.Time) {
	id := t.begin(k)
	t.cur[id].start = int64(start.Sub(t.base))
	t.cur[id].end = int64(end.Sub(t.base))
	t.open = t.cur[id].parent
	if t.open < 0 {
		t.fold()
	}
}

func (t *tracer) fold() {
	n := len(t.cur)
	if cap(t.childNs) < n {
		t.childNs = make([]int64, n)
	}
	child := t.childNs[:n]
	for i := range child {
		child[i] = 0
	}
	for i := range t.cur {
		if p := t.cur[i].parent; p >= 0 {
			child[p] += t.cur[i].end - t.cur[i].start
		}
	}
	keep := t.roots%sampleEvery == 0 && len(t.sampled)+n <= maxSampled
	for i, s := range t.cur {
		d := s.end - s.start
		st := &t.stats[s.kind]
		st.n++
		st.total += d
		st.self += d - child[i]
		if t.keepDur[s.kind] {
			t.durs[s.kind] = append(t.durs[s.kind], d)
		}
		if keep {
			t.sampled = append(t.sampled, sampledSpan{
				Op: t.roots, ID: int32(i), Parent: s.parent, Name: spanNames[s.kind],
				Start: s.start, End: s.end,
			})
		}
	}
	t.roots++
	t.cur = t.cur[:0]
}

// meanSelfNs is the mean self time of one kind's spans.
func (t *tracer) meanSelfNs(k spanKind) float64 {
	if t.stats[k].n == 0 {
		return 0
	}
	return float64(t.stats[k].self) / float64(t.stats[k].n)
}

// writeSamples dumps the kept spans as JSON lines and returns the path.
func (t *tracer) writeSamples(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("spans file: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.sampled {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("spans file: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("spans file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("spans file: %w", err)
	}
	return path, nil
}
