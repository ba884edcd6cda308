// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed wall-clock budget, checks every operation's output,
// and prints the result as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set (setup_s, ops_per_s,
// op_p50_us, op_p99_us, slow_op_p50_us, ok_ratio, heap_mb); with --trace 1
// they are the per-layer set, measured with spans the benchmark records
// around its own calls into each layer. README.md explains the workloads
// and how to read both outputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a run builds its workload; setup_s is the
// median, and the last build is the one measured.
const setupRepeats = 5

// bench is one prepared benchmark input set, ready to be driven.
type bench interface {
	// measure drives operations until lim is reached, recording each one
	// in rec. tr is nil for an untraced phase.
	measure(lim limit, rec *recorder, tr *tracer) error
	// layers reports the per-layer metrics of the phases measured since
	// the last resetLayers; ops is the number of operations in them.
	layers(tr *tracer, ops int64) map[string]float64
	// resetLayers snapshots the counters per-layer metrics are deltas of.
	resetLayers()
	// finalCheck runs the end-of-run correctness checks and returns one
	// line per failure.
	finalCheck() []string
	close()
}

type workloadSpec struct {
	name  string
	setup func(seed int64) (bench, error)
	// window cuts a run into wall-clock windows whose median rate is
	// ops_per_s (record.go); 0 reports the whole run's rate.
	window time.Duration
}

var workloads = []workloadSpec{
	{"dp-paper", newDPPaper, dpWindow},
	{"dp-mice", newDPMice, dpWindow},
	// ctl-churn reports the whole run's rate: its events differ in cost
	// by content (one full solve takes 80-240 ms depending on the demand
	// set, one middlebox event 2-200 ms depending on the middlebox), so
	// windows would not carry the same mix.
	{"ctl-churn", newCtlChurn, 0},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	ops      int64
	root     string
	spansDir string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name (dp-paper, dp-mice, ctl-churn)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured wall-clock seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.Int64Var(&o.ops, "ops", 0, "stop after this many operations instead of after --seconds (tests)")
	fs.StringVar(&o.root, "root", "..", "repository root, hashed into the run metadata")
	fs.StringVar(&o.spansDir, "spans-dir", "", "directory for the traced run's sampled spans (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	res, meta, err := execute(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printReport(stdout, res, meta)
	return 0
}

// result is the final stdout line the benchmark contract defines.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func execute(o options) (*result, map[string]interface{}, error) {
	spec, ok := findWorkload(o.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 && o.ops <= 0 {
		return nil, nil, fmt.Errorf("need --seconds > 0 or --ops > 0")
	}
	var w bench
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		nw, err := spec.setup(o.seed)
		if err != nil {
			return nil, nil, fmt.Errorf("%s setup: %w", spec.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if w != nil {
			w.close()
		}
		w = nw
	}
	defer w.close()

	meta := hostMeta(o)
	res := &result{Metrics: make(map[string]metric)}
	var failures []string
	if o.trace {
		// Half the budget untraced, half traced, on the same state: the
		// difference in throughput is the tracing overhead.
		half := limit{seconds: o.seconds / 2, ops: o.ops / 2}
		plain := newRecorder(spec.window)
		if err := w.measure(half, plain, nil); err != nil {
			return nil, nil, err
		}
		w.resetLayers()
		tr := newTracer()
		traced := newRecorder(spec.window)
		ms := captureRuntime()
		if err := w.measure(half, traced, tr); err != nil {
			return nil, nil, err
		}
		rt := ms.delta(traced.attempted)
		layers := w.layers(tr, traced.attempted)
		for k, v := range rt {
			layers[k] = v
		}
		layers["trace.ops_per_s"] = traced.opsPerSec()
		layers["trace.overhead_ops_per_s"] = traced.opsPerSec() - plain.opsPerSec()
		var missing []string
		applicable := map[string]bool{}
		for _, m := range perLayerMetrics {
			v, ok := layers[m.name]
			if !ok {
				missing = append(missing, m.name)
			}
			applicable[m.name] = ok
			res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
		meta["not_applicable"] = missing
		meta["inexact_counts"] = inexactCounts(spec.name, applicable)
		meta["traced_ops"] = traced.attempted
		meta["untraced_ops"] = plain.attempted
		if o.spansDir != "" {
			path, err := tr.writeSamples(o.spansDir, spec.name, o.seed)
			if err != nil {
				return nil, nil, err
			}
			meta["spans_file"] = path
		}
		failures = append(failures, plain.failures()...)
		failures = append(failures, traced.failures()...)
		res.Attempted = plain.attempted + traced.attempted
		res.Failed = plain.failed + traced.failed
	} else {
		rec := newRecorder(spec.window)
		if err := w.measure(limit{seconds: o.seconds, ops: o.ops}, rec, nil); err != nil {
			return nil, nil, err
		}
		s := rec.summarize()
		rec.release()
		failures = rec.failures()
		res.Attempted, res.Failed = rec.attempted, rec.failed
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["ops_per_s"] = metric{rec.opsPerSec(), "1/s"}
		res.Metrics["op_p50_us"] = metric{s.p50, "us"}
		res.Metrics["op_p99_us"] = metric{s.p99, "us"}
		res.Metrics["slow_op_p50_us"] = metric{s.slowP50, "us"}
		res.Metrics["heap_mb"] = metric{liveHeapMB(), "MB"}
		meta["ops_per_s_whole_run"] = rec.wholeOpsPerSec()
		meta["window_ops_per_s"] = roundAll(rec.windowRates())
		meta["op_samples"] = s.n
		meta["op_p99_samples_beyond"] = s.n / 100
		meta["op_p999_us"] = s.p999
		meta["slow_op_samples"] = s.slowN
	}
	meta["setup_s_all"] = setups
	// Each failed end-of-run check counts as one failed operation, so
	// ok_ratio reflects every check.
	checks := w.finalCheck()
	failures = append(failures, checks...)
	res.Failed = min(res.Failed+int64(len(checks)), res.Attempted)
	if !o.trace {
		res.Metrics["ok_ratio"] = metric{float64(res.Attempted-res.Failed) / float64(max(res.Attempted, 1)), "ratio"}
	}
	if len(failures) > 0 {
		meta["check_failures"] = failures[:min(len(failures), 16)]
		meta["check_failures_total"] = len(failures)
	}
	res.Correct = len(failures) == 0 && res.Failed == 0 && res.Attempted > 0
	return res, meta, nil
}

func roundAll(xs []float64) []float64 {
	for i, x := range xs {
		xs[i] = math.Round(x)
	}
	return xs
}

// printReport writes a human-readable block, the metadata line and, last,
// the result line.
func printReport(w io.Writer, res *result, meta map[string]interface{}) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-32s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	mb, _ := json.Marshal(map[string]interface{}{"meta": meta})
	fmt.Fprintln(w, string(mb))
	rb, _ := json.Marshal(res)
	fmt.Fprintln(w, string(rb))
}

func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
