package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// layerMetric is one per-layer metric as BENCHMARK.json lists it.
type layerMetric struct{ name, unit string }

// perLayerMetrics is the traced run's output, in BENCHMARK.json order. A
// metric whose layer the workload does not drive reads 0 and is listed
// under "not_applicable" in the metadata line.
var perLayerMetrics = []layerMetric{
	{"enforce.proxy_self_ns", "ns"},
	{"enforce.mb_self_ns", "ns"},
	{"enforce.mb_visits_per_op", "count"},
	{"enforce.sweep_us_per_kop", "us"},
	{"flowtable.hit_ratio", "ratio"},
	{"flowtable.lookup_ns", "ns"},
	{"flowtable.entries", "count"},
	{"label.fastpath_share", "ratio"},
	{"policy.classify_ns", "ns"},
	{"policy.trie_classify_ns", "ns"},
	{"policy.classifications_per_op", "count"},
	{"packet.encap_ns", "ns"},
	{"packet.decap_ns", "ns"},
	{"packet.tunnels_per_op", "count"},
	{"packet.marshal_ns", "ns"},
	{"packet.pool_hit_ratio", "ratio"},
	{"nf.fw_ns", "ns"},
	{"nf.ids_ns", "ns"},
	{"nf.wp_ns", "ns"},
	{"nf.tm_ns", "ns"},
	{"nf.load_per_op", "count"},
	{"controller.recompute_us_p50", "us"},
	{"controller.recompute_us_p99", "us"},
	{"controller.compile_us", "us"},
	{"controller.diff_us", "us"},
	{"controller.dirty_frac", "ratio"},
	{"controller.full_share", "ratio"},
	{"controller.delta_entries_per_op", "count"},
	{"lp.full_solve_us", "us"},
	{"mgmt.push_us_p50", "us"},
	{"mgmt.push_us_p99", "us"},
	{"mgmt.encode_us", "us"},
	{"mgmt.bytes_per_op", "bytes"},
	{"mgmt.nodes_per_push", "count"},
	{"mgmt.retries", "count"},
	{"live.inject_us", "us"},
	{"live.window_wait_us", "us"},
	{"live.hops_per_op", "count"},
	{"live.dropped", "count"},
	{"live.queue_depth_max", "count"},
	{"go.allocs_per_op", "count"},
	{"go.bytes_per_op", "bytes"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.ops_per_s", "1/s"},
	{"trace.overhead_ops_per_s", "1/s"},
}

var dpExactCounts = []string{
	"enforce.mb_visits_per_op", "flowtable.hit_ratio", "flowtable.entries",
	"label.fastpath_share", "policy.classifications_per_op",
	"packet.tunnels_per_op", "nf.load_per_op",
}

// exactCounts lists the per-layer counts and ratios of a workload that
// repeat exactly across runs of one seed at a fixed operation count;
// only these may carry a claim made on a count. Every other applicable
// count is listed as inexact in the metadata line: the go.* counts follow
// GC timing, and the mgmt and delta counts follow the pipeline's
// map-ordered float sums (weights, and so diffs and encoded bytes, differ
// in the last bits between runs).
func exactCounts(workload string) []string {
	switch workload {
	case "dp-paper":
		return append(dpExactCounts, "live.dropped")
	case "dp-mice":
		return dpExactCounts
	case "ctl-churn":
		return []string{"controller.dirty_frac", "controller.full_share"}
	}
	return nil
}

// inexactCounts is the complement of exactCounts among the applicable
// per-layer counts and ratios.
func inexactCounts(workload string, applicable map[string]bool) []string {
	exact := map[string]bool{}
	for _, k := range exactCounts(workload) {
		exact[k] = true
	}
	var out []string
	for _, m := range perLayerMetrics {
		countLike := m.unit == "count" || m.unit == "ratio" || m.unit == "bytes"
		if countLike && applicable[m.name] && !exact[m.name] {
			out = append(out, m.name)
		}
	}
	return out
}

// hostMeta describes the host and the run, printed with every result.
func hostMeta(o options) map[string]interface{} {
	return map[string]interface{}{
		"workload":   o.workload,
		"seed":       o.seed,
		"bed_seed":   bedSeed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu_model":  cpuModel(),
		"l2_cache":   l2Size(),
		"commit":     sourceDigest(o.root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func l2Size() string {
	b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index2/size")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// sourceDigest identifies the code under test: the checkout the benchmark
// runs in is not a git repository, so it hashes go.mod and every .go file
// under root (build outputs excluded) instead of naming a commit.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	if len(files) == 0 {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		if b, err := os.ReadFile(p); err == nil {
			h.Write(b)
		}
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// runtimeSnap is the Go runtime's allocation and GC state at a phase start.
type runtimeSnap struct{ ms runtime.MemStats }

func captureRuntime() *runtimeSnap {
	s := &runtimeSnap{}
	runtime.ReadMemStats(&s.ms)
	return s
}

// delta reports the Go-runtime metrics of the phase since the snapshot.
func (s *runtimeSnap) delta(ops int64) map[string]float64 {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	per := float64(max(ops, 1))
	return map[string]float64{
		"go.allocs_per_op": float64(now.Mallocs-s.ms.Mallocs) / per,
		"go.bytes_per_op":  float64(now.TotalAlloc-s.ms.TotalAlloc) / per,
		"go.gc_cycles":     float64(now.NumGC - s.ms.NumGC),
		"go.gc_pause_ms":   float64(now.PauseTotalNs-s.ms.PauseTotalNs) / 1e6,
	}
}
