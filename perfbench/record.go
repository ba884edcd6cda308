package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// limit bounds one measured phase: by operation count when ops > 0
// (tests), otherwise by wall-clock seconds.
type limit struct {
	seconds float64
	ops     int64
}

// Windows. The packet workloads cut a run into 100 ms windows, each
// carrying the same mix, and report ops_per_s as the median window's rate.
// The benchmark shares its host with other tenants: on the 2-vCPU VM it was
// built on, one binary on one seed moved between throughput levels up to
// ~40% apart, for a fraction of a second up to minutes at a time, with no
// steal time reported. The median window ranks every window and is moved
// by a disturbance only once it covers half of the run. The latency
// quantiles use every operation of the run.
const dpWindow = 100 * time.Millisecond

// slowBit marks a slow operation in a stored latency; latencies are
// clamped below it (2.1 s).
const slowBit = 1 << 31

// chunkLen sizes the latency store's chunks: appending never copies
// earlier samples, so a long run does not pause to grow one huge slice.
const chunkLen = 1 << 16

// samples stores per-operation latencies in nanoseconds, in order.
type samples struct {
	chunks [][]uint32
	n      int
}

func (s *samples) add(v uint32) {
	if s.n%chunkLen == 0 {
		s.chunks = append(s.chunks, make([]uint32, 0, chunkLen))
	}
	last := len(s.chunks) - 1
	s.chunks[last] = append(s.chunks[last], v)
	s.n++
}

func (s *samples) at(i int) uint32 { return s.chunks[i/chunkLen][i%chunkLen] }

// window is a contiguous run of operations [from, to) and its wall time.
type window struct {
	from, to int
	dur      time.Duration
}

func (w window) rate() float64 { return float64(w.to-w.from) / w.dur.Seconds() }

// recorder collects one phase's operations, cut into wall-clock windows of
// width win when win > 0.
type recorder struct {
	win       time.Duration
	start     time.Time
	end       time.Time
	lat       samples
	attempted int64
	failed    int64
	failMsgs  []string
	winFrom   int
	winAt     time.Time
	windows   []window
}

func newRecorder(win time.Duration) *recorder { return &recorder{win: win} }

func (r *recorder) begin() {
	r.start = time.Now()
	r.winAt = r.start
	r.winFrom = r.lat.n
}

// add records one finished operation observed at now.
func (r *recorder) add(now time.Time, lat time.Duration, ok, slow bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
	ns := int64(lat)
	if ns >= slowBit {
		ns = slowBit - 1
	}
	if ns < 0 {
		ns = 0
	}
	v := uint32(ns)
	if slow {
		v |= slowBit
	}
	r.lat.add(v)
	if d := now.Sub(r.winAt); r.win > 0 && d >= r.win {
		r.windows = append(r.windows, window{r.winFrom, r.lat.n, d})
		r.winFrom, r.winAt = r.lat.n, now
	}
}

// fail keeps the first few failure descriptions for the metadata line.
func (r *recorder) fail(format string, args ...interface{}) {
	if len(r.failMsgs) < 8 {
		r.failMsgs = append(r.failMsgs, fmt.Sprintf(format, args...))
	}
}

func (r *recorder) failures() []string { return r.failMsgs }

// done reports whether the phase has reached its limit.
func (r *recorder) done(now time.Time, lim limit) bool {
	if lim.ops > 0 {
		return r.attempted >= lim.ops
	}
	return now.Sub(r.start).Seconds() >= lim.seconds
}

// finish closes the phase; a trailing partial window is dropped unless it
// is the only one.
func (r *recorder) finish() {
	r.end = time.Now()
	if r.win > 0 && len(r.windows) == 0 && r.lat.n > r.winFrom {
		r.windows = append(r.windows, window{r.winFrom, r.lat.n, r.end.Sub(r.winAt)})
	}
}

// opsPerSec is the median window's rate on a windowed phase, else the
// whole phase's.
func (r *recorder) opsPerSec() float64 {
	if len(r.windows) > 0 {
		return median(r.windowRates())
	}
	return r.wholeOpsPerSec()
}

func (r *recorder) wholeOpsPerSec() float64 {
	d := r.end.Sub(r.start)
	if d <= 0 {
		return 0
	}
	return float64(r.attempted) / d.Seconds()
}

type latencySummary struct {
	n, slowN       int
	p50, p99, p999 float64
	slowP50        float64
}

// summarize computes the latency quantiles over every operation.
func (r *recorder) summarize() latencySummary {
	all := make([]uint32, 0, r.lat.n)
	var slow []uint32
	for i := 0; i < r.lat.n; i++ {
		v := r.lat.at(i)
		all = append(all, v&^slowBit)
		if v&slowBit != 0 {
			slow = append(slow, v&^slowBit)
		}
	}
	slices.Sort(all)
	slices.Sort(slow)
	return latencySummary{
		n: len(all), slowN: len(slow),
		p50: quantileUS(all, 0.50), p99: quantileUS(all, 0.99), p999: quantileUS(all, 0.999),
		slowP50: quantileUS(slow, 0.50),
	}
}

// windowRates lists every window's throughput.
func (r *recorder) windowRates() []float64 {
	out := make([]float64, len(r.windows))
	for i, w := range r.windows {
		out[i] = w.rate()
	}
	return out
}

// release drops the latency samples so heap_mb measures the system, not
// the benchmark's own sample store.
func (r *recorder) release() { r.lat = samples{} }

// quantileUS is the nearest-rank q-quantile of sorted nanosecond samples,
// in microseconds.
func quantileUS(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e3
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// durQuantileUS is the nearest-rank quantile of nanosecond durations, in
// microseconds.
func durQuantileUS(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / 1e3
}
