package main

import (
	"math"
	"time"
)

// Host-speed calibration.
//
// The reference host (2 vCPUs on a shared machine) runs the same
// single-threaded code at speeds up to 2× apart, and the speed changes both
// within a second and between states that last minutes: a one-worker
// decomposition takes 1.7–1.9× longer in the slow state than in the fast
// one. Raw wall times of runs made in different states differ by more than
// any useful bound, so the end-to-end times are scaled by the host's speed
// measured in the same run by two fixed kernels that belong to the
// benchmark, so that no change to the program moves them: a
// multiply-accumulate loop on operands that live in cache, and a pass over
// a buffer larger than the last-level cache. The first slows more than a
// decomposition between the states and the second less; their geometric
// mean slows about as much (README.md, "Host speed"). Before every timed
// one-worker decomposition and every set-up the two kernels are timed
// alternately for a short burst, and a time is reported as
//
//	wall time × calibRef / host time
//
// where host time is the geometric mean of the two kernels' mean times over
// the run. Means, not medians: a decomposition's wall time adds up every
// slow and fast moment of its run, and so does a mean. Many short bursts
// spread over the run, because the speed changes within a second. The raw
// wall times, the scale and the kernel means are per-layer metrics
// (bench.wall_*, bench.host_scale, bench.calib_*_ms).
const (
	calibRef   = 16 * time.Millisecond // host time in the reference host's fast state
	calibBurst = 200 * time.Millisecond
)

var calibSink float64 // keeps the kernels' results live

// hostScale holds the kernels' operands and the samples of one run.
type hostScale struct {
	a, b, c []float64 // compute kernel operands
	stream  []float64 // memory kernel buffer
	compute []float64 // compute kernel times, s
	memory  []float64 // memory kernel times, s
}

func newHostScale() *hostScale {
	const m, k, n = 512, 256, 16
	h := &hostScale{
		a: make([]float64, m*k), b: make([]float64, k*n), c: make([]float64, m*n),
		stream: make([]float64, 4<<20), // 32 MiB
	}
	for i := range h.a {
		h.a[i] = float64(i%7) * 0.125
	}
	for i := range h.b {
		h.b[i] = float64(i%5) * 0.25
	}
	for i := range h.stream { // fault the pages in before the first timing
		h.stream[i] = 1
	}
	return h
}

// computeKernel is a 512×256 by 256×16 dense product in i-k-j order,
// repeated: the streaming multiply-accumulate shape of the decomposition's
// slice kernels, with a 1 MiB operand that does not fit in the first two
// cache levels.
func (h *hostScale) computeKernel() time.Duration {
	const m, k, n, passes = 512, 256, 16, 12
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for i := 0; i < m; i++ {
			ci := h.c[i*n : (i+1)*n]
			for kk, av := range h.a[i*k : (i+1)*k] {
				for j, bv := range h.b[kk*n : (kk+1)*n] {
					ci[j] += av * bv
				}
			}
		}
	}
	el := time.Since(t0)
	calibSink = h.c[len(h.c)-1]
	return el
}

// memoryKernel reads and writes the 32 MiB buffer twice: the tensor-sized
// streaming the decomposition does when it slices and reconstructs.
func (h *hostScale) memoryKernel() time.Duration {
	t0 := time.Now()
	var s float64
	for p := 0; p < 2; p++ {
		for i := range h.stream {
			h.stream[i] += 1
			s += h.stream[i]
		}
	}
	el := time.Since(t0)
	calibSink = s
	return el
}

// burst times the two kernels alternately for d, at least once each, on
// the calling goroutine.
func (h *hostScale) burst(d time.Duration) {
	t0 := time.Now()
	for n := 0; n == 0 || time.Since(t0) < d; n++ {
		h.compute = append(h.compute, h.computeKernel().Seconds())
		h.memory = append(h.memory, h.memoryKernel().Seconds())
	}
}

// hostTime is the geometric mean of the kernels' mean times, in seconds.
func (h *hostScale) hostTime() float64 { return math.Sqrt(mean(h.compute) * mean(h.memory)) }

// factor is the scale applied to the run's wall times.
func (h *hostScale) factor() float64 {
	return calibRef.Seconds() / h.hostTime()
}

// scaleTimes sets the timed metrics from the raw samples of setup_s,
// decompose_s (workers=nproc) and decompose_1w_s (workers=1): each median
// wall time goes to bench.wall_<name> and, scaled to the reference host, to
// setup_s, core.decompose_s and decompose_1w_s. The calibration samples
// join the run's samples.
func (r *result) scaleTimes(h *hostScale) {
	f := h.factor()
	for name, scaled := range map[string]string{
		"setup_s": "setup_s", "decompose_s": "core.decompose_s", "decompose_1w_s": "decompose_1w_s",
	} {
		wall := median(r.samples[name])
		r.metrics["bench.wall_"+name] = wall
		r.metrics[scaled] = wall * f
	}
	r.metrics["bench.host_scale"] = f
	r.metrics["bench.calib_compute_ms"] = mean(h.compute) * 1e3
	r.metrics["bench.calib_memory_ms"] = mean(h.memory) * 1e3
	r.samples["calib_compute_s"] = h.compute
	r.samples["calib_memory_s"] = h.memory
}
