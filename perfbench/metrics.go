package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload prints in an untraced run. Each is
// measured by every workload and is never zero; BENCHMARK.json carries the
// same names with their regression bounds. The times are in seconds of the
// reference host (see calib.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"decompose_1w_s", "s"},
	{"alloc_mib", "MiB"},
}

// perLayer are the metrics every workload prints in a traced run. A layer a
// workload does not drive reads 0.
var perLayer = []metricDef{
	// core: one decomposition at workers=nproc (scaled like the end-to-end
	// times), and the phases, timed around the public calls.
	{"core.decompose_s", "s"},
	{"core.approximate_s", "s"},
	{"core.approximate_1w_s", "s"},
	{"core.solve_s", "s"},
	{"core.init_s", "s"},
	{"core.iter_s", "s"},
	{"core.iter_per_sweep_ms", "ms"},
	{"core.iter_speedup", "x"},
	{"core.approx_speedup", "x"},
	{"core.sweeps", "count"},
	{"core.storage_mib", "MiB"},
	{"core.peak_heap_mib", "MiB"},
	// kernel counts of one decomposition, from metrics.Collector.
	{"mat.matmul_calls", "count"},
	{"mat.matmul_gflop", "GFLOP"},
	{"mat.qr_calls", "count"},
	{"mat.svd_calls", "count"},
	{"randsvd.calls", "count"},
	{"randsvd.retries", "count"},
	{"randsvd.fallbacks", "count"},
	{"kernelsel.randsvd", "count"},
	{"kernelsel.exact", "count"},
	{"kernelsel.gram", "count"},
	// kernel replay on the workload's own shapes.
	{"mat.muladd_gflops", "GFLOP/s"},
	{"mat.leading_ms", "ms"},
	{"randsvd.slice_ms", "ms"},
	// serve-mixed: client-observed latency, from scheduled send to result.
	{"client.decompose_p50_ms", "ms"},
	{"client.decompose_p95_ms", "ms"},
	{"client.range_p50_ms", "ms"},
	{"client.range_p95_ms", "ms"},
	{"client.append_p50_ms", "ms"},
	{"client.append_p95_ms", "ms"},
	{"client.polls_per_op", "count"},
	{"client.slo_goodput_ops_s", "ops/s"},
	// serve-mixed: per-request calls into the server.
	{"server.submit_p50_ms", "ms"},
	{"server.submit_p95_ms", "ms"},
	{"server.queue_p50_ms", "ms"},
	{"server.queue_p95_ms", "ms"},
	{"server.run_p50_ms", "ms"},
	{"server.run_p95_ms", "ms"},
	{"server.fetch_p50_ms", "ms"},
	{"server.fetch_p95_ms", "ms"},
	{"server.append_p50_ms", "ms"},
	{"server.append_p95_ms", "ms"},
	{"server.rtt_ms", "ms"},
	// serve-mixed: /metricz deltas over the timed window.
	{"server.cache_hit_frac", "frac"},
	{"server.coalesced_frac", "frac"},
	{"server.shed_frac", "frac"},
	{"rangeidx.stitch_frac", "frac"},
	{"rangeidx.node_builds", "count"},
	{"rangeidx.node_hits", "count"},
	{"rangeidx.query_ms", "ms"},
	{"journal.checkpoints_written", "count"},
	{"journal.checkpoint_failures", "count"},
	{"journal.append_failures", "count"},
	// the harness itself.
	{"bench.error_rate", "frac"},
	{"bench.lag_p95_ms", "ms"},
	{"bench.trace_overhead_frac", "frac"},
	// wall times behind the end-to-end times, and the host-speed scale
	// applied to them.
	{"bench.wall_setup_s", "s"},
	{"bench.wall_decompose_s", "s"},
	{"bench.wall_decompose_1w_s", "s"},
	{"bench.host_scale", "x"},
	{"bench.calib_compute_ms", "ms"},
	{"bench.calib_memory_ms", "ms"},
	// self time per layer: span time not covered by child spans.
	{"bench.self_s", "s"},
	{"client.self_s", "s"},
	{"server.self_s", "s"},
	{"core.self_s", "s"},
	{"mat.self_s", "s"},
	{"randsvd.self_s", "s"},
	{"rangeidx.self_s", "s"},
}

// result is what one workload run produces.
type result struct {
	correct   bool
	attempted int
	failed    int
	notes     []string             // first few correctness failures, for stderr
	samples   map[string][]float64 // the values behind each median or quantile
	metrics   map[string]float64
}

func newResult() *result {
	return &result{correct: true, metrics: map[string]float64{}, samples: map[string][]float64{}}
}

// fail records one failed or incorrect operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.correct = false
	if len(r.notes) < 10 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mib = 1 << 20
