// Command dtucker decomposes a dense tensor stored in .ten format with
// D-Tucker and reports timing, fit, and (optionally) the exact
// reconstruction error; factor matrices and the core can be written out as
// .ten files for downstream analysis.
//
// Usage:
//
//	dtucker -in x.ten -ranks 10,10,10 [-out prefix] [-tol 1e-4]
//	        [-maxiters 100] [-slicerank 0] [-workers 1]
//	        [-seed 0] [-exact-error] [-timeout 0]
//	        [-kernel randsvd|exact|gram|auto] [-kernel-profile profile.json]
//	        [-metrics] [-metrics-json file] [-trace] [-debug-addr host:port]
//	        [-trace-out spans.json] [-trace-format chrome|jsonl]
//	        [-method d-tucker|tucker-als|hosvd|mach|rtd|tucker-ts|tucker-ttmts]
//	dtucker -autotune profile.json [-autotune-quick]
//
// With -method other than d-tucker the same tensor is decomposed by the
// selected baseline, making the binary a one-stop comparison tool.
//
// Kernel selection: -kernel picks the slice-compression kernel of the
// approximation phase; "auto" chooses per slice from the cost model in the
// -kernel-profile file (or built-in defaults). -autotune calibrates that
// cost model and the blocked-matmul tile sizes on this machine with a
// one-time micro-benchmark and writes the versioned profile JSON; selection
// at decompose time is a pure function of shape, rank, and profile, so
// results stay deterministic. See the README's "Kernel selection" section.
//
// Cancellation: Ctrl-C (SIGINT), SIGTERM, or an expired -timeout stop a
// d-tucker run cooperatively at the next slice or sweep boundary, with all
// worker goroutines joined. An interrupted run prints the phase it was in
// and exits with code 3 (0 success, 1 error, 2 usage). Baseline methods have
// no cancellation hooks and run to completion.
//
// Observability: -metrics prints a per-phase table (wall time, SVD/QR/matmul
// counts, flop estimate, latency quantiles, allocation); -metrics-json dumps
// the same report plus the fit trajectory as JSON; -trace streams phase
// transitions and per-sweep fits to stderr as they happen; -trace-out records
// a hierarchical span trace of the whole run (decompose → phases → sweeps →
// per-slice worker spans) as a Perfetto-loadable Chrome trace or JSONL;
// -debug-addr serves live net/http/pprof profiles and expvar counters for
// long runs. See the README's "Observability" section.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dterr"
	"repro/internal/kernelsel"
	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// exitInterrupted is the exit code of a run stopped by SIGINT/SIGTERM or
// -timeout, distinct from usage errors (2) and other failures (1).
const exitInterrupted = 3

func main() {
	var (
		in         = flag.String("in", "", "input tensor in .ten format (required)")
		ranksArg   = flag.String("ranks", "", "comma-separated target ranks, one per mode (required)")
		out        = flag.String("out", "", "output prefix; writes <prefix>.core.ten and <prefix>.factor<n>.ten")
		tol        = flag.Float64("tol", 1e-4, "convergence tolerance on fit change")
		maxIters   = flag.Int("maxiters", 100, "maximum ALS sweeps")
		sliceRank  = flag.Int("slicerank", 0, "slice SVD rank (0 = max of the two leading ranks)")
		workers    = flag.Int("workers", 1, "size of the per-decomposition worker pool (parallelizes all three phases; results are bit-identical for any value)")
		seed       = flag.Int64("seed", 0, "random seed for the sketches")
		exactError = flag.Bool("exact-error", false, "also compute the exact relative error (extra pass over the tensor)")
		timeout    = flag.Duration("timeout", 0, "abort the decomposition after this duration (0 = no limit); exits with code 3 like Ctrl-C")
		method     = flag.String("method", bench.DTucker, "method: "+strings.Join(bench.Methods, ", "))

		kernel        = flag.String("kernel", "", "slice-compression kernel: randsvd (default), exact, gram, or auto (per-slice cost-model selection)")
		kernelProfile = flag.String("kernel-profile", "", "calibrated kernelsel profile JSON (from -autotune); drives -kernel auto and the matmul block sizes")
		autotune      = flag.String("autotune", "", "calibrate the kernel cost model and matmul block sizes, write the profile JSON to this path, and exit")
		autotuneQuick = flag.Bool("autotune-quick", false, "with -autotune: calibrate on toy sizes (fast smoke profile, not representative)")

		showMetrics = flag.Bool("metrics", false, "print a per-phase metrics table (wall time, SVD/flop counts, allocation)")
		metricsJSON = flag.String("metrics-json", "", "write the metrics report (phases + fit trajectory) as JSON to this file (\"-\" for stdout)")
		traceFlag   = flag.Bool("trace", false, "stream progress (phase transitions, per-sweep fits) to stderr")
		traceOut    = flag.String("trace-out", "", "write a span trace of the run (phases, sweeps, per-slice worker lanes) to this file")
		traceFormat = flag.String("trace-format", "chrome", "span trace encoding: chrome (Perfetto / chrome://tracing) or jsonl (one span per line)")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060) for live profiling")
	)
	flag.Parse()
	if *autotune != "" {
		p, err := kernelsel.Calibrate(kernelsel.CalibrateOptions{
			Quick: *autotuneQuick,
			Logf:  func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
		})
		if err != nil {
			fatal(err)
		}
		if err := kernelsel.Save(*autotune, p); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote kernel profile %s (fingerprint %s, blocks %d×%d)\n",
			*autotune, p.Fingerprint(), p.BlockK, p.BlockN)
		return
	}
	if *in == "" || *ranksArg == "" {
		flag.Usage()
		os.Exit(2)
	}
	var profile *kernelsel.Profile
	if *kernelProfile != "" {
		var err error
		profile, err = kernelsel.Load(*kernelProfile)
		if err != nil {
			fatal(err)
		}
		profile.Apply() // install the autotuned matmul block sizes
	}
	ranks, err := parseRanks(*ranksArg)
	if err != nil {
		fatal(err)
	}
	if *debugAddr != "" {
		startDebugServer(*debugAddr)
	}
	var col *metrics.Collector
	if *showMetrics || *metricsJSON != "" || *traceFlag || *traceOut != "" || *debugAddr != "" {
		col = metrics.New()
	}
	if *traceFlag {
		// The collector stamps each message with a monotonic timestamp
		// before it reaches the sink; print it as-is.
		col.SetTrace(func(msg string) {
			fmt.Fprintln(os.Stderr, msg)
		})
	}
	// Fail fast on an unwritable span-trace destination: create the file
	// before spending minutes decomposing.
	var (
		traceFile *os.File
		traceFmt  trace.Format
	)
	if *traceOut != "" {
		traceFmt, err = trace.ParseFormat(*traceFormat)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtucker:", err)
			os.Exit(2)
		}
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			fatal(fmt.Errorf("creating span trace file: %w", err))
		}
		col.SetTracer(trace.New())
	}

	x, err := tensor.LoadFile(*in)
	if err != nil {
		fatal(err)
	}
	if len(ranks) != x.Order() {
		fatal(fmt.Errorf("%d ranks for an order-%d tensor", len(ranks), x.Order()))
	}
	fmt.Printf("loaded %s: shape %v (%.2f MF)\n", *in, x.Shape(), float64(x.Len())/1e6)

	// Ctrl-C / SIGTERM (and -timeout, when set) cancel the decomposition
	// cooperatively through Options.Context.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var runErr error
	if *method != bench.DTucker {
		if traceFile != nil {
			fmt.Fprintln(os.Stderr, "dtucker: note: -trace-out records d-tucker spans only; baseline methods are not traced")
		}
		runBaseline(x, *method, ranks, *tol, *maxIters, *seed, col != nil)
	} else {
		runErr = runDTucker(ctx, x, ranks, col, *sliceRank, *tol, *maxIters, *workers, *seed, *kernel, profile, *exactError, *out)
	}

	// Export the span trace even when the run failed or was interrupted —
	// a trace of the unwind is exactly what a post-mortem needs.
	if traceFile != nil {
		if err := exportTrace(col, traceFmt, traceFile, *traceOut); err != nil && runErr == nil {
			runErr = err
		}
	}
	if runErr != nil {
		fatal(runErr)
	}

	// The per-phase breakdown only exists for D-Tucker itself; baselines
	// report their aggregate kernel counters on the line printed above.
	if *method == bench.DTucker {
		if *showMetrics {
			fmt.Printf("\nper-phase metrics:\n%s", col.Table())
		}
		if *metricsJSON != "" {
			if err := writeMetricsJSON(col, *metricsJSON); err != nil {
				fatal(err)
			}
		}
	} else if *showMetrics || *metricsJSON != "" {
		fmt.Fprintln(os.Stderr, "dtucker: note: per-phase table/JSON applies to -method d-tucker only; kernel totals are shown above")
	}
}

func runDTucker(ctx context.Context, x *tensor.Dense, ranks []int, col *metrics.Collector, sliceRank int, tol float64, maxIters, workers int, seed int64, kernel string, profile *kernelsel.Profile, exactError bool, out string) error {
	dec, err := core.Decompose(x, core.Options{
		Config: core.Config{
			Ranks:       ranks,
			SliceRank:   sliceRank,
			Tol:         tol,
			MaxIters:    maxIters,
			Seed:        seed,
			SliceKernel: kernel,
		},
		Context: ctx,
		Workers: workers,
		Metrics: col,
		Profile: profile,
	})
	if err != nil {
		return err
	}
	s := dec.Stats
	conv := "converged"
	if !dec.Converged {
		conv = "tolerance NOT reached"
	}
	fmt.Printf("d-tucker: approximation %v, initialization %v, iteration %v (%d sweeps, %s), total %v\n",
		s.ApproxTime.Round(time.Millisecond), s.InitTime.Round(time.Millisecond),
		s.IterTime.Round(time.Millisecond), s.Iters, conv, s.Total().Round(time.Millisecond))
	fmt.Printf("fit estimate %.6f, model size %.1f kF\n", dec.Fit, float64(dec.StorageFloats())/1e3)
	if exactError {
		fmt.Printf("exact relative error %.6f\n", dec.RelError(x))
	}
	if out != "" {
		if err := saveModel(dec, out); err != nil {
			return err
		}
		fmt.Printf("wrote %s.core.ten and %d factor files\n", out, len(dec.Factors))
	}
	return nil
}

// exportTrace writes the collector's recorded spans to the already-open
// destination file and closes it.
func exportTrace(col *metrics.Collector, f trace.Format, file *os.File, path string) error {
	tr := col.Tracer()
	if err := tr.Export(file, f); err != nil {
		file.Close()
		return fmt.Errorf("writing span trace: %w", err)
	}
	if err := file.Close(); err != nil {
		return fmt.Errorf("writing span trace: %w", err)
	}
	fmt.Printf("wrote span trace (%d spans, %s) to %s\n", tr.Len(), f, path)
	return nil
}

func runBaseline(x *tensor.Dense, method string, ranks []int, tol float64, maxIters int, seed int64, collect bool) {
	spec := bench.Spec{
		Dataset:  workload.Dataset{Name: "input", X: x},
		Ranks:    ranks,
		Seed:     seed,
		Tol:      tol,
		MaxIters: maxIters,
		Metrics:  collect,
	}
	r, err := bench.Run(method, spec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: prep %v, solve %v, total %v, rel.err %.6f, %d iters\n",
		r.Method, r.Prep.Round(time.Millisecond), r.Solve.Round(time.Millisecond),
		r.Total().Round(time.Millisecond), r.RelErr, r.Iters)
	if collect {
		fmt.Printf("%s kernels: %d SVD, %d randomized SVD, %d QR, %.3g flops\n",
			r.Method, r.SVDCalls, r.RandSVDCalls, r.QRCalls, float64(r.Flops))
	}
}

// startDebugServer exposes /debug/pprof/ (imported net/http/pprof handlers)
// and /debug/vars (expvar, including the live dtucker_metrics counters) on
// addr for profiling long-running decompositions.
func startDebugServer(addr string) {
	metrics.PublishExpvar()
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "dtucker: debug server: %v\n", err)
		}
	}()
	fmt.Printf("debug server on http://%s (/debug/pprof/, /debug/vars)\n", addr)
}

// writeMetricsJSON dumps the collector's report as indented JSON to path
// ("-" writes to stdout).
func writeMetricsJSON(col *metrics.Collector, path string) error {
	b, err := json.MarshalIndent(col.Report(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote metrics report to %s\n", path)
	return nil
}

func saveModel(dec *core.Decomposition, prefix string) error {
	if err := dec.Core.SaveFile(prefix + ".core.ten"); err != nil {
		return err
	}
	for n, f := range dec.Factors {
		ft := tensor.New(f.Rows(), f.Cols())
		for i := 0; i < f.Rows(); i++ {
			for j := 0; j < f.Cols(); j++ {
				ft.Set(f.At(i, j), i, j)
			}
		}
		if err := ft.SaveFile(fmt.Sprintf("%s.factor%d.ten", prefix, n)); err != nil {
			return err
		}
	}
	return nil
}

func parseRanks(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	ranks := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("parsing rank %q: %w", p, err)
		}
		ranks[i] = v
	}
	return ranks, nil
}

func fatal(err error) {
	var c *dterr.CancelledError
	if errors.As(err, &c) {
		fmt.Fprintf(os.Stderr, "dtucker: interrupted during %s phase: %v\n", c.Phase, c.Err)
		os.Exit(exitInterrupted)
	}
	fmt.Fprintf(os.Stderr, "dtucker: %v\n", err)
	os.Exit(1)
}
