// Command dtuckerd serves D-Tucker decompositions over HTTP.
//
// It wraps the library in a job API with admission control and a result
// cache: clients POST a serializable config plus tensor payload to
// /v1/decompose, poll /v1/jobs/{id}, and fetch the result as .dtd binary or
// JSON. Streaming sessions live under /v1/streams. When the bounded queue
// is full the daemon answers 429 with Retry-After instead of queueing
// unboundedly; /healthz reports liveness and /metricz exports counters and
// latency histograms (JSON by default, Prometheus text with
// ?format=prometheus).
//
// Observability: the daemon logs structured events (one line per admission
// decision and job lifecycle transition) to stderr, as logfmt-style text by
// default or JSONL with -log-format=json; -log-level sets the floor.
// Every request carries an X-Request-ID (client-sent or minted) that
// threads through events, job records, and traces. /debugz/requests serves
// the flight recorder — the last requests plus pinned slowest/error
// exemplars — and SIGQUIT dumps it to the event log. See docs/OPERATIONS.md
// ("Request observability").
//
// On SIGTERM or SIGINT the daemon drains gracefully: it stops admitting
// work, finishes (or after -drain-timeout cancels) in-flight jobs, flushes
// final statistics to the log, and exits 0.
//
// Multi-tenant admission: submissions carry an X-Tenant header (default
// "default") and an optional X-Priority header ("interactive" or "batch").
// -tenant-quota bounds each tenant's outstanding jobs, -tenant-weights
// assigns weighted-fair queueing shares, and identical in-flight
// submissions coalesce onto one execution unless -coalesce=false. See
// docs/OPERATIONS.md for the full operator guide.
//
// Kernel selection: -kernel-profile loads a calibrated cost-model profile
// (see `dtucker -autotune`) so requests with slice_kernel "auto" pick the
// cheapest SVD kernel per slice; -autotune calibrates one at startup
// instead. Results for auto requests are cached under the profile's
// fingerprint, so a profile change never serves stale entries.
//
// Range queries: GET /v1/streams/{id}/range?t0=&t1= answers any time
// window of a streaming session. Each session keeps a segment-tree range
// index over its preprocessed slice blocks, so overlapping windows are
// stitched from O(log T) cached node summaries instead of re-solved from
// scratch; windows below the stitch threshold solve directly, and each
// answered window is cached for the life of its session (appends never
// change it). The -range-* flags tune the index. See docs/OPERATIONS.md
// ("Range queries").
//
// Durability: -data-dir enables the crash-safe job journal. Accepted
// decompose jobs are journaled before the 202 is written, checkpointed
// every -checkpoint-every ALS sweeps, and re-enqueued (resuming from
// their last checkpoint) when the daemon restarts after a crash. See
// docs/OPERATIONS.md ("Durability & recovery").
//
// Fault injection: the DTUCKERD_FAULTS environment variable arms crash
// sites in the durability path (see internal/faults.ActivateSpec); an
// injected exit terminates the process with status 7. Test-only.
//
// Usage:
//
//	dtuckerd [-addr :7171] [-queue 16] [-runners 1] [-workers N]
//	         [-cache 64] [-drain-timeout 30s] [-quiet]
//	         [-log-format text|json] [-log-level info] [-flight-recorder 256]
//	         [-tenant-quota 0] [-tenant-weights a=4,b=1]
//	         [-tenant-weight-default 1] [-coalesce=true]
//	         [-kernel-profile prof.json] [-autotune]
//	         [-range-block 8] [-range-rank 0] [-range-stitch-span 0]
//	         [-range-min-fit 0]
//	         [-data-dir /var/lib/dtuckerd] [-checkpoint-every 1]
//	         [-read-header-timeout 10s] [-idle-timeout 2m]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/kernelsel"
	"repro/internal/obs"
	"repro/internal/server"
)

// parseTenantWeights parses "a=4,b=1" into a weight map. Empty input is an
// empty map; malformed entries and non-positive weights are errors.
func parseTenantWeights(s string) (map[string]int, error) {
	weights := make(map[string]int)
	if s == "" {
		return weights, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("entry %q is not name=weight", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("entry %q needs a positive integer weight", part)
		}
		weights[strings.TrimSpace(name)] = w
	}
	return weights, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr         = flag.String("addr", ":7171", "listen address (host:port; port 0 picks one)")
		queue        = flag.Int("queue", 16, "job queue depth; beyond it submissions get 429")
		runners      = flag.Int("runners", 1, "jobs executing concurrently")
		workers      = flag.Int("workers", 0, "shared worker-pool size (0 = all CPUs)")
		cache        = flag.Int("cache", 64, "result-cache entries (negative disables)")
		retryAfter   = flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight jobs before cancelling them")
		quiet        = flag.Bool("quiet", false, "suppress per-job log lines (raises the log level to warn)")

		logFormat = flag.String("log-format", obs.FormatText, "structured-log format: text (logfmt-style) or json (JSONL)")
		logLevel  = flag.String("log-level", "info", "log level floor: debug, info, warn, or error")
		flightRec = flag.Int("flight-recorder", 256, "flight-recorder ring size at /debugz/requests (0 = default, negative disables)")

		tenantQuota   = flag.Int("tenant-quota", 0, "max outstanding jobs per tenant (0 = unlimited)")
		tenantWeights = flag.String("tenant-weights", "", "per-tenant WFQ weights as name=weight,... (e.g. prod=4,adhoc=1)")
		defaultWeight = flag.Int("tenant-weight-default", 1, "WFQ weight for tenants not listed in -tenant-weights")
		coalesce      = flag.Bool("coalesce", true, "coalesce identical in-flight submissions onto one execution")

		kernelProfile = flag.String("kernel-profile", "", "calibrated kernelsel profile JSON; requests with slice_kernel \"auto\" select against it, and it sets the matmul block sizes")
		autotune      = flag.Bool("autotune", false, "calibrate a kernel profile at startup instead of loading one; with -kernel-profile, also write it there")

		dataDir         = flag.String("data-dir", "", "directory for the durable job journal and checkpoints (empty = ephemeral)")
		checkpointEvery = flag.Int("checkpoint-every", 1, "checkpoint durable jobs every N ALS sweeps (1 = every sweep)")

		rangeBlock      = flag.Int("range-block", 0, "range-index block size in time steps (0 = default 8)")
		rangeRank       = flag.Int("range-rank", 0, "columns kept per range-index node summary (0 = auto from the request's ranks)")
		rangeStitchSpan = flag.Int("range-stitch-span", 0, "minimum window span to stitch; shorter windows solve directly (0 = 2×block, negative = always stitch)")
		rangeMinFit     = flag.Float64("range-min-fit", 0, "minimum acceptable fit of a stitched result; below it the query falls back to a direct solve (0 = accept any)")

		readHeaderTimeout = flag.Duration("read-header-timeout", 10*time.Second, "http.Server.ReadHeaderTimeout: limit on reading request headers (slowloris guard)")
		readTimeout       = flag.Duration("read-timeout", 2*time.Minute, "http.Server.ReadTimeout: limit on reading a full request including the tensor body (0 = unlimited)")
		writeTimeout      = flag.Duration("write-timeout", 2*time.Minute, "http.Server.WriteTimeout: limit on writing a full response including the result payload (0 = unlimited)")
		idleTimeout       = flag.Duration("idle-timeout", 2*time.Minute, "http.Server.IdleTimeout: how long keep-alive connections may sit idle")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtuckerd: -log-level: %v\n", err)
		return 2
	}
	if *quiet && level < slog.LevelWarn {
		level = slog.LevelWarn
	}
	lg, err := obs.New(os.Stderr, *logFormat, level)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtuckerd: -log-format: %v\n", err)
		return 2
	}
	logf := lg.Infof

	// Crash-injection arming for the e2e harness; no-op when unset.
	if spec := os.Getenv("DTUCKERD_FAULTS"); spec != "" {
		if err := faults.ActivateSpec(spec); err != nil {
			lg.Errorf("DTUCKERD_FAULTS: %v", err)
			return 2
		}
	}

	weights, err := parseTenantWeights(*tenantWeights)
	if err != nil {
		lg.Errorf("-tenant-weights: %v", err)
		return 2
	}

	var profile *kernelsel.Profile
	switch {
	case *autotune:
		profile, err = kernelsel.Calibrate(kernelsel.CalibrateOptions{Logf: logf})
		if err != nil {
			lg.Errorf("-autotune: %v", err)
			return 1
		}
		if *kernelProfile != "" {
			if err := kernelsel.Save(*kernelProfile, profile); err != nil {
				lg.Errorf("-autotune: %v", err)
				return 1
			}
			logf("wrote kernel profile %s", *kernelProfile)
		}
	case *kernelProfile != "":
		profile, err = kernelsel.Load(*kernelProfile)
		if err != nil {
			lg.Errorf("-kernel-profile: %v", err)
			return 2
		}
	}
	if profile != nil {
		profile.Apply() // install the autotuned matmul block sizes
		logf("kernel profile %s active (blocks %d×%d)", profile.Fingerprint(), profile.BlockK, profile.BlockN)
	}

	srv, err := server.New(server.Config{
		QueueDepth:          *queue,
		Runners:             *runners,
		Workers:             *workers,
		CacheSize:           *cache,
		RetryAfter:          *retryAfter,
		TenantQuota:         *tenantQuota,
		TenantWeights:       weights,
		DefaultTenantWeight: *defaultWeight,
		DisableCoalesce:     !*coalesce,
		KernelProfile:       profile,
		DataDir:             *dataDir,
		CheckpointEvery:     *checkpointEvery,
		RangeBlockSize:      *rangeBlock,
		RangeSummaryRank:    *rangeRank,
		RangeMinStitchSpan:  *rangeStitchSpan,
		RangeMinFit:         *rangeMinFit,
		Logf:                logf,
		Obs:                 lg,
		FlightRecorderSize:  *flightRec,
	})
	if err != nil {
		lg.Errorf("startup: %v", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		lg.Errorf("listen: %v", err)
		return 1
	}
	// Server-side timeouts: without them one stalled client connection can
	// pin a goroutine (and its buffers) forever. ReadHeaderTimeout alone
	// closes the slowloris hole; Read/Write bound full tensor uploads and
	// result downloads and so must cover the largest expected payload.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	// The ready line goes to stdout so scripts (and the e2e test) can wait
	// for it and learn the resolved address when port 0 was requested.
	fmt.Printf("dtuckerd listening on %s\n", ln.Addr())
	os.Stdout.Sync()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	// SIGQUIT is the post-mortem trigger: dump the flight recorder to the
	// event log and keep serving (the Go runtime's stack-dump-and-exit
	// default is traded for this — use SIGABRT for goroutine dumps).
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	go func() {
		for range quitc {
			lg.Warnf("SIGQUIT received, dumping flight recorder")
			srv.FlightRecorder().DumpTo(lg)
		}
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigc:
		lg.Infof("received %v, draining (timeout %v)", sig, *drainTimeout)
	case err := <-serveErr:
		lg.Errorf("serve: %v", err)
		return 1
	}

	// Drain while still serving, so clients can keep polling for results of
	// jobs that are finishing; only then close the listener.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	srv.Drain(drainCtx)

	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		lg.Errorf("shutdown: %v", err)
	}
	<-serveErr // Serve has returned http.ErrServerClosed
	lg.Infof("drained, exiting")
	return 0
}
