// Command loadgen drives an open-loop mixed workload against a dtuckerd
// daemon and writes a schema-versioned load report (LOAD_<UTC-date>.json)
// with goodput, shed rate, and exact end-to-end latency quantiles, overall
// and broken down by operation and tenant. cmd/benchreport -compare diffs
// two load reports the same way it diffs benchmark trajectories.
//
// Drive a running daemon:
//
//	loadgen -url http://127.0.0.1:7171 -duration 30s -qps 12 \
//	        -mix decompose=0.6,range=0.3,append=0.1 -tenants prod=3,adhoc=1
//
// Or measure hermetically against an in-process daemon (-self), the form
// `make load` uses:
//
//	loadgen -self -self-runners 2 -self-queue 16 -duration 10s -qps 8
//
// Exit codes: 0 success, 1 runtime error, 2 usage.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/loadgen"
	"repro/internal/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		url      = flag.String("url", "http://127.0.0.1:7171", "dtuckerd base URL")
		duration = flag.Duration("duration", 10*time.Second, "arrival window")
		qps      = flag.Float64("qps", 8, "target offered arrival rate")
		arrival  = flag.String("arrival", "poisson", "inter-arrival distribution: poisson or uniform")
		seed     = flag.Int64("seed", 1, "schedule seed (same seed = identical offered sequence)")
		mixArg   = flag.String("mix", "", "operation mix, e.g. decompose=0.6,range=0.3,append=0.1")
		tenArg   = flag.String("tenants", "", "offered tenants as name=weight[:priority],... (e.g. prod=3:interactive,adhoc=1)")
		variants = flag.Int("variants", 3, "distinct tensors per size class (smaller = more duplicates)")
		inflight = flag.Int("max-inflight", 256, "client-side cap on outstanding operations")
		out      = flag.String("out", "", "report path (default LOAD_<UTC-date>.json)")
		quiet    = flag.Bool("quiet", false, "suppress progress lines")

		rangeChunks  = flag.Int("range-chunks", 0, "chunks in the frozen range-query stream (0 = default 3); longer streams let the server's range index stitch")
		rangeWindows = flag.Int("range-windows", 0, "distinct overlapping range windows to draw (0 = the legacy fixed four)")

		self           = flag.Bool("self", false, "spin up an in-process dtuckerd and load it (hermetic)")
		selfQueue      = flag.Int("self-queue", 16, "with -self: job queue depth")
		selfRunners    = flag.Int("self-runners", 2, "with -self: concurrent job runners")
		selfWorkers    = flag.Int("self-workers", 0, "with -self: worker-pool size (0 = all CPUs)")
		selfQuota      = flag.Int("self-quota", 0, "with -self: per-tenant outstanding quota (0 = unlimited)")
		selfWeights    = flag.String("self-weights", "", "with -self: server WFQ weights, name=weight,...")
		selfRangeBlock = flag.Int("self-range-block", 0, "with -self: range-index block size in time steps (0 = default 8)")
		selfStitchSpan = flag.Int("self-range-stitch-span", 0, "with -self: minimum window span to stitch; shorter windows solve directly (0 = 2×block; a span longer than every window measures the direct-solve baseline)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "loadgen: ", log.LstdFlags)
	logf := logger.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	spec := loadgen.Spec{
		BaseURL:      *url,
		Duration:     *duration,
		QPS:          *qps,
		Arrival:      *arrival,
		Seed:         *seed,
		Variants:     *variants,
		MaxInFlight:  *inflight,
		RangeChunks:  *rangeChunks,
		RangeWindows: *rangeWindows,
		Logf:         logf,
	}
	var err error
	if spec.Mix, err = parseMix(*mixArg); err != nil {
		logger.Printf("-mix: %v", err)
		return 2
	}
	if spec.Tenants, err = parseTenants(*tenArg); err != nil {
		logger.Printf("-tenants: %v", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *self {
		weights, err := parseWeights(*selfWeights)
		if err != nil {
			logger.Printf("-self-weights: %v", err)
			return 2
		}
		srv, err := server.New(server.Config{
			QueueDepth:         *selfQueue,
			Runners:            *selfRunners,
			Workers:            *selfWorkers,
			TenantQuota:        *selfQuota,
			TenantWeights:      weights,
			RangeBlockSize:     *selfRangeBlock,
			RangeMinStitchSpan: *selfStitchSpan,
		})
		if err != nil {
			logger.Printf("server: %v", err)
			return 1
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			logger.Printf("listen: %v", err)
			return 1
		}
		// The self-served daemon gets the same server-side timeouts as the
		// real binary, so hermetic load runs exercise the production config.
		hs := &http.Server{
			Handler:           srv.Handler(),
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       2 * time.Minute,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		go hs.Serve(ln)
		defer func() {
			drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Drain(drainCtx)
			hs.Close()
		}()
		spec.BaseURL = "http://" + ln.Addr().String()
		logf("self-serving on %s (queue %d, runners %d, quota %d)",
			spec.BaseURL, *selfQueue, *selfRunners, *selfQuota)
	}

	rep, err := loadgen.Run(ctx, spec)
	if err != nil {
		logger.Printf("%v", err)
		return 1
	}

	path := *out
	if path == "" {
		path = "LOAD_" + time.Now().UTC().Format("2006-01-02") + ".json"
	}
	if err := loadgen.Save(path, *rep); err != nil {
		logger.Printf("%v", err)
		return 1
	}
	fmt.Printf("wrote %s: offered %d, goodput %.2f qps, shed %.1f%%, p50 %.0fms p95 %.0fms p99 %.0fms\n",
		path, rep.Totals.Offered, rep.GoodputQPS, rep.ShedRate*100,
		rep.Totals.Latency.P50Ms, rep.Totals.Latency.P95Ms, rep.Totals.Latency.P99Ms)
	// The slowest request IDs bridge a bad quantile to the daemon's
	// structured log: grep the event log (or /debugz/requests) for them.
	for _, ex := range rep.Totals.Slowest {
		fmt.Printf("slowest: %s %.0fms\n", ex.RequestID, ex.LatencyMs)
	}
	return 0
}

// parseMix parses "decompose=0.6,range=0.3" into an operation-weight map;
// empty input means the loadgen default mix.
func parseMix(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	mix := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("entry %q is not op=weight", part)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("entry %q needs a non-negative weight", part)
		}
		mix[name] = w
	}
	return mix, nil
}

// parseTenants parses "prod=3:interactive,adhoc=1" into tenant specs;
// empty input means the loadgen default single tenant.
func parseTenants(s string) ([]loadgen.TenantSpec, error) {
	if s == "" {
		return nil, nil
	}
	var tenants []loadgen.TenantSpec
	for _, part := range strings.Split(s, ",") {
		name, rest, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("entry %q is not name=weight[:priority]", part)
		}
		val, prio, _ := strings.Cut(rest, ":")
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("entry %q needs a positive weight", part)
		}
		if prio != "" && prio != "interactive" && prio != "batch" {
			return nil, fmt.Errorf("entry %q has unknown priority %q", part, prio)
		}
		tenants = append(tenants, loadgen.TenantSpec{Name: name, Weight: w, Priority: prio})
	}
	return tenants, nil
}

// parseWeights parses "a=4,b=1" into the server's integer WFQ weight map.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	weights := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("entry %q is not name=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("entry %q needs a positive integer weight", part)
		}
		weights[name] = w
	}
	return weights, nil
}
