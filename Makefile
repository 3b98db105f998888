GO ?= go

.PHONY: build test verify bench overhead faults crashtest bench-json bench-compare serve load load-compare rangebench autotune obs

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the tier-1 gate: gofmt + vet + build + full test suite, then the
# race detector over EVERY package — the worker pool threads parallelism
# through core, mat, and tensor, so no package is exempt from race checking —
# and the fault-injection suite under -race, since injected failures exercise
# the drain/containment paths that only misbehave under contention.
verify:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race ./...
	$(GO) test -race ./internal/core/ -run 'TestFaultSweep|TestKeyedFaultFallbackBitIdentical|TestCancelMidRun' -count 1
	$(GO) test -race ./internal/trace/ ./internal/metrics/ ./internal/pool/ -count 1
	$(GO) test -race ./internal/core/ -run 'TestDecomposeTraceShape|TestTraceBalanced|TestHistogramCounts' -count 1
	$(GO) test -race ./internal/server/ ./cmd/dtuckerd/ -count 1
	$(GO) test -race ./internal/rangeidx/ -count 1
	$(GO) test -race ./internal/journal/ ./internal/faults/ -count 1
	$(GO) test -race ./internal/kernelsel/ ./internal/mat/ -count 1
	sh scripts/obslint.sh
	$(GO) run ./cmd/dtucker -autotune .autotune-smoke.json -autotune-quick >/dev/null && rm -f .autotune-smoke.json
	$(MAKE) load

# obs is the observability suite under -race: the structured-log schema and
# zero-alloc guarantees, the Prometheus exposition golden/linter pair, the
# end-to-end request-correlation tests, and the loadgen↔event-log smoke —
# plus the handler lint (every response must carry X-Request-ID).
obs:
	sh scripts/obslint.sh
	$(GO) test -race ./internal/obs/ -count 1
	$(GO) test -race ./internal/metrics/ -run 'TestProm|TestLint|TestWritePrometheus' -count 1
	$(GO) test -race ./internal/server/ -run 'TestObs|TestMetricz' -count 1
	$(GO) test -race ./internal/loadgen/ -run 'TestRunCorrelates' -count 1

# autotune calibrates the kernel-selection cost model and matmul block
# sizes on THIS machine, writing the profile to KERNEL_PROFILE (then pass
# it to dtucker/dtuckerd via -kernel-profile). Takes a minute or two: it
# times real SVD and matmul kernels at representative sizes. See README
# "Kernel selection".
KERNEL_PROFILE ?= kernelprofile.json
autotune:
	$(GO) run ./cmd/dtucker -autotune $(KERNEL_PROFILE)

# serve runs the decomposition daemon on :7171 (override with ADDR=...).
# See README "Serving" for the endpoint walkthrough and drain semantics.
ADDR ?= :7171
serve:
	$(GO) run ./cmd/dtuckerd -addr $(ADDR)

# faults sweeps every registered fault-injection hook point (internal/faults
# sites) in error and panic mode, through both the plain and streaming
# pipelines. The sweep fails if any injected fault escapes as a panic, comes
# back without naming its site, produces non-finite output, or if a
# registered site is missing from the sweep table.
faults:
	$(GO) test ./internal/faults/ ./internal/pool/ ./internal/randsvd/ -count 1
	$(GO) test -race ./internal/core/ -run 'TestFaultSweep' -v -count 1

# crashtest is the durability matrix: kill a durable job at EVERY sweep
# boundary (× worker counts) via the journal crash sites, restart over the
# same data dir, and require a bit-identical resumed result — plus every
# corruption-degradation case (torn tails, corrupt snapshot/checkpoint/
# tensor/result) and the subprocess e2e where the daemon genuinely
# os.Exit(7)s mid-write and recovers. All under -race: recovery races
# runners starting, and a torn write is exactly when they'd collide.
crashtest:
	$(GO) test -race ./internal/journal/ -count 1
	$(GO) test -race ./internal/server/ -run 'TestCrash|TestCorrupt|TestRestart|TestDrainInterrupted|TestForeignJournal|TestDurabilityCounters|TestCheckpointEvery' -v -count 1
	$(GO) test -race ./cmd/dtuckerd/ -run 'TestDaemonCrashRecovery' -v -count 1

bench:
	$(GO) test -bench=. -benchmem
	$(GO) test -bench 'BenchmarkIterateWorkers' -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkSymEig|BenchmarkLeadingLeftALS' -benchmem ./internal/mat/

# overhead measures metrics-enabled vs -disabled cost on the quickstart
# workload (see EXPERIMENTS.md "Measurement methodology"; must stay <2%).
overhead:
	$(GO) test ./internal/core/ -run XXX -bench Quickstart -benchtime 10x -count 3

# bench-json emits today's machine-readable benchmark trajectory
# (BENCH_<UTC-date>.json, schema in EXPERIMENTS.md "Benchmark trajectories")
# on the standard baseline workload. Commit the file to extend the repo's
# performance record.
bench-json:
	$(GO) run ./cmd/benchreport

# bench-compare re-measures the baseline workload and gates it against the
# most recent committed BENCH_*.json, failing (exit 4) on any metric more
# than 25% worse — wide enough for shared-runner noise, narrow enough to
# catch a real slowdown. Override with BENCH_BASELINE=<file>.
BENCH_BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))
bench-compare:
	@test -n "$(BENCH_BASELINE)" || { echo "no BENCH_*.json baseline found; run make bench-json first"; exit 2; }
	$(GO) run ./cmd/benchreport -out .bench-head.json
	$(GO) run ./cmd/benchreport -compare -max-regress 25 $(BENCH_BASELINE) .bench-head.json; \
	  status=$$?; rm -f .bench-head.json; exit $$status

# load is the serving-layer smoke: a short fixed-seed open-loop run of
# cmd/loadgen against an in-process daemon (hermetic, no port, no process
# to manage), writing .load-head.json. verify runs it, so a change that
# breaks the harness or the admission path fails tier-1. Methodology and
# the full flag surface are in docs/OPERATIONS.md.
load:
	$(GO) run ./cmd/loadgen -self -self-queue 16 -self-runners 2 \
	  -duration 5s -qps 10 -seed 1 -tenants prod=3,adhoc=1 \
	  -out .load-head.json

# rangebench measures what the per-stream range index buys on an
# overlapping-range workload: two hermetic runs of the same offered
# schedule — many distinct overlapping windows over a 32-step stream —
# first with a stitch span longer than any window (every distinct window
# takes rangeidx's direct DecomposeRange fallback, the pre-index path;
# only the exact-window cache helps), then with the default span (windows
# stitch O(log T) cached node summaries). benchreport -compare gates the
# stitched run against the baseline, so it fails if stitching ever becomes
# slower than direct solves. The committed LOAD_<date>-range*.json pair
# records this before/after (see EXPERIMENTS.md).
RANGEMIX = -duration 8s -qps 6 -seed 7 -arrival uniform -mix range=1 \
  -range-chunks 8 -range-windows 12 -self-range-block 4
rangebench:
	$(GO) run ./cmd/loadgen -self -self-runners 2 -self-range-stitch-span 1000000 \
	  $(RANGEMIX) -out .range-base.json
	$(GO) run ./cmd/loadgen -self -self-runners 2 \
	  $(RANGEMIX) -out .range-head.json
	$(GO) run ./cmd/benchreport -compare -max-regress 25 .range-base.json .range-head.json; \
	  status=$$?; rm -f .range-base.json .range-head.json; exit $$status

# load-compare re-measures and gates against the newest committed
# mixed-load LOAD_YYYY-MM-DD.json (the pattern never picks the range pair,
# LOAD_<date>-range*.json). The budget is deliberately wide (schema gate +
# catastrophic regression catch, not a precision benchmark — shared-CPU
# latency quantiles are noisy): goodput may halve and quantiles may double before
# it fails (exit 4). Refresh the baseline by re-running the load recipe
# with -out LOAD_$$(date -u +%F).json and committing the file.
LOAD_BASELINE ?= $(lastword $(sort $(wildcard LOAD_????-??-??.json)))
load-compare: load
	@test -n "$(LOAD_BASELINE)" || { echo "no LOAD_*.json baseline found; see docs/OPERATIONS.md"; exit 2; }
	$(GO) run ./cmd/benchreport -compare -max-regress 100 $(LOAD_BASELINE) .load-head.json; \
	  status=$$?; rm -f .load-head.json; exit $$status
