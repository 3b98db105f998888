// Package server implements dtuckerd, the D-Tucker decomposition service:
// an HTTP/JSON job API with admission control, a result cache, and graceful
// drain, on top of the core decomposition library.
//
// Requests are serializable core.Config values plus a tensor payload
// (base64 .ten bytes in JSON; see docs/FORMATS.md for the binary formats).
// Submissions pass through multi-tenant admission control — per-tenant
// quotas, a bounded global queue, and singleflight coalescing of identical
// in-flight jobs — and queued work is dispatched through two strict-priority
// lanes (interactive preempts batch) with weighted fair queueing across
// tenants inside each lane; see sched.go and docs/OPERATIONS.md for the
// exact semantics. When a submission cannot be admitted the server sheds
// load with 429 and a Retry-After header instead of queueing unboundedly.
// Results are cached in an LRU keyed by (tensor digest, canonical config);
// the library's determinism makes a cached result bit-identical to a fresh
// computation. All jobs share one worker pool, so a saturated server runs
// at a bounded total parallelism. Tenancy and priority ride on the
// X-Tenant and X-Priority request headers.
//
// Every job carries its own metrics.Collector (phase breakdown in the job
// record) and, on request, a span tracer (GET /v1/jobs/{id}/trace) that
// merges server-side spans (admission, queue wait, run, serialize) with the
// core compute spans. Every request resolves a correlation ID (client
// X-Request-ID, W3C traceparent, or freshly minted — see internal/obs),
// echoed on every response; with Config.Obs set, each admission decision
// and job lifecycle transition emits one structured log event carrying it.
// Process-wide counters and latency histograms are exported at GET /metricz
// as curated JSON or, with ?format=prometheus, in Prometheus text format;
// GET /debugz/requests serves the flight recorder.
//
// Endpoints:
//
//	POST   /v1/decompose             submit a decomposition job
//	GET    /v1/jobs/{id}             poll the job record
//	GET    /v1/jobs/{id}/result      fetch the result (.dtd binary, ?format=json)
//	GET    /v1/jobs/{id}/trace       fetch the span trace (jsonl, ?format=chrome)
//	DELETE /v1/jobs/{id}             cancel a queued or running job
//	POST   /v1/streams               open a streaming session
//	GET    /v1/streams/{id}          session status
//	DELETE /v1/streams/{id}          close the session
//	POST   /v1/streams/{id}/append   append a chunk (synchronous)
//	POST   /v1/streams/{id}/decompose submit a full-stream solve job
//	GET    /v1/streams/{id}/range    submit a time-range query (?t0=&t1=)
//	GET    /healthz                  liveness and queue state
//	GET    /metricz                  counters + histograms (?format=prometheus)
//	GET    /debugz/requests          flight recorder: recent requests + exemplars
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kernelsel"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/trace"
)

// Config configures a Server. The zero value is usable: every field has a
// sensible default. Admission, fairness, and coalescing semantics are
// documented in detail in docs/OPERATIONS.md.
type Config struct {
	// QueueDepth bounds the number of jobs waiting to run; submissions
	// beyond it are rejected with 429. Default 16.
	QueueDepth int
	// Runners is the number of jobs executing concurrently. Default 1 —
	// one decomposition at a time, using the whole pool.
	Runners int
	// Workers sizes the shared worker pool. Default runtime.NumCPU.
	Workers int
	// CacheSize bounds the result cache in entries; 0 means the default
	// (64), negative disables caching.
	CacheSize int
	// RetryAfter is the hint returned with 429 responses. Default 1s.
	RetryAfter time.Duration
	// MaxBodyBytes bounds request bodies. Default 1 GiB.
	MaxBodyBytes int64

	// TenantQuota bounds each tenant's outstanding (queued + running)
	// jobs; submissions beyond it are shed with 429/tenant_quota even when
	// the global queue has room. 0 means unlimited — only QueueDepth
	// applies.
	TenantQuota int
	// TenantWeights assigns weighted-fair-queueing weights by tenant name
	// (X-Tenant header). A tenant absent from the map gets
	// DefaultTenantWeight. Under contention, tenant throughput converges
	// to the weight ratio.
	TenantWeights map[string]int
	// DefaultTenantWeight is the WFQ weight of tenants not listed in
	// TenantWeights. Default 1.
	DefaultTenantWeight int
	// DisableCoalesce turns off singleflight coalescing of identical
	// in-flight jobs. By default a submission whose (tensor digest,
	// canonical config) key matches a queued or running job attaches to
	// it instead of executing again.
	DisableCoalesce bool

	// DataDir, when set, makes decompose jobs durable: accepted work is
	// journaled to DataDir/journal.dtjl and large artifacts (tensors,
	// checkpoints, results) are spilled under DataDir/jobs/, and on startup
	// the journal is replayed — finished jobs are restored, interrupted jobs
	// re-enqueued and resumed from their last checkpoint. Empty (the
	// default) keeps the server fully in-memory. See durability.go and
	// docs/OPERATIONS.md, "Durability & recovery".
	DataDir string
	// CheckpointEvery is the sweep cadence of durable checkpoints: iteration
	// state is persisted every N-th completed sweep (terminal sweeps are
	// always persisted). Default 1 — every sweep is a resume point. Only
	// meaningful with DataDir set.
	CheckpointEvery int

	// Range-index tuning. Each stream session maintains a rangeidx segment
	// tree over its appended blocks, so overlapping range queries stitch
	// cached node summaries instead of re-solving (see internal/rangeidx and
	// docs/OPERATIONS.md, "Range queries"). RangeBlockSize is the leaf span
	// in time steps (0 selects 8); RangeSummaryRank the retained summary
	// rank (0 selects the core default); RangeMinStitchSpan the span below
	// which queries run a direct solve (0 selects 2·RangeBlockSize, negative
	// disables the size fallback; a span longer than any window makes every
	// query a direct DecomposeRange, the pre-index behaviour); RangeMinFit
	// the stitched-fit floor below which a query is re-answered directly (0
	// disables).
	RangeBlockSize     int
	RangeSummaryRank   int
	RangeMinStitchSpan int
	RangeMinFit        float64

	// KernelProfile is the calibrated kernelsel profile that requests with
	// SliceKernel "auto" resolve against. Its fingerprint is stamped into
	// each auto request's Config before the cache key is computed, so
	// results are cached per profile; a request naming a different
	// fingerprint is rejected with 400. Nil selects kernelsel.Default().
	KernelProfile *kernelsel.Profile

	// Obs, when set, receives one structured event per admission decision
	// and job lifecycle transition (see internal/obs for the schema). Nil —
	// the default — disables event logging at zero per-request cost.
	Obs *obs.Logger
	// FlightRecorderSize is the number of recent request summaries the
	// flight recorder retains for GET /debugz/requests. 0 means the default
	// (256); negative disables the recorder.
	FlightRecorderSize int

	// Logf, when set, receives one line per diagnostic event (drain
	// progress, recovery, result-write failures). Default: silent. Job
	// lifecycle reporting goes through Obs instead.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.Runners <= 0 {
		c.Runners = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.CacheSize == 0 {
		c.CacheSize = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 30
	}
	if c.DefaultTenantWeight <= 0 {
		c.DefaultTenantWeight = 1
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	if c.KernelProfile == nil {
		c.KernelProfile = kernelsel.Default()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the dtuckerd service. Create with New, serve its Handler, and
// shut down with Drain. A Server's methods are safe for concurrent use.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	pl    *pool.Pool
	cache *resultCache
	dur   *durability   // nil when Config.DataDir is unset
	obs   *obs.Logger   // nil-safe: nil disables structured events
	rec   *obs.Recorder // nil when Config.FlightRecorderSize < 0

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// schedMu guards sched; schedCond wakes runners blocked in nextJob.
	schedMu   sync.Mutex
	schedCond *sync.Cond
	sched     *scheduler

	jobsWG    sync.WaitGroup
	runnersWG sync.WaitGroup
	draining  atomic.Bool

	mu         sync.Mutex
	jobs       map[string]*job
	jobOrder   []string // insertion order, for pruning old finished records
	streams    map[string]*session
	nextJob    int64
	nextStream int64

	// Cumulative counters, exported on /metricz.
	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	cancelled atomic.Int64
	rejected  atomic.Int64
	coalesced atomic.Int64
	running   atomic.Int64
}

// maxJobRecords bounds the in-memory job registry; the oldest finished
// records are pruned beyond it.
const maxJobRecords = 4096

// New returns a ready Server. Start serving with an http.Server around
// Handler(); call Drain before exit.
//
// With Config.DataDir set, New replays the durability journal before any
// runner starts: jobs interrupted by the previous process death are back in
// the queue (resuming from their last checkpoint) by the time New returns.
// New fails only when the data directory itself is unusable — an unwritable
// path or a journal file that is not ours; corrupt records degrade per job
// instead (see durability.go).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		pl:      pool.New(cfg.Workers),
		cache:   newResultCache(cfg.CacheSize),
		sched:   newScheduler(cfg),
		jobs:    make(map[string]*job),
		streams: make(map[string]*session),
		obs:     cfg.Obs,
	}
	if cfg.FlightRecorderSize >= 0 {
		n := cfg.FlightRecorderSize
		if n == 0 {
			n = 256
		}
		s.rec = obs.NewRecorder(n)
	}
	s.schedCond = sync.NewCond(&s.schedMu)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.routes()
	if cfg.DataDir != "" {
		dur, records, err := openDurability(cfg)
		if err != nil {
			return nil, err
		}
		s.dur = dur
		if err := s.recoverJobs(records); err != nil {
			dur.Close()
			return nil, err
		}
	}
	for i := 0; i < cfg.Runners; i++ {
		s.runnersWG.Add(1)
		go s.runner()
	}
	metrics.PublishExpvar()
	publishServerExpvar()
	activeServer.Store(s)
	return s, nil
}

// Handler returns the server's HTTP handler: the route mux wrapped in the
// request-ID / flight-recorder middleware, so every response — matched or
// not, success or shed — carries an X-Request-ID header.
func (s *Server) Handler() http.Handler { return s.instrument(s.mux) }

// FlightRecorder returns the server's flight recorder (nil when disabled),
// for the daemon's SIGQUIT dump.
func (s *Server) FlightRecorder() *obs.Recorder { return s.rec }

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/decompose", s.handleDecompose)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("POST /v1/streams", s.handleStreamCreate)
	s.mux.HandleFunc("GET /v1/streams/{id}", s.handleStreamGet)
	s.mux.HandleFunc("DELETE /v1/streams/{id}", s.handleStreamDelete)
	s.mux.HandleFunc("POST /v1/streams/{id}/append", s.handleStreamAppend)
	s.mux.HandleFunc("POST /v1/streams/{id}/decompose", s.handleStreamDecompose)
	s.mux.HandleFunc("GET /v1/streams/{id}/range", s.handleStreamRangeGet)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metricz", s.handleMetricz)
	s.mux.HandleFunc("GET /debugz/requests", s.handleDebugzRequests)
}

// newJob allocates a job record with its own cancellable context (child of
// the server's base context, so drain-with-deadline can cancel everything),
// per-job collector, and optional tracer.
func (s *Server) newJob(key string, timeout time.Duration, traced bool,
	exec func(ctx context.Context, pl *pool.Pool, col *metrics.Collector) (*core.Decomposition, error)) *job {
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &job{
		key:     key,
		exec:    exec,
		ctx:     ctx,
		cancel:  cancel,
		timeout: timeout,
		col:     metrics.New(),
		state:   StateQueued,
		tenant:  defaultTenant,
		lane:    laneBatch,
		created: time.Now(),
	}
	if traced {
		j.tracer = trace.New()
		j.col.SetTracer(j.tracer)
		// The tracer is this job's own (not a shared stream-session tracer),
		// so the runner may record server-side spans into it.
		j.ownTracer = true
	}
	s.mu.Lock()
	s.nextJob++
	j.id = fmt.Sprintf("j-%06d", s.nextJob)
	s.mu.Unlock()
	return j
}

// register adds the job to the registry, pruning the oldest finished
// records past maxJobRecords.
func (s *Server) register(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	for len(s.jobOrder) > maxJobRecords {
		old, ok := s.jobs[s.jobOrder[0]]
		if ok {
			old.mu.Lock()
			finished := old.state == StateDone || old.state == StateFailed || old.state == StateCancelled
			old.mu.Unlock()
			if !finished {
				break // never prune live jobs; registry grows until they finish
			}
			delete(s.jobs, s.jobOrder[0])
		}
		s.jobOrder = s.jobOrder[1:]
	}
}

func (s *Server) lookupJob(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// admit places the job under admission control. It never blocks: a full
// queue, an exhausted tenant quota, or a draining server rejects
// immediately. Submissions identical to an in-flight job coalesce onto it —
// see admitOrCoalesce; admit itself reports coalesced submissions as
// admitted with no distinct leader.
func (s *Server) admit(j *job) error {
	_, err := s.admitOrCoalesce(j)
	return err
}

// admitOrCoalesce admits j, or attaches it as a follower of an identical
// in-flight leader (returned non-nil). The follower's record is registered
// like any job but it holds no queue slot and never executes; it finishes
// when its leader does.
func (s *Server) admitOrCoalesce(j *job) (*job, error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	s.jobsWG.Add(1)
	j.admitted = time.Now()
	s.schedMu.Lock()
	leader, err := s.sched.submitLocked(j, j.admitted)
	if err == nil && leader == nil {
		s.schedCond.Signal()
	}
	s.schedMu.Unlock()
	if err != nil {
		s.jobsWG.Done()
		s.rejected.Add(1)
		return nil, err
	}
	if leader != nil {
		// Coalesced: the leader's completion finishes this record, so it
		// holds no reference of its own in the drain wait group.
		s.jobsWG.Done()
		s.coalesced.Add(1)
	}
	s.register(j)
	s.submitted.Add(1)
	return leader, nil
}

// dequeue blocks until a job is dispatched or the scheduler is closed and
// empty (drain complete).
func (s *Server) dequeue() (*job, bool) {
	s.schedMu.Lock()
	defer s.schedMu.Unlock()
	for {
		if j := s.sched.pickLocked(); j != nil {
			return j, true
		}
		if s.sched.closed {
			return nil, false
		}
		s.schedCond.Wait()
	}
}

func (s *Server) runner() {
	defer s.runnersWG.Done()
	for {
		j, ok := s.dequeue()
		if !ok {
			return
		}
		s.run(j)
	}
}

// run executes one job to completion, then finishes every follower that
// coalesced onto it. Exactly one runner runs a given job.
func (s *Server) run(j *job) {
	defer s.jobsWG.Done()
	defer j.cancel() // release the job context once the outcome is recorded
	s.running.Add(1)
	defer s.running.Add(-1)

	start := time.Now()
	wait := start.Sub(j.created)
	metrics.Observe(metrics.HistJobQueueWait, wait)
	if j.lane == laneInteractive {
		metrics.Observe(metrics.HistJobQueueWaitInteractive, wait)
	} else {
		metrics.Observe(metrics.HistJobQueueWaitBatch, wait)
	}
	if ch := j.durableReady; ch != nil {
		// Ack-after-commit barrier: wait for the accepted record to commit
		// before journaling anything else for this job. The submitting
		// handler closes the channel right after persistAccepted, so the
		// wait is bounded by one spill + one fsync.
		<-ch
	}
	j.setRunning(start)
	s.persistStarted(j)
	s.obs.Emit(obs.Event{
		Event: "job_start", RequestID: j.requestID, JobID: j.id,
		Tenant: j.tenant, Lane: j.lane.String(), Outcome: StateRunning,
		QueueWait: wait,
	})
	if j.ownTracer {
		// Retro-record the server-side phases so they land in the same tree
		// as the compute spans: admission (handler work before the queue) and
		// queue wait. admitted is zero for journal-recovered jobs, whose
		// pre-crash admission was in another process's tracer.
		adm := j.admitted
		if adm.IsZero() {
			adm = j.created
		}
		j.tracer.Record(0, "server:admission", trace.NoIdx, j.created, adm.Sub(j.created))
		j.tracer.Record(0, "server:queue-wait", trace.NoIdx, adm, start.Sub(adm))
	}

	ctx := j.ctx
	if j.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.timeout)
		defer cancel()
	}

	// The cache may have been filled by an identical job that ran while
	// this one waited in the queue.
	var (
		dec      *core.Decomposition
		err      error
		cacheHit bool
	)
	if j.key != "" {
		dec, cacheHit = s.cache.Get(j.key)
	}
	if !cacheHit {
		var runSpan trace.Ctx
		if j.ownTracer {
			runSpan = j.tracer.Begin("server:run")
		}
		dec, err = j.exec(ctx, s.pl, j.col)
		runSpan.End()
		metrics.ObserveSince(metrics.HistJobRun, start)
		if err == nil && j.key != "" {
			s.cache.Put(j.key, dec)
		}
	}
	end := time.Now()

	// Retire the job in the scheduler FIRST: after this, new identical
	// submissions either hit the cache (on success — Put already happened)
	// or start a fresh leader, and no late follower can attach unseen.
	s.schedMu.Lock()
	followers := s.sched.completeLocked(j)
	s.schedMu.Unlock()

	s.finishLeader(j, followers, dec, err, cacheHit, wait, end.Sub(start), end)
}

// withdraw retires a leader that a DELETE caught still queued: it leaves its
// lane at once, releasing its queue slot and tenant quota before the
// handler responds, and finishes cancelled together with its followers. A
// job a runner already holds is left to the runner; its cancellation lands
// at the run's next phase or sweep boundary.
func (s *Server) withdraw(j *job) {
	s.schedMu.Lock()
	followers, ok := s.sched.withdrawLocked(j)
	s.schedMu.Unlock()
	if !ok {
		return
	}
	defer s.jobsWG.Done()
	if ch := j.durableReady; ch != nil {
		<-ch // journal nothing before the accepted record, as run does
	}
	end := time.Now()
	s.finishLeader(j, followers, nil, context.Canceled, false, end.Sub(j.created), 0, end)
}

// finishLeader records a retired leader's outcome — journal, state, tally,
// event — and finishes every follower with the same result. The leader's
// durable record commits before its terminal state is published, so a
// client that sees it finished finds its outcome journaled and its result
// spilled; a leader has exactly one finisher, so nothing races the record.
// A follower publishes first and commits after, because its own DELETE may
// finish it concurrently (persistFinished is exactly-once either way).
func (s *Server) finishLeader(j *job, followers []*job, dec *core.Decomposition, err error, cacheHit bool, wait, run time.Duration, end time.Time) {
	resultFile, resultDigest := s.persistFinished(j, dec, err, j.userCancelled.Load(), "", "")
	j.finish(dec, err, cacheHit, end)
	state := s.tally(j, err)
	s.obs.Emit(s.finishEvent(j, state, err, wait, run, cacheKind(cacheHit)))

	for _, f := range followers {
		metrics.Observe(metrics.HistJobCoalesceWait, end.Sub(f.created))
		finished := f.finish(dec, err, false, end)
		f.cancel()
		if finished {
			s.persistFinished(f, dec, err, f.userCancelled.Load(), resultFile, resultDigest)
		}
		fstate := s.tally(f, err)
		ev := s.finishEvent(f, fstate, err, end.Sub(f.created), 0, "coalesced")
		ev.Leader = j.id
		s.obs.Emit(ev)
	}
}

// emitAdmission logs one positive admission decision — accept, cache_hit,
// or coalesce (with the leader attached). Shed decisions are logged by
// writeAdmissionError, which is where the rejection is materialized.
func (s *Server) emitAdmission(j *job, outcome, leader string) {
	s.obs.Emit(obs.Event{
		Event: "admission", RequestID: j.requestID, JobID: j.id,
		Tenant: j.tenant, Lane: j.lane.String(), Outcome: outcome, Leader: leader,
	})
}

// finishEvent builds the job_finish event for one terminal job. Failures
// log at Warn so a level-filtered log still shows every bad outcome.
func (s *Server) finishEvent(j *job, state string, err error, wait, run time.Duration, cache string) obs.Event {
	ev := obs.Event{
		Event: "job_finish", RequestID: j.requestID, JobID: j.id,
		Tenant: j.tenant, Lane: j.lane.String(), Outcome: state,
		Cache: cache, QueueWait: wait, RunTime: run,
		Profile: s.cfg.KernelProfile.Fingerprint(),
	}
	if err != nil {
		ev.Err = wireError(err).Kind
	}
	if state == StateFailed {
		ev.Level = slog.LevelWarn
	}
	return ev
}

func cacheKind(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// tally records a finished job's terminal state in the global and per-tenant
// counters, returning the state. A job that was already finished (e.g. a
// follower cancelled individually before its leader completed) still tallies
// exactly once, here.
func (s *Server) tally(j *job, err error) string {
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	switch state {
	case StateDone:
		s.completed.Add(1)
	case StateCancelled:
		s.cancelled.Add(1)
	default:
		s.failed.Add(1)
	}
	s.schedMu.Lock()
	s.sched.tallyLocked(j, state)
	s.schedMu.Unlock()
	return state
}

// Drain gracefully shuts the server down: it stops admitting work, waits
// for queued and running jobs to finish, and — if ctx expires first —
// cancels everything in flight and waits for the cancellations to land.
// After Drain returns no runner goroutines remain and final statistics have
// been flushed through Logf. Drain is idempotent.
func (s *Server) Drain(ctx context.Context) {
	if s.draining.Swap(true) {
		// Another Drain is (or was) in progress; wait for the jobs either way.
		s.jobsWG.Wait()
		s.runnersWG.Wait()
		return
	}
	s.cfg.Logf("drain: no longer admitting jobs; %d queued, %d running",
		s.queueLen(), s.running.Load())

	done := make(chan struct{})
	go func() { s.jobsWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		s.cfg.Logf("drain: deadline reached, cancelling in-flight jobs")
		s.baseCancel() // cancels every job context at once
		<-done
	}
	s.schedMu.Lock()
	s.sched.closed = true
	s.schedCond.Broadcast()
	s.schedMu.Unlock()
	s.runnersWG.Wait()
	s.baseCancel()

	hits, misses := s.cache.Stats()
	s.cfg.Logf("drain: complete — %d submitted, %d done, %d failed, %d cancelled, %d rejected, %d coalesced; cache %d hits / %d misses",
		s.submitted.Load(), s.completed.Load(), s.failed.Load(),
		s.cancelled.Load(), s.rejected.Load(), s.coalesced.Load(), hits, misses)
	s.schedMu.Lock()
	for _, name := range s.sched.tenantNamesLocked() {
		st := s.sched.tenants[name].stats
		s.cfg.Logf("drain: tenant %s — %d submitted, %d done, %d coalesced, %d shed (queue %d / quota %d)",
			name, st.Submitted, st.Completed, st.Coalesced,
			st.RejectedQueue+st.RejectedQuota, st.RejectedQueue, st.RejectedQuota)
	}
	s.schedMu.Unlock()
	s.dur.Close()
}

// queueLen reports the number of jobs waiting to be dispatched.
func (s *Server) queueLen() int {
	s.schedMu.Lock()
	defer s.schedMu.Unlock()
	return s.sched.queued
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// health snapshots the serving state for /healthz.
func (s *Server) health() Health {
	h := Health{
		Status:   "ok",
		QueueLen: s.queueLen(),
		QueueCap: s.cfg.QueueDepth,
		Running:  int(s.running.Load()),
		Workers:  s.pl.Size(),
	}
	if s.draining.Load() {
		h.Status = "draining"
	}
	return h
}

// statsSnapshot is the expvar payload under the "dtuckerd" key. Every field
// is documented in docs/OPERATIONS.md, "The /metricz surface".
func (s *Server) statsSnapshot() map[string]any {
	hits, misses := s.cache.Stats()
	s.mu.Lock()
	streams := len(s.streams)
	s.mu.Unlock()
	s.schedMu.Lock()
	queued := s.sched.queued
	tenants := s.sched.snapshotLocked()
	s.schedMu.Unlock()
	durable := map[string]any{"enabled": false}
	if s.dur != nil {
		durable = s.dur.snapshot()
	}
	return map[string]any{
		"durability":     durable,
		"jobs_submitted": s.submitted.Load(),
		"jobs_completed": s.completed.Load(),
		"jobs_failed":    s.failed.Load(),
		"jobs_cancelled": s.cancelled.Load(),
		"jobs_rejected":  s.rejected.Load(),
		"jobs_coalesced": s.coalesced.Load(),
		"jobs_running":   s.running.Load(),
		"cache_hits":     hits,
		"cache_misses":   misses,
		"cache_entries":  s.cache.Len(),
		"queue_len":      queued,
		"queue_cap":      s.cfg.QueueDepth,
		"streams_open":   streams,
		"tenants":        tenants,
		"draining":       s.draining.Load(),
	}
}

// expvar wiring. expvar.Publish panics on duplicate names and tests create
// many Servers per process, so the published func reads through an atomic
// pointer to the most recently created server.
var (
	activeServer  atomic.Pointer[Server]
	publishServer sync.Once
)

func publishServerExpvar() {
	publishServer.Do(func() {
		expvar.Publish("dtuckerd", expvar.Func(func() any {
			s := activeServer.Load()
			if s == nil {
				return nil
			}
			return s.statsSnapshot()
		}))
	})
}

// ----- small HTTP helpers shared by the handler files -----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

func writeError(w http.ResponseWriter, status int, e *WireError) {
	// Stash the error class for the flight recorder: shed 429s and other
	// errors written before any job record exists are otherwise invisible.
	if sw, ok := w.(*statusWriter); ok && sw.info != nil {
		sw.info.errClass = e.Kind
	}
	writeJSON(w, status, map[string]*WireError{"error": e})
}

// writeAdmissionError maps admit() failures onto HTTP load-shedding
// semantics — 429 + Retry-After for a full queue or exhausted tenant
// quota, 503 while draining — and emits the shed admission event. These
// responses exist before any job record, so the event carries whatever
// identity the request itself established (tenant, and job ID when a
// record was allocated before admission failed).
func (s *Server) writeAdmissionError(w http.ResponseWriter, r *http.Request, j *job, err error) {
	retryAfter := func() {
		secs := int(s.cfg.RetryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	ev := obs.Event{
		Level: slog.LevelWarn, Event: "admission", RequestID: requestID(r),
	}
	if j != nil {
		ev.JobID = j.id
		ev.Tenant = j.tenant
		ev.Lane = j.lane.String()
	} else {
		ev.Tenant = requestTenant(r)
	}
	switch {
	case errors.Is(err, errQueueFull):
		ev.Outcome = "shed_queue_full"
		retryAfter()
		writeError(w, http.StatusTooManyRequests, &WireError{Kind: KindQueueFull, Message: err.Error()})
	case errors.Is(err, errTenantQuota):
		ev.Outcome = "shed_tenant_quota"
		retryAfter()
		writeError(w, http.StatusTooManyRequests, &WireError{Kind: KindTenantQuota, Message: err.Error()})
	case errors.Is(err, errDraining):
		ev.Outcome = "shed_draining"
		writeError(w, http.StatusServiceUnavailable, &WireError{Kind: KindDraining, Message: err.Error()})
	default:
		ev.Outcome = "error"
		ev.Err = err.Error()
		writeError(w, http.StatusInternalServerError, &WireError{Kind: KindInternal, Message: err.Error()})
	}
	s.obs.Emit(ev)
}
