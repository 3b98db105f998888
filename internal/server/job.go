package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/trace"
)

// Job states, in lifecycle order. A job moves queued → running →
// {done, failed, cancelled}; cache hits are born done.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// job is one queued decomposition. The exec closure abstracts over the two
// job sources — a one-shot tensor decomposition and a stream solve — so the
// runner, cache, and drain logic are shared.
type job struct {
	id  string
	key string // result-cache key; "" disables caching and coalescing for this job

	// requestID is the correlation ID of the submitting request (restored
	// from the journal for recovered jobs): the key tying this record to the
	// client call, the structured event log, and the flight recorder.
	requestID string

	// tenant and lane are the admission identity: tenant charges the quota
	// and the WFQ share, lane decides dispatch priority. Both are fixed at
	// submission (from the X-Tenant / X-Priority headers).
	tenant string
	lane   lane

	// exec runs the decomposition. It receives the job's context (already
	// carrying any per-job timeout) and must honour it.
	exec func(ctx context.Context, pl *pool.Pool, col *metrics.Collector) (*core.Decomposition, error)

	ctx     context.Context
	cancel  context.CancelFunc
	timeout time.Duration // applied when the job starts running, not while queued

	col    *metrics.Collector
	tracer *trace.Tracer
	// ownTracer marks a tracer created for this job alone (traced
	// decompose submissions). Server-side spans are only recorded into own
	// tracers: a stream job shares its session's tracer, whose control-lane
	// stack belongs to the session operations.
	ownTracer bool
	// admitted is when the job passed admission control (zero for
	// journal-recovered jobs); queue wait is measured from here.
	admitted time.Time

	// coalesced marks a follower: a submission attached to an identical
	// in-flight leader. Followers never execute; the leader's completion
	// finishes them. followers is the reverse edge on the leader, guarded
	// by the server's scheduling lock until completeLocked detaches it.
	coalesced bool
	followers []*job

	// persist marks a durable job: its lifecycle is journaled and its
	// artifacts spilled under the server's data directory (durability.go).
	// Atomic because the submitting handler commits the accepted record
	// concurrently with the runner potentially already executing the job.
	// recovered marks a record reconstructed from the journal after a
	// restart — either re-enqueued (interrupted) or restored (terminal).
	persist   atomic.Bool
	recovered bool
	// durableReady is the ack-after-commit barrier: the submitting handler
	// closes it once the accepted record has committed, and the runner
	// waits on it before executing. Without it a fast job could journal a
	// started/sweep record — or spill a checkpoint — before its own
	// accepted record exists, leaving replay a lifecycle with no identity.
	// Nil for non-durable and journal-restored jobs (their accepted record
	// is already on disk).
	durableReady chan struct{}
	// terminalPersisted makes persistFinished exactly-once: a cancelled
	// follower is finished both by its DELETE handler and by its leader's
	// completion, and must not journal two terminal records.
	terminalPersisted atomic.Bool
	// userCancelled distinguishes a client-requested DELETE from a drain or
	// timeout cancellation; only the former journals a cancelled record
	// during a drain (see persistFinished). Set before the job's context is
	// cancelled, so a runner that sees the cancellation also sees the flag.
	userCancelled atomic.Bool

	mu       sync.Mutex
	state    string
	cacheHit bool
	err      error
	dec      *core.Decomposition
	created  time.Time
	started  time.Time
	finished time.Time
	// sweep is the latest durably checkpointed ALS sweep (0 until the first
	// checkpoint commits).
	sweep int
	// Restored-terminal-job state: the result summary replayed from the
	// journal, the spill file the payload is lazily loaded from, and the
	// sha256 the spill's bytes must hash to (.dtd has no own checksum).
	restoredFit       float64
	restoredConverged bool
	restoredIters     int
	resultFile        string
	resultDigest      string
}

func (j *job) setRunning(now time.Time) {
	j.mu.Lock()
	j.state = StateRunning
	j.started = now
	j.mu.Unlock()
}

// setSweep records the latest durably checkpointed sweep.
func (j *job) setSweep(sweep int) {
	j.mu.Lock()
	if sweep > j.sweep {
		j.sweep = sweep
	}
	j.mu.Unlock()
}

// finish moves the job to its terminal state and reports whether this call
// set it. It is idempotent: a job that already finished (e.g. a coalesced
// follower cancelled individually before its leader completed) keeps its
// first outcome. A finished job drops its exec closure, so the registry's
// retained records do not keep their input tensors alive.
func (j *job) finish(dec *core.Decomposition, err error, cacheHit bool, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed || j.state == StateCancelled {
		return false
	}
	j.exec = nil
	j.finished = now
	j.cacheHit = j.cacheHit || cacheHit
	if err == nil {
		j.state = StateDone
		j.dec = dec
		return true
	}
	j.err = err
	if wireError(err).Kind == KindCancelled {
		j.state = StateCancelled
	} else {
		j.state = StateFailed
	}
	return true
}

// result returns the decomposition when the job is done, else nil.
func (j *job) result() *core.Decomposition {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil
	}
	return j.dec
}

// status snapshots the job record for the wire.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		RequestID: j.requestID,
		State:     j.state,
		Tenant:    j.tenant,
		Priority:  j.lane.String(),
		CacheHit:  j.cacheHit,
		Coalesced: j.coalesced,
		Recovered: j.recovered,
		Sweep:     j.sweep,
		Error:     wireError(j.err),
		CreatedMs: j.created.UnixMilli(),
	}
	if !j.started.IsZero() {
		st.StartedMs = j.started.UnixMilli()
	}
	if !j.finished.IsZero() {
		st.FinishedMs = j.finished.UnixMilli()
	}
	if j.state == StateDone && j.dec != nil {
		st.Fit = j.dec.Fit
		st.Converged = j.dec.Converged
		st.Iters = j.dec.Stats.Iters
		st.Ranks = j.dec.Core.Shape()
		st.ResultURL = "/v1/jobs/" + j.id + "/result"
	} else if j.state == StateDone && j.resultFile != "" {
		// Restored after a restart: the summary comes from the journal; the
		// payload is loaded from its spill on the first result fetch.
		st.Fit = j.restoredFit
		st.Converged = j.restoredConverged
		st.Iters = j.restoredIters
		st.ResultURL = "/v1/jobs/" + j.id + "/result"
	}
	if j.state == StateDone || j.state == StateFailed || j.state == StateCancelled {
		if j.col != nil {
			r := j.col.Report()
			st.Metrics = &r
		}
		if j.tracer != nil {
			st.TraceSpans = j.tracer.Len()
		}
	}
	return st
}
