package server

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"time"

	"repro/internal/metrics"
)

// Admission and scheduling.
//
// The server's queue is not a FIFO: it is a two-level scheduler that decides
// both *whether* a submission is admitted and *which* queued job the next
// free runner executes.
//
// Admission (scheduler.submit) applies three gates, in order:
//
//  1. Coalescing — a submission whose cache key matches a job already
//     queued or running attaches to that leader instead of executing
//     again. The follower consumes no queue slot and no runner time; when
//     the leader finishes, every follower receives the same result
//     (bit-identical, because the library is deterministic). This is
//     singleflight in front of the LRU result cache: the cache serves
//     repeats *after* a result exists, coalescing serves repeats *while*
//     it is being computed.
//  2. Per-tenant quota — each tenant may have at most Config.TenantQuota
//     leaders outstanding (queued + running). Beyond it the submission is
//     shed with 429/tenant_quota regardless of global queue headroom, so
//     one tenant cannot occupy the whole queue.
//  3. Global capacity — at most Config.QueueDepth jobs may wait. Beyond it
//     the submission is shed with 429/queue_full.
//
// Dispatch (scheduler.next) serves two strict-priority lanes: any queued
// interactive job (range queries, or anything submitted with
// "X-Priority: interactive") is dispatched before every batch job. Within
// a lane, tenants are served by weighted fair queueing: each tenant carries
// a virtual time that advances by 1/weight per dispatched job, and the
// tenant with the smallest virtual time goes next, so over any backlogged
// interval tenant throughput converges to the ratio of the configured
// weights. A tenant going idle does not bank credit: when it becomes
// backlogged again its virtual time is brought forward to the scheduler's
// clock.

// lane is a strict-priority class. Higher lanes are dispatched first.
type lane int

const (
	// laneBatch is the default lane for decompose and full-stream solves.
	laneBatch lane = iota
	// laneInteractive is the default lane for range queries; it preempts
	// (is always dispatched before) laneBatch.
	laneInteractive
	numLanes
)

// String returns the lane's wire name.
func (l lane) String() string {
	if l == laneInteractive {
		return "interactive"
	}
	return "batch"
}

// requestLane maps a request's X-Priority header onto a lane. An absent
// header keeps the endpoint's default; anything else must name a lane
// exactly — unknown values are a 400, not a silent fall-through, so a
// client typo ("Interactive", "high") cannot quietly demote its jobs.
func requestLane(r *http.Request, def lane) (lane, *WireError) {
	switch v := r.Header.Get(HeaderPriority); v {
	case "":
		return def, nil
	case "interactive":
		return laneInteractive, nil
	case "batch":
		return laneBatch, nil
	default:
		return def, &WireError{
			Kind:    KindInvalidInput,
			Message: fmt.Sprintf("unknown %s value %q (want interactive or batch)", HeaderPriority, v),
		}
	}
}

// defaultTenant is the tenant jobs belong to when the request carries no
// X-Tenant header.
const defaultTenant = "default"

// Admission-control rejections, mapped onto 429s by writeAdmissionError.
var (
	errQueueFull   = errors.New("job queue is full")
	errTenantQuota = errors.New("tenant has too many jobs outstanding")
	errDraining    = errors.New("server is draining")
)

// TenantStats is one tenant's cumulative admission and completion counters,
// exported per tenant under the "tenants" key of /metricz.
type TenantStats struct {
	Submitted     int64 `json:"submitted"`      // admitted leaders + coalesced followers + cache hits
	Completed     int64 `json:"completed"`      // jobs finished in state done
	Failed        int64 `json:"failed"`         // jobs finished in state failed
	Cancelled     int64 `json:"cancelled"`      // jobs finished in state cancelled
	RejectedQueue int64 `json:"rejected_queue"` // shed: global queue full
	RejectedQuota int64 `json:"rejected_quota"` // shed: per-tenant quota exceeded
	Coalesced     int64 `json:"coalesced"`      // submissions attached to an in-flight leader
	CacheHits     int64 `json:"cache_hits"`     // submissions answered from the result cache
}

// tenantState is one tenant's live scheduling state. All fields are guarded
// by the owning scheduler's mutex.
type tenantState struct {
	name        string
	weight      int
	vtime       float64 // WFQ virtual time; smallest backlogged tenant runs next
	queues      [numLanes][]*job
	outstanding int // leaders queued + running, charged against the quota
	stats       TenantStats
}

func (ts *tenantState) backlogged() bool {
	for l := range ts.queues {
		if len(ts.queues[l]) > 0 {
			return true
		}
	}
	return false
}

// scheduler owns admission and dispatch. It is created by New from the
// server Config and shares the server's mutex discipline: one internal lock,
// never held across job execution.
type scheduler struct {
	// Immutable after creation.
	capacity      int
	quota         int // per-tenant outstanding bound; 0 = unlimited
	weights       map[string]int
	defaultWeight int
	coalesce      bool

	// Guarded by the server's scheduling mutex (see Server.sched usage);
	// the scheduler embeds its own synchronization via schedMu/schedCond in
	// Server to keep a single lock order. Fields below are only touched
	// under that lock.
	closed   bool
	queued   int
	vclock   float64
	tenants  map[string]*tenantState
	inflight map[string]*job // cache key → queued-or-running leader
}

func newScheduler(cfg Config) *scheduler {
	return &scheduler{
		capacity:      cfg.QueueDepth,
		quota:         cfg.TenantQuota,
		weights:       cfg.TenantWeights,
		defaultWeight: cfg.DefaultTenantWeight,
		coalesce:      !cfg.DisableCoalesce,
		tenants:       make(map[string]*tenantState),
		inflight:      make(map[string]*job),
	}
}

// tenantLocked returns (creating if needed) the tenant's state.
func (sc *scheduler) tenantLocked(name string) *tenantState {
	if name == "" {
		name = defaultTenant
	}
	ts, ok := sc.tenants[name]
	if !ok {
		w := sc.defaultWeight
		if cfg, ok := sc.weights[name]; ok && cfg > 0 {
			w = cfg
		}
		if w <= 0 {
			w = 1
		}
		ts = &tenantState{name: name, weight: w}
		sc.tenants[name] = ts
	}
	return ts
}

// submitLocked admits j, coalesces it onto an in-flight leader, or rejects
// it. It returns (leader, nil) when j was attached as a follower, (nil, nil)
// when j was enqueued, and (nil, err) when it was shed. Only a job that
// would enqueue passes the quota and capacity gates: a follower takes no
// queue slot. Callers hold the server's scheduling lock and signal the
// dispatch condition on success.
func (sc *scheduler) submitLocked(j *job, now time.Time) (*job, error) {
	if sc.leaderLocked(j) == nil {
		ts := sc.tenantLocked(j.tenant)
		if sc.quota > 0 && ts.outstanding >= sc.quota {
			ts.stats.RejectedQuota++
			return nil, errTenantQuota
		}
		if sc.queued >= sc.capacity {
			ts.stats.RejectedQueue++
			if age := sc.headAgeLocked(now); age > 0 {
				metrics.Observe(metrics.HistJobShedHeadAge, age)
			}
			return nil, errQueueFull
		}
	}
	return sc.enqueueLocked(j), nil
}

// leaderLocked returns the queued-or-running job j would coalesce onto, nil
// when j must execute itself.
func (sc *scheduler) leaderLocked(j *job) *job {
	if !sc.coalesce || j.key == "" {
		return nil
	}
	return sc.inflight[j.key]
}

// enqueueLocked attaches j as a follower of its in-flight leader, returning
// the leader, or enqueues it in its tenant's lane and returns nil. It
// applies no gates: submitLocked checks them first, and journal replay
// calls it directly because a recovered job was already admitted by a
// previous process life — shedding it now would turn an acknowledged
// submission into a silent drop.
func (sc *scheduler) enqueueLocked(j *job) *job {
	ts := sc.tenantLocked(j.tenant)
	if leader := sc.leaderLocked(j); leader != nil {
		j.coalesced = true
		leader.followers = append(leader.followers, j)
		ts.stats.Submitted++
		ts.stats.Coalesced++
		return leader
	}
	if !ts.backlogged() && ts.vtime < sc.vclock {
		// The tenant was idle: bring it forward so it cannot spend banked
		// virtual time starving the tenants that kept the server busy.
		ts.vtime = sc.vclock
	}
	ts.queues[j.lane] = append(ts.queues[j.lane], j)
	ts.outstanding++
	ts.stats.Submitted++
	sc.queued++
	if j.key != "" {
		sc.inflight[j.key] = j
	}
	return nil
}

// headAgeLocked returns the age of the oldest queued job — how far behind
// the queue head is at the moment load is shed.
func (sc *scheduler) headAgeLocked(now time.Time) time.Duration {
	var oldest time.Time
	for _, ts := range sc.tenants {
		for l := range ts.queues {
			if len(ts.queues[l]) == 0 {
				continue
			}
			if c := ts.queues[l][0].created; oldest.IsZero() || c.Before(oldest) {
				oldest = c
			}
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return now.Sub(oldest)
}

// pickLocked dequeues the next job by lane priority then weighted fairness,
// or returns nil when nothing is queued. Ties on virtual time break by
// tenant name so dispatch order is deterministic.
func (sc *scheduler) pickLocked() *job {
	for l := numLanes - 1; l >= 0; l-- {
		var best *tenantState
		for _, ts := range sc.tenants {
			if len(ts.queues[l]) == 0 {
				continue
			}
			if best == nil || ts.vtime < best.vtime ||
				(ts.vtime == best.vtime && ts.name < best.name) {
				best = ts
			}
		}
		if best == nil {
			continue
		}
		j := best.queues[l][0]
		best.queues[l] = best.queues[l][1:]
		sc.queued--
		sc.vclock = best.vtime
		best.vtime += 1 / float64(best.weight)
		return j
	}
	return nil
}

// completeLocked retires a finished leader: releases its quota charge,
// removes its in-flight coalescing entry, and detaches its followers for
// the caller to finish outside the lock.
func (sc *scheduler) completeLocked(j *job) []*job {
	ts := sc.tenantLocked(j.tenant)
	ts.outstanding--
	if j.key != "" && sc.inflight[j.key] == j {
		delete(sc.inflight, j.key)
	}
	followers := j.followers
	j.followers = nil
	return followers
}

// withdrawLocked removes a still-queued leader from its tenant's lane and
// retires it as completeLocked does, so its queue slot and quota charge are
// free the moment it returns. It reports false when j is not waiting in a
// lane (a runner already picked it, or it is a follower); the runner then
// retires it.
func (sc *scheduler) withdrawLocked(j *job) ([]*job, bool) {
	ts := sc.tenantLocked(j.tenant)
	i := slices.Index(ts.queues[j.lane], j)
	if i < 0 {
		return nil, false
	}
	ts.queues[j.lane] = slices.Delete(ts.queues[j.lane], i, i+1)
	sc.queued--
	return sc.completeLocked(j), true
}

// tallyLocked records a finished job's terminal state in its tenant's
// counters.
func (sc *scheduler) tallyLocked(j *job, state string) {
	ts := sc.tenantLocked(j.tenant)
	switch state {
	case StateDone:
		ts.stats.Completed++
	case StateCancelled:
		ts.stats.Cancelled++
	default:
		ts.stats.Failed++
	}
}

// cacheHitLocked records a submission answered directly from the result
// cache (the job never entered the queue).
func (sc *scheduler) cacheHitLocked(tenant string) {
	ts := sc.tenantLocked(tenant)
	ts.stats.Submitted++
	ts.stats.CacheHits++
	ts.stats.Completed++
}

// snapshotLocked copies every tenant's counters, keyed by tenant name.
func (sc *scheduler) snapshotLocked() map[string]TenantStats {
	out := make(map[string]TenantStats, len(sc.tenants))
	for name, ts := range sc.tenants {
		out[name] = ts.stats
	}
	return out
}

// tenantNamesLocked returns the known tenants in sorted order (used by the
// log line Drain flushes).
func (sc *scheduler) tenantNamesLocked() []string {
	names := make([]string, 0, len(sc.tenants))
	for name := range sc.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
