package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/rangeidx"
	"repro/internal/trace"
)

// session is one streaming decomposition: a core.Stream, its range index,
// and the identity and instrumentation the serving layer needs. The mutex
// serializes every stream operation — appends are synchronous HTTP calls,
// solves run as queued jobs, and both take the lock, so a solve sees a
// frozen stream.
//
// Range-query results are cached under rangeKey(session id, range): the
// session's stream fixes the config (including the stamped kernel-profile
// fingerprint), an append-only stream never changes the steps it already
// holds, and stream IDs are never reused within a process, so a cached
// window stays valid across later appends. Both the rangeidx stitch and its
// direct DecomposeRange fallback are pure functions of the covered slices.
// Full-stream solves are NOT cached — Decompose warm-starts from the
// previous solve's factors, so its result depends on the session's solve
// history, not only on the appended data.
type session struct {
	id  string
	col *metrics.Collector
	tr  *trace.Tracer // non-nil when the session was created with trace:true

	mu  sync.Mutex
	st  *core.Stream
	idx *rangeidx.Index
}

func (s *Server) newSession(cfg core.Config, traced bool) *session {
	col := metrics.New()
	var tr *trace.Tracer
	if traced {
		tr = trace.New()
		col.SetTracer(tr)
	}
	opts := cfg.Options()
	opts.Pool = s.pl
	opts.Metrics = col
	opts.Profile = s.cfg.KernelProfile
	st := core.NewStream(opts)
	sess := &session{col: col, tr: tr, st: st, idx: rangeidx.New(st, rangeidx.Config{
		BlockSize:     s.cfg.RangeBlockSize,
		SummaryRank:   s.cfg.RangeSummaryRank,
		MinStitchSpan: s.cfg.RangeMinStitchSpan,
		MinFit:        s.cfg.RangeMinFit,
	})}
	s.mu.Lock()
	s.nextStream++
	sess.id = fmt.Sprintf("s-%06d", s.nextStream)
	s.streams[sess.id] = sess
	s.mu.Unlock()
	return sess
}

func (s *Server) lookupStream(id string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.streams[id]
}

// statusLocked snapshots the session; callers hold sess.mu.
func (sess *session) statusLocked() StreamResponse {
	return StreamResponse{
		StreamID:      sess.id,
		Len:           sess.st.Len(),
		Shape:         sess.st.Shape(),
		StorageFloats: sess.st.StorageFloats(),
	}
}

// handleStreamCreate is POST /v1/streams: open a session. The config's
// ranks must match the order of the chunks that will be appended; the
// temporal (last) rank applies to the growing mode.
func (s *Server) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeAdmissionError(w, r, nil, errDraining)
		return
	}
	var req StreamRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if err := req.Config.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, wireError(err))
		return
	}
	if werr := s.stampKernelProfile(&req.Config); werr != nil {
		writeError(w, http.StatusBadRequest, werr)
		return
	}
	sess := s.newSession(req.Config, req.Trace)
	sess.mu.Lock()
	resp := sess.statusLocked()
	sess.mu.Unlock()
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleStreamGet(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupStream(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, &WireError{Kind: KindNotFound, Message: "no such stream"})
		return
	}
	sess.mu.Lock()
	resp := sess.statusLocked()
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	_, ok := s.streams[r.PathValue("id")]
	delete(s.streams, r.PathValue("id"))
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, &WireError{Kind: KindNotFound, Message: "no such stream"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

// handleStreamAppend is POST /v1/streams/{id}/append: compress a chunk into
// the stream, synchronously — by the time the response arrives the chunk is
// part of the compressed state. Appends honour request cancellation; a
// failed or cancelled append leaves the stream unchanged (the library
// guarantees no partial slices are retained).
func (s *Server) handleStreamAppend(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupStream(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, &WireError{Kind: KindNotFound, Message: "no such stream"})
		return
	}
	if s.draining.Load() {
		s.writeAdmissionError(w, r, nil, errDraining)
		return
	}
	var req AppendRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	chunk, err := decodeTensor(req.TensorB64)
	if err != nil {
		writeError(w, http.StatusBadRequest, &WireError{Kind: KindInvalidInput, Message: err.Error()})
		return
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()
	if err := sess.st.AppendContext(r.Context(), chunk); err != nil {
		we := wireError(err)
		status := http.StatusBadRequest
		if we.Kind == KindInternal || we.Kind == KindPanic {
			status = http.StatusInternalServerError
		}
		writeError(w, status, we)
		return
	}
	// Best-effort eager indexing: fold the new steps into the range index's
	// node cache so later range queries hit warm summaries. A failure here
	// only loses the warm-up — queries rebuild nodes lazily — so it must not
	// fail the append.
	if err := sess.idx.Advance(r.Context()); err != nil {
		s.cfg.Logf("stream %s: range-index advance: %v", sess.id, err)
	}
	writeJSON(w, http.StatusOK, sess.statusLocked())
}

// handleStreamDecompose is POST /v1/streams/{id}/decompose: queue a
// full-stream solve. The job holds the session lock while it runs, so
// concurrent appends wait for it. Uncached by design — see session.
func (s *Server) handleStreamDecompose(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupStream(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, &WireError{Kind: KindNotFound, Message: "no such stream"})
		return
	}
	var req SolveRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	lane, werr := requestLane(r, laneBatch)
	if werr != nil {
		writeError(w, http.StatusBadRequest, werr)
		return
	}
	j := s.newStreamJob(sess, time.Duration(req.TimeoutMs)*time.Millisecond, "",
		func(ctx context.Context) (*core.Decomposition, error) {
			return sess.st.DecomposeContext(ctx)
		})
	j.requestID = requestID(r)
	j.tenant = requestTenant(r)
	j.lane = lane
	if err := s.admit(j); err != nil {
		j.cancel()
		s.writeAdmissionError(w, r, j, err)
		return
	}
	s.emitAdmission(j, "accept", "")
	annotateJob(r, j, "accept")
	s.respondSubmitted(w, j, http.StatusAccepted)
}

// handleStreamRangeGet is GET /v1/streams/{id}/range?t0=&t1=: queue a
// time-range query over steps [t0, t1). GET fits the operation — a range
// query reads the stream, mutating nothing an idempotent retry could
// observe — and makes range URLs addressable (curl, dashboards, HTTP
// caches). Bounds are validated up front with typed invalid_input errors;
// the optional timeout_ms parameter mirrors SolveRequest.TimeoutMs.
func (s *Server) handleStreamRangeGet(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupStream(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, &WireError{Kind: KindNotFound, Message: "no such stream"})
		return
	}
	q := r.URL.Query()
	t0, err := strconv.Atoi(q.Get("t0"))
	if err != nil {
		writeError(w, http.StatusBadRequest, &WireError{Kind: KindInvalidInput,
			Message: fmt.Sprintf("range: t0 %q is not an integer", q.Get("t0"))})
		return
	}
	t1, err := strconv.Atoi(q.Get("t1"))
	if err != nil {
		writeError(w, http.StatusBadRequest, &WireError{Kind: KindInvalidInput,
			Message: fmt.Sprintf("range: t1 %q is not an integer", q.Get("t1"))})
		return
	}
	var timeoutMs int64
	if v := q.Get("timeout_ms"); v != "" {
		timeoutMs, err = strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, &WireError{Kind: KindInvalidInput,
				Message: fmt.Sprintf("range: timeout_ms %q is not an integer", v)})
			return
		}
	}
	s.submitRange(w, r, sess, t0, t1, timeoutMs)
}

// submitRange queues (or cache-answers) a range query for
// handleStreamRangeGet. Results are cached under rangeKey — the session and
// the bounds — which stays valid across later appends (see session), so no
// submission-time staleness check is needed. The job asks the session's
// range index, which stitches the answer from O(log T) cached node
// summaries or falls back to a direct DecomposeRange.
func (s *Server) submitRange(w http.ResponseWriter, r *http.Request, sess *session, t0, t1 int, timeoutMs int64) {
	lane, werr := requestLane(r, laneInteractive)
	if werr != nil {
		writeError(w, http.StatusBadRequest, werr)
		return
	}
	sess.mu.Lock()
	n := sess.st.Len()
	if t0 < 0 || t0 >= t1 || t1 > n {
		sess.mu.Unlock()
		writeError(w, http.StatusBadRequest, &WireError{Kind: KindInvalidInput,
			Message: fmt.Sprintf("range: [%d, %d) is not a valid window into a stream of %d steps", t0, t1, n)})
		return
	}
	sess.mu.Unlock()
	key := rangeKey(sess.id, t0, t1)
	if dec, ok := s.cache.Get(key); ok {
		s.respondCacheHit(w, r, key, dec, sess)
		return
	}
	j := s.newStreamJob(sess, time.Duration(timeoutMs)*time.Millisecond, key,
		func(ctx context.Context) (*core.Decomposition, error) {
			dec, _, err := sess.idx.Query(ctx, t0, t1)
			return dec, err
		})
	j.requestID = requestID(r)
	j.tenant = requestTenant(r)
	// Range queries are the interactive workload: they dispatch ahead of
	// every queued batch solve unless the client explicitly demotes them.
	j.lane = lane
	if err := s.admit(j); err != nil {
		j.cancel()
		s.writeAdmissionError(w, r, j, err)
		return
	}
	s.emitAdmission(j, "accept", "")
	annotateJob(r, j, "accept")
	s.respondSubmitted(w, j, http.StatusAccepted)
}

// newStreamJob wraps a session operation as a queued job. The exec closure
// runs under the session lock; the job reports the session's cumulative
// collector and tracer (stream instrumentation is per-session, because the
// underlying core.Stream binds its collector at creation).
func (s *Server) newStreamJob(sess *session, timeout time.Duration, key string,
	op func(ctx context.Context) (*core.Decomposition, error)) *job {
	j := s.newJob(key, timeout, false,
		func(ctx context.Context, _ *pool.Pool, _ *metrics.Collector) (*core.Decomposition, error) {
			sess.mu.Lock()
			defer sess.mu.Unlock()
			return op(ctx)
		})
	j.col = sess.col
	j.tracer = sess.tr
	return j
}
