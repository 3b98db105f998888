package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// decodeBody decodes a JSON request body into v under the body-size limit.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, &WireError{
			Kind:    KindInvalidInput,
			Message: fmt.Sprintf("decoding request body: %v", err),
		})
		return false
	}
	return true
}

// decodeTensor decodes the base64 .ten payload of a request, applying the
// reader's corrupt-header and non-finite hardening.
func decodeTensor(b64 string) (*tensor.Dense, error) {
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return nil, fmt.Errorf("tensor_b64 is not valid base64: %w", err)
	}
	return tensor.ReadFrom(bytes.NewReader(raw))
}

// requestTenant extracts the tenant name from the X-Tenant header,
// defaulting and bounding it (an unbounded attacker-chosen tenant name
// would otherwise grow the per-tenant state maps without limit per byte
// of header).
func requestTenant(r *http.Request) string {
	t := r.Header.Get(HeaderTenant)
	if t == "" {
		return defaultTenant
	}
	if len(t) > 64 {
		t = t[:64]
	}
	return t
}

// stampKernelProfile resolves an auto-kernel-selection request against the
// server's calibrated profile: the profile's fingerprint is written into
// the config before the cache key is computed, so results are cached per
// profile and a profile change can never serve a stale entry. A request
// that explicitly names a different fingerprint is rejected — the client
// is pinning a profile this server does not run.
func (s *Server) stampKernelProfile(cfg *core.Config) *WireError {
	if cfg.SliceKernel != "auto" {
		return nil
	}
	fp := s.cfg.KernelProfile.Fingerprint()
	if cfg.KernelProfile != "" && cfg.KernelProfile != fp {
		return &WireError{
			Kind:    KindInvalidInput,
			Message: fmt.Sprintf("config names kernel profile %s but this server runs %s", cfg.KernelProfile, fp),
		}
	}
	cfg.KernelProfile = fp
	return nil
}

// handleDecompose is POST /v1/decompose: validate, answer from cache when
// possible, otherwise queue a job under admission control.
func (s *Server) handleDecompose(w http.ResponseWriter, r *http.Request) {
	var req DecomposeRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if err := req.Config.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, wireError(err))
		return
	}
	x, err := decodeTensor(req.TensorB64)
	if err != nil {
		writeError(w, http.StatusBadRequest, &WireError{Kind: KindInvalidInput, Message: err.Error()})
		return
	}
	if len(req.Config.Ranks) != x.Order() {
		writeError(w, http.StatusBadRequest, &WireError{
			Kind:    KindInvalidInput,
			Message: fmt.Sprintf("config has %d ranks for an order-%d tensor", len(req.Config.Ranks), x.Order()),
		})
		return
	}
	lane, werr := requestLane(r, laneBatch)
	if werr != nil {
		writeError(w, http.StatusBadRequest, werr)
		return
	}
	if werr := s.stampKernelProfile(&req.Config); werr != nil {
		writeError(w, http.StatusBadRequest, werr)
		return
	}
	digest, err := tensorDigest(x)
	if err != nil {
		writeError(w, http.StatusInternalServerError, &WireError{Kind: KindInternal, Message: err.Error()})
		return
	}
	key := cacheKey(digest, req.Config)
	tenant := requestTenant(r)
	rid := requestID(r)

	if dec, ok := s.cache.Get(key); ok {
		s.respondCacheHit(w, r, key, dec, nil)
		return
	}

	cfg := req.Config
	var j *job
	j = s.newJob(key, time.Duration(req.TimeoutMs)*time.Millisecond, req.Trace,
		func(ctx context.Context, pl *pool.Pool, col *metrics.Collector) (*core.Decomposition, error) {
			opts := cfg.Options()
			opts.Context = ctx
			opts.Pool = pl
			opts.Metrics = col
			opts.Profile = s.cfg.KernelProfile
			if s.dur != nil && j.persist.Load() {
				opts.CheckpointSink = s.checkpointSink(j)
			}
			return core.Decompose(x, opts)
		})
	j.requestID = rid
	j.tenant = tenant
	j.lane = lane
	if s.dur != nil {
		// Marked durable before admission so the runner (which may pick the
		// job up the instant it is enqueued) sees both the flag and the
		// barrier below.
		j.persist.Store(true)
		j.durableReady = make(chan struct{})
	}
	leader, err := s.admitOrCoalesce(j)
	if err != nil {
		j.cancel() // release the job context; it will never run
		s.writeAdmissionError(w, r, j, err)
		return
	}
	if leader != nil {
		s.emitAdmission(j, "coalesce", leader.id)
		annotateJob(r, j, "coalesce")
	} else {
		s.emitAdmission(j, "accept", "")
		annotateJob(r, j, "accept")
	}
	if s.dur != nil {
		// The durability commit happens after admission but before the 202
		// is written: an acknowledged durable job survives a process kill.
		// Followers are journaled too — after a restart they coalesce back
		// onto their (also journaled) leader. Closing the barrier releases
		// the runner, so no later record can precede this one.
		s.persistAccepted(j, x, cfg, digest)
		close(j.durableReady)
	}
	s.respondSubmitted(w, j, http.StatusAccepted)
}

// respondCacheHit answers a submission straight from the result cache. The
// job record is born done and needs no queue slot; it is registered so the
// usual status and result URLs serve it. A range query (sess non-nil) runs
// in the interactive lane and reports its session's collector and tracer.
func (s *Server) respondCacheHit(w http.ResponseWriter, r *http.Request, key string, dec *core.Decomposition, sess *session) {
	j := s.newJob(key, 0, false, nil)
	j.requestID = requestID(r)
	j.tenant = requestTenant(r)
	if sess != nil {
		j.lane = laneInteractive
		j.col = sess.col
		j.tracer = sess.tr
	}
	j.state = StateDone
	j.dec = dec
	j.cacheHit = true
	j.started = j.created
	j.finished = j.created
	s.register(j)
	s.submitted.Add(1)
	s.completed.Add(1)
	s.schedMu.Lock()
	s.sched.cacheHitLocked(j.tenant)
	s.schedMu.Unlock()
	s.emitAdmission(j, "cache_hit", "")
	annotateJob(r, j, "cache_hit")
	s.respondSubmitted(w, j, http.StatusOK)
}

func (s *Server) respondSubmitted(w http.ResponseWriter, j *job, status int) {
	j.mu.Lock()
	resp := SubmitResponse{
		JobID:     j.id,
		RequestID: j.requestID,
		State:     j.state,
		CacheHit:  j.cacheHit,
		Coalesced: j.coalesced,
		StatusURL: "/v1/jobs/" + j.id,
		ResultURL: "/v1/jobs/" + j.id + "/result",
	}
	j.mu.Unlock()
	writeJSON(w, status, resp)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, &WireError{Kind: KindNotFound, Message: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleJobResult is GET /v1/jobs/{id}/result: the decomposition payload,
// as .dtd binary by default or JSON with ?format=json. A job that is not
// done yet answers 409 with its current state.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, &WireError{Kind: KindNotFound, Message: "no such job"})
		return
	}
	dec := j.result()
	if dec == nil && s.dur != nil {
		// A job restored from the journal holds only its result summary; the
		// payload comes from its spill file on first fetch.
		if st := j.status(); st.State == StateDone && st.ResultURL != "" {
			restored, err := s.loadRestoredResult(j)
			if err != nil {
				s.cfg.Logf("job %s: %v", j.id, err)
				writeError(w, http.StatusInternalServerError, wireError(err))
				return
			}
			dec = restored
		}
	}
	if dec == nil {
		st := j.status()
		if st.Error != nil {
			writeError(w, http.StatusConflict, st.Error)
			return
		}
		writeError(w, http.StatusConflict, &WireError{
			Kind:    KindConflict,
			Message: fmt.Sprintf("job is %s; poll %s until done", st.State, "/v1/jobs/"+j.id),
		})
		return
	}
	switch r.URL.Query().Get("format") {
	case "", "binary", "dtd":
		w.Header().Set("Content-Type", "application/octet-stream")
		serStart := time.Now()
		_, err := dec.WriteTo(w)
		if j.ownTracer {
			// The serialize phase joins the job's span tree retroactively —
			// result fetches happen long after the compute spans closed.
			j.tracer.Record(0, "server:serialize", trace.NoIdx, serStart, time.Since(serStart))
		}
		if err != nil {
			s.cfg.Logf("job %s: writing result: %v", j.id, err)
		}
	case "json":
		writeJSON(w, http.StatusOK, dec)
	default:
		writeError(w, http.StatusBadRequest, &WireError{
			Kind:    KindInvalidInput,
			Message: "unknown format (want binary or json)",
		})
	}
}

// handleJobTrace is GET /v1/jobs/{id}/trace: the span trace recorded for a
// job submitted with "trace": true, as JSONL (default) or Chrome trace
// JSON with ?format=chrome.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, &WireError{Kind: KindNotFound, Message: "no such job"})
		return
	}
	if j.tracer == nil {
		writeError(w, http.StatusNotFound, &WireError{
			Kind:    KindNotFound,
			Message: "job was not submitted with trace enabled",
		})
		return
	}
	var format trace.Format
	switch r.URL.Query().Get("format") {
	case "", "jsonl":
		format = trace.FormatJSONL
		w.Header().Set("Content-Type", "application/jsonl")
	case "chrome":
		format = trace.FormatChrome
		w.Header().Set("Content-Type", "application/json")
	default:
		writeError(w, http.StatusBadRequest, &WireError{
			Kind:    KindInvalidInput,
			Message: "unknown format (want jsonl or chrome)",
		})
		return
	}
	if err := j.tracer.Export(w, format); err != nil {
		s.cfg.Logf("job %s: writing trace: %v", j.id, err)
	}
}

// handleJobCancel is DELETE /v1/jobs/{id}: cancel a queued or running job.
// A queued job leaves the queue before the response is written, so its
// queue slot and tenant quota are free when the DELETE returns; its
// coalesced followers are cancelled with it. A running job transitions to
// cancelled when the decomposition observes the context, at the next phase
// or sweep boundary. Cancelling a coalesced follower detaches only that
// record — the leader (and any other followers) keep running.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, &WireError{Kind: KindNotFound, Message: "no such job"})
		return
	}
	j.userCancelled.Store(true) // only client DELETEs journal a cancelled record
	j.cancel()
	if !j.coalesced {
		s.withdraw(j)
	} else {
		// Followers have no runner watching their context; finish them
		// here. finish is idempotent, so racing with the leader's
		// completion keeps whichever outcome landed first.
		if j.finish(nil, context.Canceled, false, time.Now()) {
			s.persistFinished(j, nil, context.Canceled, true, "", "")
		}
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	status := http.StatusOK
	if h.Status != "ok" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}
