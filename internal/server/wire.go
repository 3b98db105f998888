package server

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/dterr"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// This file defines the JSON wire surface of the dtuckerd API. Tensors
// travel as base64-encoded .ten bytes inside the JSON envelope, so a
// request is one self-contained document; results travel as .dtd binary
// (GET /v1/jobs/{id}/result) or as Decomposition JSON with ?format=json.

// Admission-identity headers, honoured on every submission endpoint and set
// by repro.Client. A missing X-Tenant means tenant "default"; a missing
// X-Priority keeps the endpoint's default lane (batch for decompose and
// full-stream solves, interactive for range queries).
const (
	HeaderTenant   = "X-Tenant"
	HeaderPriority = "X-Priority"
)

// HeaderRequestID is the correlation header (see internal/obs): accepted
// on every request, echoed on every response.
const HeaderRequestID = obs.HeaderRequestID

// DecomposeRequest is the body of POST /v1/decompose.
type DecomposeRequest struct {
	// Config is the serializable decomposition request (see core.Config);
	// together with the tensor digest it forms the result-cache key.
	Config core.Config `json:"config"`
	// TensorB64 is the input tensor as base64 (standard encoding) of the
	// .ten binary format.
	TensorB64 string `json:"tensor_b64"`
	// TimeoutMs, when positive, bounds the decomposition's runtime once it
	// starts executing (queue wait does not count). The job fails with
	// kind "cancelled" when exceeded.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Trace records a hierarchical span trace of the run, retrievable at
	// GET /v1/jobs/{id}/trace once the job finishes.
	Trace bool `json:"trace,omitempty"`
}

// StreamRequest is the body of POST /v1/streams.
type StreamRequest struct {
	Config core.Config `json:"config"`
	// Trace attaches a span tracer to the session; every append and solve
	// records into it, and solve jobs expose it at /v1/jobs/{id}/trace.
	Trace bool `json:"trace,omitempty"`
}

// AppendRequest is the body of POST /v1/streams/{id}/append.
type AppendRequest struct {
	TensorB64 string `json:"tensor_b64"`
}

// SolveRequest is the body of POST /v1/streams/{id}/decompose. Earlier
// API versions also carried T0/T1 here for the range endpoint; range
// parameters now live in the query string of GET /v1/streams/{id}/range —
// a decompose body naming t0/t1 is rejected as an unknown field.
type SolveRequest struct {
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	Trace     bool  `json:"trace,omitempty"`
}

// SubmitResponse acknowledges an accepted (or cache-answered) job.
type SubmitResponse struct {
	JobID string `json:"job_id"`
	// RequestID is the correlation ID of the submitting request, also
	// echoed in the X-Request-ID response header; it indexes this job's
	// structured log events and flight-recorder entry.
	RequestID string `json:"request_id,omitempty"`
	State     string `json:"state"`
	CacheHit  bool   `json:"cache_hit,omitempty"`
	// Coalesced reports that the submission attached to an identical job
	// already queued or running: this record finishes when that job does,
	// with a bit-identical result, and no additional execution happens.
	Coalesced bool `json:"coalesced,omitempty"`
	// StatusURL and ResultURL are the polling endpoints for this job.
	StatusURL string `json:"status_url"`
	ResultURL string `json:"result_url"`
}

// StreamResponse describes a stream session.
type StreamResponse struct {
	StreamID string `json:"stream_id"`
	Len      int    `json:"len"`
	Shape    []int  `json:"shape,omitempty"`
	// StorageFloats is the size of the compressed stream state.
	StorageFloats int `json:"storage_floats"`
}

// JobStatus is the job record served at GET /v1/jobs/{id}.
type JobStatus struct {
	ID string `json:"id"`
	// RequestID is the correlation ID of the submitting request (restored
	// from the journal for recovered jobs).
	RequestID string `json:"request_id,omitempty"`
	State     string `json:"state"`
	// Tenant and Priority echo the admission identity the job was
	// submitted under (X-Tenant / X-Priority headers; "default" and the
	// endpoint's default lane when absent).
	Tenant    string `json:"tenant,omitempty"`
	Priority  string `json:"priority,omitempty"`
	CacheHit  bool   `json:"cache_hit,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	// Recovered marks a job reconstructed from the durability journal after
	// a server restart; Sweep is its latest durably checkpointed ALS sweep
	// (0 until the first checkpoint commits).
	Recovered bool       `json:"recovered,omitempty"`
	Sweep     int        `json:"sweep,omitempty"`
	Error     *WireError `json:"error,omitempty"`

	// CreatedMs/StartedMs/FinishedMs are Unix epoch milliseconds; zero
	// means "not yet".
	CreatedMs  int64 `json:"created_ms"`
	StartedMs  int64 `json:"started_ms,omitempty"`
	FinishedMs int64 `json:"finished_ms,omitempty"`

	// Result summary, present once the job is done. The payload itself is
	// fetched from ResultURL.
	Fit       float64 `json:"fit,omitempty"`
	Converged bool    `json:"converged,omitempty"`
	Iters     int     `json:"iters,omitempty"`
	Ranks     []int   `json:"ranks,omitempty"`

	// Metrics is the per-job collector's report (phases, counters, fit
	// trajectory), present once the job finished either way.
	Metrics *metrics.Report `json:"metrics,omitempty"`
	// TraceSpans is the number of recorded spans when the job was
	// submitted with "trace": true; fetch them from /v1/jobs/{id}/trace.
	TraceSpans int `json:"trace_spans,omitempty"`

	ResultURL string `json:"result_url,omitempty"`
}

// Health is the body of GET /healthz.
type Health struct {
	Status   string `json:"status"` // "ok" or "draining"
	QueueLen int    `json:"queue_len"`
	QueueCap int    `json:"queue_cap"`
	Running  int    `json:"running"`
	Workers  int    `json:"workers"`
}

// WireError is the typed error carried by failed jobs and 4xx responses.
// Kind is stable API; Message is human-oriented detail.
type WireError struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// Phase names the interrupted phase for kind "cancelled".
	Phase string `json:"phase,omitempty"`
}

func (e *WireError) Error() string { return e.Kind + ": " + e.Message }

// Error kinds. Every job failure maps onto exactly one of these, mirroring
// the library's error taxonomy (package dterr), so HTTP clients can switch
// on a stable string the way library callers switch on errors.Is.
const (
	KindInvalidInput   = "invalid_input"
	KindNonFinite      = "non_finite_input"
	KindBreakdown      = "numerical_breakdown"
	KindPanic          = "panic"
	KindCancelled      = "cancelled"
	KindInjected       = "injected_fault"
	KindCorruptData    = "corrupt_artifact"
	KindQueueFull      = "queue_full"
	KindTenantQuota    = "tenant_quota"
	KindDraining       = "draining"
	KindNotFound       = "not_found"
	KindConflict       = "conflict"
	KindInternal       = "internal"
	KindNotImplemented = "not_implemented"
)

// wireError converts a library error into its typed wire form.
func wireError(err error) *WireError {
	if err == nil {
		return nil
	}
	var we *WireError
	if errors.As(err, &we) {
		return we // already typed (e.g. a restored job's replayed error)
	}
	var c *dterr.CancelledError
	if errors.As(err, &c) {
		return &WireError{Kind: KindCancelled, Message: err.Error(), Phase: c.Phase}
	}
	switch {
	case errors.Is(err, dterr.ErrCorruptArtifact):
		return &WireError{Kind: KindCorruptData, Message: err.Error()}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return &WireError{Kind: KindCancelled, Message: err.Error()}
	case errors.Is(err, dterr.ErrInjected):
		return &WireError{Kind: KindInjected, Message: err.Error()}
	case errors.Is(err, dterr.ErrInvalidInput):
		return &WireError{Kind: KindInvalidInput, Message: err.Error()}
	case errors.Is(err, dterr.ErrNonFiniteInput):
		return &WireError{Kind: KindNonFinite, Message: err.Error()}
	case errors.Is(err, dterr.ErrNumericalBreakdown):
		return &WireError{Kind: KindBreakdown, Message: err.Error()}
	case errors.Is(err, dterr.ErrPanic):
		return &WireError{Kind: KindPanic, Message: err.Error()}
	default:
		return &WireError{Kind: KindInternal, Message: err.Error()}
	}
}
