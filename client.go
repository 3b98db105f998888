package repro

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

// Wire types of the dtuckerd serving API, shared with the server so client
// and daemon cannot drift.
type (
	// SubmitResponse acknowledges an accepted or cache-answered job.
	SubmitResponse = server.SubmitResponse
	// JobStatus is the job record served at GET /v1/jobs/{id}.
	JobStatus = server.JobStatus
	// StreamResponse describes a stream session.
	StreamResponse = server.StreamResponse
	// Health is the body of GET /healthz.
	Health = server.Health
)

// APIError is a typed error from the dtuckerd API. Kind mirrors the
// library's error taxonomy (see the server.Kind* constants) so HTTP
// clients can switch on it the way library callers switch on errors.Is;
// RetryAfter is set on 429 rejections.
type APIError struct {
	StatusCode int
	Kind       string
	Message    string
	Phase      string
	RetryAfter time.Duration
	// RequestID is the correlation ID echoed in the X-Request-ID response
	// header; quote it when filing the failure against the daemon's
	// structured log and flight recorder. Set even on 429/503 rejections.
	RequestID string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("dtuckerd: %s (%s, HTTP %d)", e.Message, e.Kind, e.StatusCode)
}

// Client talks to a dtuckerd daemon. The zero value is not usable; create
// one with NewClient. Methods are safe for concurrent use.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:7171".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// PollInterval is the initial result-polling cadence of Decompose;
	// it backs off geometrically to 16× this value. Default 25ms.
	PollInterval time.Duration
	// Tenant, when non-empty, is sent as the X-Tenant header on every
	// request: the daemon charges this tenant's quota and fair-queueing
	// share for the client's jobs. Empty means tenant "default".
	Tenant string
	// Priority, when non-empty, is sent as the X-Priority header
	// ("interactive" or "batch"), overriding the endpoint's default lane.
	Priority string
	// Retry governs Decompose's automatic retry of 429 (queue full /
	// tenant quota) rejections and of transient transport failures while
	// polling an accepted job — connection refused/reset during a daemon
	// restart, or a proxy answering 502/503/504 while it comes back. With a
	// durable daemon (-data-dir) the accepted job survives the restart, so
	// a poll that rides through it completes normally. Nil means
	// DefaultRetryPolicy. Submit never retries — it surfaces errors so
	// callers can implement their own policy.
	Retry *RetryPolicy
}

// RetryPolicy bounds the automatic retry of 429 load-shed rejections.
// Each failed attempt waits the server's Retry-After hint when present,
// otherwise BaseDelay doubled per attempt; the wait is capped at MaxDelay
// and stretched by a random jitter fraction so synchronized clients do not
// re-arrive in lockstep. The context passed to Decompose cuts the whole
// interaction short, including mid-wait.
type RetryPolicy struct {
	// MaxAttempts is the total number of submission attempts (first try
	// included). Values below 1 mean the DefaultRetryPolicy value.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff used when the server sends
	// no Retry-After hint. Default 100ms.
	BaseDelay time.Duration
	// MaxDelay caps each wait. Default 5s.
	MaxDelay time.Duration
	// Jitter is the fraction of each wait added uniformly at random:
	// wait' = wait · (1 + Jitter·U[0,1)). 0 means the default 0.5;
	// negative disables jitter.
	Jitter float64

	// Sleep and Rand are deterministic-test seams. Sleep defaults to a
	// context-aware timer wait; Rand defaults to a process-wide PRNG
	// returning values in [0, 1).
	Sleep func(ctx context.Context, d time.Duration) error
	Rand  func() float64
}

// DefaultRetryPolicy is the policy Decompose uses when Client.Retry is nil:
// up to 8 attempts, 100ms base delay doubling per attempt, 5s cap, 0.5
// jitter fraction.
var DefaultRetryPolicy = RetryPolicy{
	MaxAttempts: 8,
	BaseDelay:   100 * time.Millisecond,
	MaxDelay:    5 * time.Second,
	Jitter:      0.5,
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = DefaultRetryPolicy.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultRetryPolicy.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultRetryPolicy.MaxDelay
	}
	if p.Jitter == 0 {
		p.Jitter = DefaultRetryPolicy.Jitter
	}
	if p.Sleep == nil {
		p.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	if p.Rand == nil {
		p.Rand = rand.Float64
	}
	return p
}

// wait returns the delay before retry attempt (attempt is 1-based: the
// number of submission attempts already failed), honouring the server's
// Retry-After hint when present.
func (p RetryPolicy) wait(attempt int, retryAfter time.Duration) time.Duration {
	d := retryAfter
	if d <= 0 {
		d = p.BaseDelay << (attempt - 1)
		if d <= 0 { // shift overflow
			d = p.MaxDelay
		}
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	if p.Jitter > 0 {
		d += time.Duration(p.Jitter * p.Rand() * float64(d))
	}
	return d
}

// NewClient returns a client for the daemon at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// setIdentity stamps the admission-identity headers on a request.
func (c *Client) setIdentity(req *http.Request) {
	if c.Tenant != "" {
		req.Header.Set(server.HeaderTenant, c.Tenant)
	}
	if c.Priority != "" {
		req.Header.Set(server.HeaderPriority, c.Priority)
	}
}

// SubmitOptions are the per-job knobs of Submit beyond the Config.
type SubmitOptions struct {
	// Timeout bounds the job's execution time once it starts running.
	Timeout time.Duration
	// Trace records a span trace, retrievable from the job record.
	Trace bool
	// RequestID is the correlation ID sent as the X-Request-ID header.
	// Empty means the client generates one, so every submission is
	// correlatable against the daemon's structured log; the ID used is
	// echoed back in SubmitResponse.RequestID.
	RequestID string
}

// do issues one JSON request and decodes a 2xx JSON response into out
// (unless out is nil). Non-2xx responses decode into an *APIError. A
// non-empty reqID travels as the X-Request-ID header, correlating the
// request with the daemon's structured log; empty lets the daemon mint one.
func (c *Client) do(ctx context.Context, method, path, reqID string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set(server.HeaderRequestID, reqID)
	}
	c.setIdentity(req)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeAPIError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func decodeAPIError(resp *http.Response) error {
	apiErr := &APIError{StatusCode: resp.StatusCode, Kind: server.KindInternal}
	var env struct {
		Error *server.WireError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err == nil && env.Error != nil {
		apiErr.Kind = env.Error.Kind
		apiErr.Message = env.Error.Message
		apiErr.Phase = env.Error.Phase
	} else {
		apiErr.Message = resp.Status
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		apiErr.RetryAfter = parseRetryAfter(ra, time.Now)
	}
	apiErr.RequestID = resp.Header.Get(server.HeaderRequestID)
	return apiErr
}

// parseRetryAfter parses a Retry-After header value in either RFC 9110
// form: delta-seconds, or an HTTP-date (proxies and load balancers commonly
// rewrite the former into the latter). Negative delays — past dates, or a
// server sending a negative delta — clamp to zero, meaning "retry now";
// unparseable values return zero so the caller falls back to its default
// backoff. The clock is injected for testability.
func parseRetryAfter(v string, now func() time.Time) time.Duration {
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		return max(t.Sub(now()), 0)
	}
	return 0
}

// isTransient reports whether one failed round-trip is worth retrying on
// the assumption the daemon is restarting: any transport-level error that
// is not the caller's own context ending (connection refused while the
// process is down, connection reset when it died mid-response), and the
// gateway statuses 502/503/504 a fronting proxy answers while the backend
// is away. Typed API errors other than those — 404 for a job the daemon
// genuinely does not know, 409, 4xx validation — are final.
func isTransient(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch apiErr.StatusCode {
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// retryTransient runs op, retrying transient failures (isTransient) under
// the policy's backoff until one attempt succeeds, fails permanently, or
// MaxAttempts attempts are spent. The last error is returned unwrapped so
// callers still see the underlying *APIError or transport error.
func retryTransient[T any](ctx context.Context, policy RetryPolicy, op func() (T, error)) (T, error) {
	var zero T
	for attempt := 1; ; attempt++ {
		v, err := op()
		if err == nil {
			return v, nil
		}
		if !isTransient(err) || attempt >= policy.MaxAttempts {
			return zero, err
		}
		var retryAfter time.Duration
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			retryAfter = apiErr.RetryAfter
		}
		if serr := policy.Sleep(ctx, policy.wait(attempt, retryAfter)); serr != nil {
			return zero, serr
		}
	}
}

// Submit posts one decomposition job and returns its receipt without
// waiting for it to run. A full queue surfaces as an *APIError with
// StatusCode 429 and RetryAfter set; Decompose retries that automatically.
func (c *Client) Submit(ctx context.Context, x *Tensor, cfg Config, opts *SubmitOptions) (*SubmitResponse, error) {
	if x == nil {
		return nil, fmt.Errorf("repro: Submit: nil tensor")
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("repro: serializing tensor: %w", err)
	}
	req := server.DecomposeRequest{
		Config:    cfg,
		TensorB64: base64.StdEncoding.EncodeToString(buf.Bytes()),
	}
	rid := ""
	if opts != nil {
		req.TimeoutMs = opts.Timeout.Milliseconds()
		req.Trace = opts.Trace
		rid = opts.RequestID
	}
	if rid == "" {
		rid = obs.NewRequestID()
	}
	var resp SubmitResponse
	if err := c.do(ctx, http.MethodPost, "/v1/decompose", rid, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// CreateStream opens a streaming-decomposition session. The config's ranks
// must match the order of the chunks Append will feed it; the temporal
// (last) rank applies to the growing mode.
func (c *Client) CreateStream(ctx context.Context, cfg Config) (*StreamResponse, error) {
	var resp StreamResponse
	if err := c.do(ctx, http.MethodPost, "/v1/streams", "", server.StreamRequest{Config: cfg}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Append compresses one chunk into a stream, synchronously: when Append
// returns, the chunk is part of the stream's compressed state.
func (c *Client) Append(ctx context.Context, streamID string, chunk *Tensor) (*StreamResponse, error) {
	if chunk == nil {
		return nil, fmt.Errorf("repro: Append: nil tensor")
	}
	var buf bytes.Buffer
	if _, err := chunk.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("repro: serializing tensor: %w", err)
	}
	req := server.AppendRequest{TensorB64: base64.StdEncoding.EncodeToString(buf.Bytes())}
	var resp StreamResponse
	if err := c.do(ctx, http.MethodPost, "/v1/streams/"+url.PathEscape(streamID)+"/append", "", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Range submits a time-range query over steps [t0, t1) of a stream via
// GET /v1/streams/{id}/range and returns the job receipt without waiting.
// Invalid windows (t0 ≥ t1, out of bounds) fail fast with an *APIError of
// kind invalid_input. Only a window answered before (an exact-window cache
// hit) is answered immediately, with SubmitResponse.CacheHit set; any other
// window, even one the range index can stitch, is a queued job. Tracing
// follows the stream session's own trace flag, so SubmitOptions.Trace is
// ignored here.
func (c *Client) Range(ctx context.Context, streamID string, t0, t1 int, opts *SubmitOptions) (*SubmitResponse, error) {
	path := fmt.Sprintf("/v1/streams/%s/range?t0=%d&t1=%d", url.PathEscape(streamID), t0, t1)
	rid := ""
	if opts != nil {
		if opts.Timeout > 0 {
			path += fmt.Sprintf("&timeout_ms=%d", opts.Timeout.Milliseconds())
		}
		rid = opts.RequestID
	}
	if rid == "" {
		rid = obs.NewRequestID()
	}
	var resp SubmitResponse
	if err := c.do(ctx, http.MethodGet, path, rid, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// RangeResult is the blocking convenience path for range queries,
// mirroring Decompose: submit via Range, retry 429 load-shed rejections
// under the client's RetryPolicy, poll until the job finishes (riding
// through transient transport failures), and fetch the result. One request
// ID covers the whole interaction. The returned decomposition is
// bit-identical to what the daemon's range engine produced for the first
// query of this window — cache hits replay the identical payload.
func (c *Client) RangeResult(ctx context.Context, streamID string, t0, t1 int, opts *SubmitOptions) (*Decomposition, error) {
	return c.submitAndAwait(ctx, opts, func(o *SubmitOptions) (*SubmitResponse, error) {
		return c.Range(ctx, streamID, t0, t1, o)
	})
}

// Job fetches the current job record.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	return c.job(ctx, id, "")
}

func (c *Client) job(ctx context.Context, id, reqID string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, reqID, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Cancel requests cancellation of a queued or running job; the job
// transitions to cancelled at its next phase or sweep boundary.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, "", nil, nil)
}

// Result fetches a finished job's decomposition (the .dtd binary payload,
// decoded and validated). A job that is not done yet returns an *APIError.
func (c *Client) Result(ctx context.Context, id string) (*Decomposition, error) {
	return c.result(ctx, id, "")
}

func (c *Client) result(ctx context.Context, id, reqID string) (*Decomposition, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	if reqID != "" {
		req.Header.Set(server.HeaderRequestID, reqID)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeAPIError(resp)
	}
	return core.ReadDecomposition(resp.Body)
}

// Health fetches /healthz. A draining daemon answers with HTTP 503, which
// still carries the health body; that case returns the body and no error.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return nil, decodeAPIError(resp)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Decompose is the blocking convenience path: submit, retry 429 load-shed
// rejections under the client's RetryPolicy (bounded attempts, Retry-After
// hint honoured, exponential backoff with jitter), poll until the job
// finishes, and fetch the result. When every attempt is shed, the last
// *APIError is returned with its StatusCode still 429 so callers can keep
// distinguishing overload from failure. Transient transport failures while
// polling or fetching the result — the daemon restarting, a proxy's
// 502/503/504 — retry under the same policy, so a poll rides through a
// crash-and-recover of a durable daemon. The returned decomposition is
// bit-identical to running DecomposeContext(ctx, x, cfg.Options())
// in-process — the daemon runs the same deterministic library. ctx bounds
// the whole interaction, including backoff waits.
func (c *Client) Decompose(ctx context.Context, x *Tensor, cfg Config, opts *SubmitOptions) (*Decomposition, error) {
	return c.submitAndAwait(ctx, opts, func(o *SubmitOptions) (*SubmitResponse, error) {
		return c.Submit(ctx, x, cfg, o)
	})
}

// submitAndAwait is the body of the blocking paths (Decompose,
// RangeResult): submit, retrying 429 load-shed rejections under the
// client's RetryPolicy, then await the job's result. One request ID covers
// the whole interaction — submit retries, polls, and the result fetch — so
// the daemon's log tells a single story even when the first attempts are
// shed.
func (c *Client) submitAndAwait(ctx context.Context, opts *SubmitOptions, submit func(*SubmitOptions) (*SubmitResponse, error)) (*Decomposition, error) {
	policy := DefaultRetryPolicy
	if c.Retry != nil {
		policy = *c.Retry
	}
	policy = policy.withDefaults()

	var o SubmitOptions
	if opts != nil {
		o = *opts
	}
	if o.RequestID == "" {
		o.RequestID = obs.NewRequestID()
	}
	for attempt := 1; ; attempt++ {
		receipt, err := submit(&o)
		if err == nil {
			return c.awaitResult(ctx, policy, receipt.JobID, o.RequestID)
		}
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests || attempt >= policy.MaxAttempts {
			return nil, err
		}
		if serr := policy.Sleep(ctx, policy.wait(attempt, apiErr.RetryAfter)); serr != nil {
			return nil, serr
		}
	}
}

// awaitResult polls one accepted job to a terminal state and fetches its
// payload, retrying transient transport failures under policy. rid is the
// request ID threaded through every poll and the final fetch.
func (c *Client) awaitResult(ctx context.Context, policy RetryPolicy, jobID, rid string) (*Decomposition, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	maxInterval := 16 * interval
	for {
		st, err := retryTransient(ctx, policy, func() (*JobStatus, error) {
			return c.job(ctx, jobID, rid)
		})
		if err != nil {
			return nil, err
		}
		switch st.State {
		case server.StateDone:
			return retryTransient(ctx, policy, func() (*Decomposition, error) {
				return c.result(ctx, jobID, rid)
			})
		case server.StateFailed, server.StateCancelled:
			e := &APIError{StatusCode: http.StatusConflict, Kind: server.KindInternal, Message: "job " + st.State}
			if st.Error != nil {
				e.Kind = st.Error.Kind
				e.Message = st.Error.Message
				e.Phase = st.Error.Phase
			}
			return nil, e
		}
		select {
		case <-time.After(interval):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if interval < maxInterval {
			interval *= 2
		}
	}
}
