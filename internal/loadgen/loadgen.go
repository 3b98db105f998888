// Package loadgen is the open-loop load harness for dtuckerd: it offers a
// configurable mixed workload (one-shot decompositions, stream range
// queries, stream appends) across weighted tenants at a target arrival
// rate, and reports goodput, shed rate, and exact end-to-end latency
// quantiles as a schema-versioned JSON Report that cmd/benchreport can
// diff against a committed baseline.
//
// The generator is open-loop: arrivals fire on a precomputed schedule
// whether or not earlier requests have completed, so a saturated server
// shows up as queue-wait latency and shed 429s instead of silently slowing
// the generator down (the closed-loop failure mode that flatters an
// overloaded system). The entire schedule — arrival times, operation mix,
// tenant, payload choice — is drawn up front from one seeded PRNG, so two
// runs with the same Spec offer the identical request sequence.
//
// Payloads are drawn from a small pool of pre-generated tensors
// (Sizes × Variants), so repeated arrivals naturally submit duplicates and
// exercise the server's result cache and singleflight coalescing the way a
// real mixed-tenant population would. See docs/OPERATIONS.md for the
// operator walkthrough and cmd/loadgen for the CLI.
package loadgen

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// Operation names accepted in Spec.Mix.
const (
	OpDecompose = "decompose" // POST /v1/decompose, poll, fetch result
	OpRange     = "range"     // GET /v1/streams/{id}/range, poll, fetch result
	OpAppend    = "append"    // POST /v1/streams/{id}/append (synchronous)
)

// TenantSpec is one tenant of the offered load. Weight is the tenant's
// share of arrivals (offered load, not the server-side WFQ weight — skewing
// the two against each other is how fairness is exercised). Priority, when
// set, is sent as the X-Priority header on the tenant's submissions.
type TenantSpec struct {
	Name     string  `json:"name"`
	Weight   float64 `json:"weight"`
	Priority string  `json:"priority,omitempty"`
}

// SizeClass is one tensor size in the payload pool.
type SizeClass struct {
	Name   string  `json:"name"`
	Shape  []int   `json:"shape"`
	Ranks  []int   `json:"ranks"`
	Weight float64 `json:"weight"`
}

// Spec configures one load run. The zero value is not runnable; Run applies
// the documented defaults to unset fields.
type Spec struct {
	// BaseURL is the daemon under test, e.g. "http://127.0.0.1:7171".
	BaseURL string
	// Duration is the arrival window; the run waits for stragglers after
	// the last arrival. Default 10s.
	Duration time.Duration
	// QPS is the target offered arrival rate. Default 8.
	QPS float64
	// Arrival is the inter-arrival distribution: "poisson" (exponential
	// gaps, the default — bursty like independent clients) or "uniform"
	// (fixed gaps).
	Arrival string
	// Seed makes the offered sequence reproducible. Default 1.
	Seed int64
	// Mix weights the operations (OpDecompose, OpRange, OpAppend) in the
	// offered load. Default 60% decompose, 30% range, 10% append.
	Mix map[string]float64
	// Tenants is the offered tenant population. Default: one tenant
	// "default" with weight 1.
	Tenants []TenantSpec
	// Sizes is the payload pool's size classes. Default: a small and a
	// medium class, 3:1.
	Sizes []SizeClass
	// Variants is the number of distinct tensors generated per size class;
	// smaller pools mean more duplicate submissions (more cache hits and
	// coalescing). Default 3.
	Variants int
	// RangeChunks is how many chunks the frozen range-query stream holds;
	// each chunk is the first size class's temporal rank thick, so the
	// stream spans RangeChunks·r_t steps. Longer streams give the server's
	// range index room to stitch (spans below its threshold fall back to
	// direct solves). Default 3.
	RangeChunks int
	// RangeWindows, when positive, draws that many distinct overlapping
	// range windows from the seeded PRNG instead of the legacy fixed set of
	// four. More distinct windows mean more exact-cache misses, which is
	// what separates a range index (misses stitch cached node summaries)
	// from the exact-range cache alone (misses re-solve from scratch).
	// Default 0: the legacy four windows, preserving old schedules.
	RangeWindows int
	// MaxInFlight caps concurrently outstanding operations; arrivals past
	// the cap are counted as DroppedClient, never silently skipped.
	// Default 256.
	MaxInFlight int
	// PollInterval is the job-status polling cadence. Default 5ms.
	PollInterval time.Duration
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Logf, when set, receives progress lines. Default: silent.
	Logf func(format string, args ...any)
}

func (s Spec) withDefaults() Spec {
	if s.Duration <= 0 {
		s.Duration = 10 * time.Second
	}
	if s.QPS <= 0 {
		s.QPS = 8
	}
	if s.Arrival == "" {
		s.Arrival = "poisson"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if len(s.Mix) == 0 {
		s.Mix = map[string]float64{OpDecompose: 0.6, OpRange: 0.3, OpAppend: 0.1}
	}
	if len(s.Tenants) == 0 {
		s.Tenants = []TenantSpec{{Name: "default", Weight: 1}}
	}
	if len(s.Sizes) == 0 {
		s.Sizes = []SizeClass{
			{Name: "small", Shape: []int{16, 14, 12}, Ranks: []int{4, 4, 4}, Weight: 3},
			{Name: "medium", Shape: []int{32, 28, 24}, Ranks: []int{6, 6, 6}, Weight: 1},
		}
	}
	if s.Variants <= 0 {
		s.Variants = 3
	}
	if s.RangeChunks <= 0 {
		s.RangeChunks = streamChunks
	}
	if s.MaxInFlight <= 0 {
		s.MaxInFlight = 256
	}
	if s.PollInterval <= 0 {
		s.PollInterval = 5 * time.Millisecond
	}
	if s.HTTPClient == nil {
		s.HTTPClient = http.DefaultClient
	}
	if s.Logf == nil {
		s.Logf = func(string, ...any) {}
	}
	return s
}

func (s Spec) validate() error {
	if s.BaseURL == "" {
		return fmt.Errorf("loadgen: BaseURL is required")
	}
	if s.Arrival != "poisson" && s.Arrival != "uniform" {
		return fmt.Errorf("loadgen: unknown arrival distribution %q (want poisson or uniform)", s.Arrival)
	}
	for op, w := range s.Mix {
		if op != OpDecompose && op != OpRange && op != OpAppend {
			return fmt.Errorf("loadgen: unknown operation %q in mix", op)
		}
		if w < 0 {
			return fmt.Errorf("loadgen: negative mix weight for %q", op)
		}
	}
	for _, sc := range s.Sizes {
		if len(sc.Shape) != len(sc.Ranks) || len(sc.Shape) < 3 {
			return fmt.Errorf("loadgen: size class %q needs matching shape and ranks of order ≥ 3", sc.Name)
		}
	}
	return nil
}

// arrival is one precomputed offered request.
type arrival struct {
	at      time.Duration
	op      string
	tenant  int
	size    int
	variant int
	t0, t1  int // range window (OpRange only)
}

// streamChunks is the default number of chunks appended to the range-query
// stream during preparation (see Spec.RangeChunks); each chunk is
// ranks[last] steps thick, so the stream holds RangeChunks·r_t time steps.
const streamChunks = 3

// weightedPick returns an index drawn proportionally to weights (all-zero
// weights degenerate to index 0, deterministically).
func weightedPick(rng *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return 0
	}
	x := rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// buildSchedule draws the full offered sequence up front: every arrival's
// time, operation, tenant, and payload. Range windows are drawn from a
// fixed set of four overlapping windows so repeated queries exercise the
// range-result cache.
func buildSchedule(spec Spec, rng *rand.Rand) []arrival {
	n := int(math.Round(spec.QPS * spec.Duration.Seconds()))
	if n < 1 {
		n = 1
	}
	gap := float64(spec.Duration) / float64(n)

	opNames := make([]string, 0, len(spec.Mix))
	for op := range spec.Mix {
		opNames = append(opNames, op)
	}
	sort.Strings(opNames) // map order must not perturb the drawn sequence
	opWeights := make([]float64, len(opNames))
	for i, op := range opNames {
		opWeights[i] = spec.Mix[op]
	}
	tenantWeights := make([]float64, len(spec.Tenants))
	for i, t := range spec.Tenants {
		tenantWeights[i] = t.Weight
	}
	sizeWeights := make([]float64, len(spec.Sizes))
	for i, sc := range spec.Sizes {
		sizeWeights[i] = sc.Weight
	}

	rt := spec.Sizes[0].Ranks[len(spec.Sizes[0].Ranks)-1]
	steps := spec.RangeChunks * rt
	var windows [][2]int
	if spec.RangeWindows > 0 {
		// Distinct overlapping windows spread over the stream, drawn before
		// the arrival loop so the arrival sequence itself is unchanged by
		// the window count. Spans are at least half the stream so windows
		// overlap heavily and share index nodes.
		for i := 0; i < spec.RangeWindows; i++ {
			t0 := rng.Intn(steps / 2)
			t1 := t0 + steps/2 + rng.Intn(steps-t0-steps/2) + 1
			windows = append(windows, [2]int{t0, t1})
		}
	} else {
		windows = [][2]int{
			{0, steps},
			{0, steps - rt/2},
			{rt / 2, steps},
			{rt, steps},
		}
	}

	sched := make([]arrival, n)
	var t float64
	for i := range sched {
		switch spec.Arrival {
		case "uniform":
			t += gap
		default: // poisson: exponential inter-arrival times with mean gap
			t += rng.ExpFloat64() * gap
		}
		a := arrival{
			at:      time.Duration(t),
			op:      opNames[weightedPick(rng, opWeights)],
			tenant:  weightedPick(rng, tenantWeights),
			size:    weightedPick(rng, sizeWeights),
			variant: rng.Intn(spec.Variants),
		}
		if a.op == OpRange {
			w := windows[rng.Intn(len(windows))]
			a.t0, a.t1 = w[0], w[1]
		}
		sched[i] = a
	}
	return sched
}

// result is one finished operation, as fed to the aggregator.
type result struct {
	op      string
	tenant  string
	outcome string // "ok", "shed", "failed", "dropped"
	lat     time.Duration
	coal    bool
	hit     bool
	// rid is the request ID the harness stamped on the operation; the
	// report's slowest exemplars carry it so an outlier quantile can be
	// chased into the daemon's structured log by ID.
	rid string
}

// Run executes the load against spec.BaseURL and aggregates the report.
// ctx aborts the run early; operations already in flight are abandoned
// (counted as failed) and the report covers what was offered up to then.
func Run(ctx context.Context, spec Spec) (*Report, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	sched := buildSchedule(spec, rng)

	e := &engine{spec: spec}
	if err := e.prepare(ctx, rng); err != nil {
		return nil, err
	}
	spec.Logf("loadgen: offering %d arrivals over %v (%s, %.3g qps) to %s",
		len(sched), spec.Duration, spec.Arrival, spec.QPS, spec.BaseURL)

	results := make(chan result, len(sched))
	sem := make(chan struct{}, spec.MaxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for _, a := range sched {
		if d := a.at - time.Since(start); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			// Count the rest of the schedule as never offered.
			break
		}
		a := a
		select {
		case sem <- struct{}{}:
		default:
			results <- result{op: a.op, tenant: spec.Tenants[a.tenant].Name, outcome: "dropped"}
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			results <- e.execute(ctx, a, start)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(results)

	return e.aggregate(results, elapsed), nil
}

// engine holds the prepared payload pool and per-run state.
type engine struct {
	spec Spec

	// tensorB64[size][variant] is the pre-serialized decompose payload;
	// configs[size] its request config.
	tensorB64 [][]string
	configs   []core.Config

	queryStream  string // frozen stream for range queries
	ingestStream string // growing stream for appends
	chunkB64     []string
}

// prepare generates the payload pool and, when the mix needs them, the two
// stream sessions: a frozen one that range queries hit (so every drawn
// window stays valid, and neither its answers nor the server's work for
// them depend on when appends land) and a growing one that appends extend.
func (e *engine) prepare(ctx context.Context, rng *rand.Rand) error {
	spec := e.spec
	e.tensorB64 = make([][]string, len(spec.Sizes))
	e.configs = make([]core.Config, len(spec.Sizes))
	for i, sc := range spec.Sizes {
		e.configs[i] = core.Config{Ranks: append([]int(nil), sc.Ranks...)}
		e.tensorB64[i] = make([]string, spec.Variants)
		for v := 0; v < spec.Variants; v++ {
			seed := spec.Seed + int64(i*1000+v)
			ds := workload.LowRankNoise(append([]int(nil), sc.Shape...), sc.Ranks[0], 0.1, seed)
			b64, err := encodeTensor(ds.X)
			if err != nil {
				return err
			}
			e.tensorB64[i][v] = b64
		}
	}

	needRange := spec.Mix[OpRange] > 0
	needAppend := spec.Mix[OpAppend] > 0
	if !needRange && !needAppend {
		return nil
	}

	// Stream chunks: the first size class's shape with the temporal mode
	// cut to the temporal rank.
	sc := spec.Sizes[0]
	chunkShape := append([]int(nil), sc.Shape...)
	rt := sc.Ranks[len(sc.Ranks)-1]
	chunkShape[len(chunkShape)-1] = rt
	for v := 0; v < spec.Variants; v++ {
		ds := workload.LowRankNoise(chunkShape, sc.Ranks[0], 0.1, spec.Seed+int64(9000+v))
		b64, err := encodeTensor(ds.X)
		if err != nil {
			return err
		}
		e.chunkB64 = append(e.chunkB64, b64)
	}

	mkStream := func(chunks int) (string, error) {
		var sess server.StreamResponse
		status, werr, err := e.postJSON(ctx, "/v1/streams", "", TenantSpec{},
			server.StreamRequest{Config: e.configs[0]}, &sess)
		if err != nil {
			return "", err
		}
		if status != http.StatusCreated {
			return "", fmt.Errorf("loadgen: stream create: HTTP %d (%v)", status, werr)
		}
		for i := 0; i < chunks; i++ {
			status, werr, err := e.postJSON(ctx, "/v1/streams/"+sess.StreamID+"/append", "", TenantSpec{},
				server.AppendRequest{TensorB64: e.chunkB64[i%len(e.chunkB64)]}, nil)
			if err != nil {
				return "", err
			}
			if status != http.StatusOK {
				return "", fmt.Errorf("loadgen: prep append: HTTP %d (%v)", status, werr)
			}
		}
		return sess.StreamID, nil
	}
	if needRange {
		id, err := mkStream(spec.RangeChunks)
		if err != nil {
			return err
		}
		e.queryStream = id
	}
	if needAppend {
		id, err := mkStream(1)
		if err != nil {
			return err
		}
		e.ingestStream = id
	}
	return nil
}

func encodeTensor(x *tensor.Dense) (string, error) {
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		return "", fmt.Errorf("loadgen: serializing tensor: %w", err)
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes()), nil
}

// postJSON posts one JSON body with the tenant's admission headers and
// decodes the response: a 2xx into out (when non-nil), an error status into
// the returned WireError. A non-empty reqID travels as X-Request-ID.
func (e *engine) postJSON(ctx context.Context, path, reqID string, tenant TenantSpec,
	body, out any) (int, *server.WireError, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.spec.BaseURL+path, bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set(server.HeaderRequestID, reqID)
	}
	if tenant.Name != "" {
		req.Header.Set(server.HeaderTenant, tenant.Name)
	}
	if tenant.Priority != "" {
		req.Header.Set(server.HeaderPriority, tenant.Priority)
	}
	resp, err := e.spec.HTTPClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode <= 299 {
		if out == nil {
			io.Copy(io.Discard, resp.Body)
			return resp.StatusCode, nil, nil
		}
		return resp.StatusCode, nil, json.NewDecoder(resp.Body).Decode(out)
	}
	var env struct {
		Error *server.WireError `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&env)
	return resp.StatusCode, env.Error, nil
}

// getRange submits one range query through the first-class GET endpoint,
// carrying the same admission-identity headers a POST submission would.
func (e *engine) getRange(ctx context.Context, stream string, t0, t1 int, reqID string,
	tenant TenantSpec, out *server.SubmitResponse) (int, *server.WireError, error) {
	path := fmt.Sprintf("/v1/streams/%s/range?t0=%d&t1=%d", stream, t0, t1)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.spec.BaseURL+path, nil)
	if err != nil {
		return 0, nil, err
	}
	if reqID != "" {
		req.Header.Set(server.HeaderRequestID, reqID)
	}
	if tenant.Name != "" {
		req.Header.Set(server.HeaderTenant, tenant.Name)
	}
	if tenant.Priority != "" {
		req.Header.Set(server.HeaderPriority, tenant.Priority)
	}
	resp, err := e.spec.HTTPClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode <= 299 {
		return resp.StatusCode, nil, json.NewDecoder(resp.Body).Decode(out)
	}
	var env struct {
		Error *server.WireError `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&env)
	return resp.StatusCode, env.Error, nil
}

// getJSON fetches one JSON document, stamping reqID when non-empty.
func (e *engine) getJSON(ctx context.Context, path, reqID string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.spec.BaseURL+path, nil)
	if err != nil {
		return 0, err
	}
	if reqID != "" {
		req.Header.Set(server.HeaderRequestID, reqID)
	}
	resp, err := e.spec.HTTPClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// execute runs one offered operation end to end. Latency is measured from
// the arrival's *scheduled* time — open-loop semantics: client-side delay
// before the request got on the wire counts against the server's SLO, the
// same way a real user experiences it.
func (e *engine) execute(ctx context.Context, a arrival, start time.Time) result {
	tenant := e.spec.Tenants[a.tenant]
	rid := obs.NewRequestID()
	res := result{op: a.op, tenant: tenant.Name, rid: rid}
	scheduled := start.Add(a.at)

	var (
		receipt server.SubmitResponse
		status  int
		werr    *server.WireError
		err     error
	)
	switch a.op {
	case OpDecompose:
		status, werr, err = e.postJSON(ctx, "/v1/decompose", rid, tenant, server.DecomposeRequest{
			Config:    e.configs[a.size],
			TensorB64: e.tensorB64[a.size][a.variant],
		}, &receipt)
	case OpRange:
		status, werr, err = e.getRange(ctx, e.queryStream, a.t0, a.t1, rid, tenant, &receipt)
	case OpAppend:
		status, werr, err = e.postJSON(ctx, "/v1/streams/"+e.ingestStream+"/append", rid, tenant,
			server.AppendRequest{TensorB64: e.chunkB64[a.variant%len(e.chunkB64)]}, nil)
		if err == nil && status == http.StatusOK {
			res.outcome, res.lat = "ok", time.Since(scheduled)
			return res
		}
	}
	switch {
	case err != nil:
		res.outcome = "failed"
		return res
	case status == http.StatusTooManyRequests:
		res.outcome = "shed"
		return res
	case status != http.StatusAccepted && status != http.StatusOK:
		res.outcome = "failed"
		e.spec.Logf("loadgen: %s: HTTP %d (%v)", a.op, status, werr)
		return res
	}
	res.coal = receipt.Coalesced
	res.hit = receipt.CacheHit

	// Poll to completion, then pull the result payload: "completed" means
	// the decomposition is in hand, not merely finished server-side.
	for {
		var st server.JobStatus
		code, err := e.getJSON(ctx, "/v1/jobs/"+receipt.JobID, rid, &st)
		if err != nil || code != http.StatusOK {
			res.outcome = "failed"
			return res
		}
		switch st.State {
		case server.StateDone:
			req, err := http.NewRequestWithContext(ctx, http.MethodGet,
				e.spec.BaseURL+"/v1/jobs/"+receipt.JobID+"/result", nil)
			if err != nil {
				res.outcome = "failed"
				return res
			}
			req.Header.Set(server.HeaderRequestID, rid)
			resp, err := e.spec.HTTPClient.Do(req)
			if err != nil {
				res.outcome = "failed"
				return res
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				res.outcome = "failed"
				return res
			}
			res.outcome, res.lat = "ok", time.Since(scheduled)
			return res
		case server.StateFailed, server.StateCancelled:
			res.outcome = "failed"
			return res
		}
		select {
		case <-time.After(e.spec.PollInterval):
		case <-ctx.Done():
			res.outcome = "failed"
			return res
		}
	}
}

// aggregate folds the per-operation results into the Report.
func (e *engine) aggregate(results <-chan result, elapsed time.Duration) *Report {
	spec := e.spec
	type tally struct {
		stats OpStats
		lat   []time.Duration
		ex    []Exemplar
	}
	total := &tally{}
	ops := map[string]*tally{}
	tenants := map[string]*tally{}
	get := func(m map[string]*tally, k string) *tally {
		t, ok := m[k]
		if !ok {
			t = &tally{}
			m[k] = t
		}
		return t
	}
	record := func(t *tally, r result) {
		t.stats.Offered++
		switch r.outcome {
		case "ok":
			t.stats.Completed++
			t.lat = append(t.lat, r.lat)
			if r.rid != "" {
				t.ex = append(t.ex, Exemplar{
					RequestID: r.rid,
					LatencyMs: float64(r.lat) / float64(time.Millisecond),
				})
			}
		case "shed":
			t.stats.Shed++
		case "dropped":
			t.stats.DroppedClient++
		default:
			t.stats.Failed++
		}
		if r.coal {
			t.stats.Coalesced++
		}
		if r.hit {
			t.stats.CacheHits++
		}
	}
	for r := range results {
		record(total, r)
		record(get(ops, r.op), r)
		record(get(tenants, r.tenant), r)
	}

	finish := func(t *tally) OpStats {
		t.stats.Latency = summarize(t.lat)
		// The slowest completions, by ID: the bridge from a bad quantile in
		// this report to the matching story in the daemon's structured log.
		sort.Slice(t.ex, func(i, j int) bool { return t.ex[i].LatencyMs > t.ex[j].LatencyMs })
		if len(t.ex) > maxExemplars {
			t.ex = t.ex[:maxExemplars]
		}
		t.stats.Slowest = t.ex
		return t.stats
	}
	rep := &Report{
		Schema:          ReportSchema,
		Kind:            ReportKind,
		CreatedUTC:      time.Now().UTC().Format(time.RFC3339),
		GoVersion:       runtime.Version(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		NumCPU:          runtime.NumCPU(),
		DurationSeconds: spec.Duration.Seconds(),
		TargetQPS:       spec.QPS,
		Arrival:         spec.Arrival,
		Seed:            spec.Seed,
		Mix:             spec.Mix,
		Tenants:         spec.Tenants,
		Sizes:           spec.Sizes,
		Variants:        spec.Variants,
		MaxInFlight:     spec.MaxInFlight,
		RangeChunks:     spec.RangeChunks,
		RangeWindows:    spec.RangeWindows,
		ElapsedSeconds:  elapsed.Seconds(),
		Totals:          finish(total),
		Ops:             map[string]OpStats{},
		ByTenant:        map[string]OpStats{},
	}
	for op, t := range ops {
		rep.Ops[op] = finish(t)
	}
	for name, t := range tenants {
		rep.ByTenant[name] = finish(t)
	}
	if rep.ElapsedSeconds > 0 {
		rep.GoodputQPS = float64(rep.Totals.Completed) / rep.ElapsedSeconds
	}
	if rep.Totals.Offered > 0 {
		rep.ShedRate = float64(rep.Totals.Shed) / float64(rep.Totals.Offered)
	}
	if d := rep.Totals.DroppedClient; d > 0 {
		spec.Logf("loadgen: %d arrivals dropped client-side at MaxInFlight=%d — the report under-offers",
			d, spec.MaxInFlight)
	}
	return rep
}
