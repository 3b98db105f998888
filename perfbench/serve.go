package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/rangeidx"
	"repro/internal/server"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// The serve-mixed traffic. Every constant here is part of the workload
// definition; README.md records the unloaded measurements behind them.
const (
	// Offered load, open loop: arrivals per second over the whole mix, at
	// times drawn uniformly over the window (a Poisson process conditioned
	// on its count), so every seed offers the same number of operations.
	offeredRate = 24.0
	// Share of each operation in the mix.
	shareDecompose = 1.0 / 3
	shareRange     = 1.0 / 3
	// (the rest are appends)

	// Decompose size classes are drawn small:large = 3:1, and a quarter of
	// decompose requests repeat a tensor an earlier request sent.
	largeShare  = 0.25
	repeatShare = 0.25

	// The range stream: 48×40 frames, 4 steps per append, pre-filled to 64
	// steps. Range windows span 16–64 steps of the pre-filled part (16 is
	// the server's default stitch threshold, twice its block size of 8);
	// a fifth are "latest k steps" windows ending at the acknowledged
	// length, k in 16–32.
	streamH, streamW = 48, 40
	chunkSteps       = 4
	prefillSteps     = 64
	minSpan          = 16
	latestShare      = 0.2

	// pollEvery is the fixed job-status poll cadence.
	pollEvery = 4 * time.Millisecond
	// maxInFlight bounds concurrent operations; an arrival past it is
	// dropped and counted as failed.
	maxInFlight = 256
	// opTimeout fails an operation that has not finished by then.
	opTimeout = 60 * time.Second
)

// Latency limits, about 5× each class's unloaded median (README.md).
var limits = map[opKind]time.Duration{
	opSmall:  220 * time.Millisecond,
	opLarge:  900 * time.Millisecond,
	opRange:  32 * time.Millisecond,
	opAppend: 26 * time.Millisecond,
}

type opKind int

const (
	opSmall opKind = iota
	opLarge
	opRange
	opAppend
)

var opNames = [...]string{"decompose", "decompose", "range", "append"}

// sizeClass is one decompose request shape.
type sizeClass struct {
	shape []int
	rank  int
}

var classes = map[opKind]sizeClass{
	opSmall: {[]int{48, 40, 32}, 6},
	opLarge: {[]int{96, 72, 60}, 8},
}

var streamConfig = core.Config{Ranks: []int{6, 6, 6}}

func (c sizeClass) config() core.Config {
	return core.Config{Ranks: []int{c.rank, c.rank, c.rank}}
}

// arrival is one scheduled operation.
type arrival struct {
	at      time.Duration
	kind    opKind
	tensor  int // decompose: index into the class's tensor pool
	t0, t1  int // range: fixed window (latest == 0)
	latest  int // range: "latest k steps" window when > 0
	chunk   int // append: index of the chunk after the pre-fill
	request string
}

// schedule draws the whole offered sequence from the seed.
type schedule struct {
	arrivals []arrival
	pools    map[opKind]int // distinct tensors per decompose class
	appends  int
}

func buildSchedule(seed int64, window time.Duration) schedule {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(offeredRate * window.Seconds()))
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64() * float64(window)
	}
	sort.Float64s(times)
	// Exact shares, shuffled, so every seed offers the same count of each
	// operation.
	kinds := make([]opKind, n)
	nDec, nRange := int(float64(n)*shareDecompose), int(float64(n)*shareRange)
	for i := range kinds {
		switch {
		case i < int(float64(nDec)*largeShare):
			kinds[i] = opLarge
		case i < nDec:
			kinds[i] = opSmall
		case i < nDec+nRange:
			kinds[i] = opRange
		default:
			kinds[i] = opAppend
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	sc := schedule{pools: map[opKind]int{}}
	for i, t := range times {
		a := arrival{at: time.Duration(t), kind: kinds[i], request: fmt.Sprintf("op-%05d", i)}
		switch a.kind {
		case opSmall, opLarge:
			if have := sc.pools[a.kind]; have > 0 && rng.Float64() < repeatShare {
				a.tensor = rng.Intn(have)
			} else {
				a.tensor = have
				sc.pools[a.kind]++
			}
		case opRange:
			if rng.Float64() < latestShare {
				a.latest = minSpan + rng.Intn(minSpan+1)
			} else {
				span := minSpan + rng.Intn(prefillSteps-minSpan+1)
				a.t0 = rng.Intn(prefillSteps - span + 1)
				a.t1 = a.t0 + span
			}
		default:
			a.chunk = sc.appends
			sc.appends++
		}
		sc.arrivals = append(sc.arrivals, a)
	}
	return sc
}

// inputs are the generated payloads. Stream chunks (pre-fill first) are
// small and made up front; decompose tensors are made from their seed when
// needed, because holding every one at once would take hundreds of MiB.
type inputs struct {
	seed   int64
	chunks [][]byte // .ten bytes
}

// decomposeTensor makes tensor id of size class k from the run's seed.
func (in *inputs) decomposeTensor(k opKind, id int) *tensor.Dense {
	c := classes[k]
	return workload.LowRankNoise(c.shape, c.rank, 0.1, in.seed*1_000_003+int64(k)*100_000+int64(id)).X
}

// decomposeBody is the POST /v1/decompose request body for a.
func (in *inputs) decomposeBody(a arrival) ([]byte, error) {
	ten, err := tenBytes(in.decomposeTensor(a.kind, a.tensor))
	if err != nil {
		return nil, err
	}
	return json.Marshal(server.DecomposeRequest{
		Config:    classes[a.kind].config(),
		TensorB64: base64.StdEncoding.EncodeToString(ten),
	})
}

// genInputs makes the stream chunks: one video of the pre-fill plus every
// scheduled append, cut into chunkSteps-step pieces.
func genInputs(seed int64, sc schedule) (*inputs, error) {
	in := &inputs{seed: seed}
	steps := prefillSteps + chunkSteps*sc.appends
	video := workload.VideoLike(streamH, streamW, steps, seed).X.Data()
	frame := streamH * streamW
	for t := 0; t < steps; t += chunkSteps {
		data := append([]float64(nil), video[t*frame:(t+chunkSteps)*frame]...)
		b, err := tenBytes(tensor.NewFromData(data, streamH, streamW, chunkSteps))
		if err != nil {
			return nil, err
		}
		in.chunks = append(in.chunks, b)
	}
	return in, nil
}

func tenBytes(x *tensor.Dense) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// serveEnv is one running server under test with its client.
type serveEnv struct {
	srv     *server.Server
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	dataDir string
	stream  string
	acked   atomic.Int64 // highest stream length an append response reported
}

// startServe starts a server on a loopback listener with a live journal in
// a fresh directory under outDir, opens the range stream and pre-fills it.
func startServe(cfg runConfig, in *inputs) (*serveEnv, error) {
	dir, err := os.MkdirTemp(cfg.outDir, "serve-data-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Runners: cfg.nproc, Workers: cfg.nproc, DataDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	e := &serveEnv{
		srv:     srv,
		hs:      &http.Server{Handler: srv.Handler()},
		served:  make(chan error, 1),
		base:    "http://" + ln.Addr().String(),
		dataDir: dir,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     cfg.nproc,
			MaxIdleConnsPerHost: cfg.nproc,
			DisableCompression:  true,
		}},
	}
	go func() { e.served <- e.hs.Serve(ln) }()

	ctx := context.Background()
	var st server.StreamResponse
	body, _ := json.Marshal(server.StreamRequest{Config: streamConfig})
	if code, b, err := e.do(ctx, http.MethodPost, "/v1/streams", body, ""); err != nil || code != http.StatusCreated {
		e.stop()
		return nil, fmt.Errorf("creating stream: HTTP %d %s %v", code, b, err)
	} else if err := json.Unmarshal(b, &st); err != nil {
		e.stop()
		return nil, err
	}
	e.stream = st.StreamID
	for c := 0; c < prefillSteps/chunkSteps; c++ {
		if _, err := e.appendChunk(ctx, in.chunks[c], ""); err != nil {
			e.stop()
			return nil, fmt.Errorf("pre-filling stream: %w", err)
		}
	}
	return e, nil
}

// stop drains the server, closes the listener and its connections, waits
// for the serving goroutine, and removes the data directory.
func (e *serveEnv) stop() {
	e.srv.Drain(context.Background())
	e.hs.Shutdown(context.Background())
	<-e.served
	e.client.CloseIdleConnections()
	os.RemoveAll(e.dataDir)
}

func (e *serveEnv) do(ctx context.Context, method, path string, body []byte, rid string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, e.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if rid != "" {
		req.Header.Set(server.HeaderRequestID, rid)
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// appendChunk appends one chunk and returns the stream length the server
// acknowledged.
func (e *serveEnv) appendChunk(ctx context.Context, ten []byte, rid string) (int, error) {
	body, _ := json.Marshal(server.AppendRequest{TensorB64: base64.StdEncoding.EncodeToString(ten)})
	code, b, err := e.do(ctx, http.MethodPost, "/v1/streams/"+e.stream+"/append", body, rid)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("append: HTTP %d %s", code, b)
	}
	var st server.StreamResponse
	if err := json.Unmarshal(b, &st); err != nil {
		return 0, err
	}
	for {
		cur := e.acked.Load()
		if int64(st.Len) <= cur || e.acked.CompareAndSwap(cur, int64(st.Len)) {
			break
		}
	}
	return st.Len, nil
}

// metricz is the part of GET /metricz the benchmark reads.
type metricz struct {
	Kernel struct {
		RangeNodeBuilds int64 `json:"range_node_builds"`
		RangeNodeHits   int64 `json:"range_node_hits"`
		RangeStitches   int64 `json:"range_stitches"`
		RangeFallbacks  int64 `json:"range_fallbacks"`
	} `json:"dtucker_metrics"`
	Server struct {
		Submitted   int64 `json:"jobs_submitted"`
		Rejected    int64 `json:"jobs_rejected"`
		Coalesced   int64 `json:"jobs_coalesced"`
		CacheHits   int64 `json:"cache_hits"`
		CacheMisses int64 `json:"cache_misses"`
		Durability  struct {
			Checkpoints     int64 `json:"checkpoints_written"`
			CheckpointFails int64 `json:"checkpoint_failures"`
			AppendFailures  int64 `json:"append_failures"`
		} `json:"durability"`
	} `json:"dtuckerd"`
}

func (e *serveEnv) scrape(tr *tracer, parent int64) (metricz, error) {
	sp := tr.begin(parent, "server:metricz", "")
	defer sp.End()
	var m metricz
	code, b, err := e.do(context.Background(), http.MethodGet, "/metricz", nil, "")
	if err != nil {
		return m, err
	}
	if code != http.StatusOK {
		return m, fmt.Errorf("/metricz: HTTP %d", code)
	}
	return m, json.Unmarshal(b, &m)
}

// opResult is one finished operation as the client saw it.
type opResult struct {
	a       arrival
	outcome string // ok, shed, failed, dropped
	err     string
	lat     time.Duration // scheduled send → result bytes received
	lag     time.Duration // scheduled send → actual send
	submit  time.Duration // decompose/range submit, or the append call
	fetch   time.Duration
	polls   int
	job     *server.JobStatus // last polled status (nil for cache answers)
	payload []byte            // fetched .dtd
	t0, t1  int               // the range window actually asked for
	length  int               // append: acknowledged stream length
	correct bool
}

// execute runs one operation; body is the decompose request body.
func (e *serveEnv) execute(ctx context.Context, in *inputs, a arrival, body []byte, due time.Time, tr *tracer, parent int64) (r opResult) {
	r = opResult{a: a, lag: time.Since(due)}
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	sp := tr.begin(parent, "client:"+opNames[a.kind], a.request)
	defer sp.End()
	defer func() { r.lat = time.Since(due) }()

	var (
		code int
		err  error
	)
	t0 := time.Now()
	switch a.kind {
	case opAppend:
		ssp := tr.begin(sp.ID(), "server:append", a.request)
		r.length, err = e.appendChunk(ctx, in.chunks[prefillSteps/chunkSteps+a.chunk], a.request)
		ssp.End()
		r.submit = time.Since(t0)
		if err != nil {
			r.outcome, r.err = "failed", err.Error()
			return r
		}
		r.outcome = "ok"
		return r
	case opRange:
		r.t0, r.t1 = a.t0, a.t1
		if a.latest > 0 {
			r.t1 = int(e.acked.Load())
			r.t0 = r.t1 - a.latest
		}
		ssp := tr.begin(sp.ID(), "server:submit", a.request)
		code, body, err = e.do(ctx, http.MethodGet, fmt.Sprintf("/v1/streams/%s/range?t0=%d&t1=%d", e.stream, r.t0, r.t1), nil, a.request)
		ssp.End()
	default:
		ssp := tr.begin(sp.ID(), "server:submit", a.request)
		code, body, err = e.do(ctx, http.MethodPost, "/v1/decompose", body, a.request)
		ssp.End()
	}
	r.submit = time.Since(t0)
	switch {
	case err != nil:
		r.outcome, r.err = "failed", err.Error()
		return r
	case code == http.StatusTooManyRequests:
		r.outcome = "shed"
		return r
	case code != http.StatusOK && code != http.StatusAccepted:
		r.outcome, r.err = "failed", fmt.Sprintf("submit: HTTP %d %s", code, body)
		return r
	}
	var receipt server.SubmitResponse
	if err := json.Unmarshal(body, &receipt); err != nil {
		r.outcome, r.err = "failed", err.Error()
		return r
	}
	state := receipt.State
	for state != server.StateDone {
		if state == server.StateFailed || state == server.StateCancelled {
			r.outcome, r.err = "failed", "job "+state
			return r
		}
		select {
		case <-time.After(pollEvery):
		case <-ctx.Done():
			r.outcome, r.err = "failed", ctx.Err().Error()
			return r
		}
		psp := tr.begin(sp.ID(), "server:poll", a.request)
		code, body, err = e.do(ctx, http.MethodGet, "/v1/jobs/"+receipt.JobID, nil, a.request)
		psp.End()
		r.polls++
		if err != nil || code != http.StatusOK {
			r.outcome, r.err = "failed", fmt.Sprintf("poll: HTTP %d %v", code, err)
			return r
		}
		var st server.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			r.outcome, r.err = "failed", err.Error()
			return r
		}
		r.job, state = &st, st.State
	}
	t1 := time.Now()
	fsp := tr.begin(sp.ID(), "server:fetch", a.request)
	code, body, err = e.do(ctx, http.MethodGet, "/v1/jobs/"+receipt.JobID+"/result", nil, a.request)
	fsp.End()
	r.fetch = time.Since(t1)
	if err != nil || code != http.StatusOK {
		r.outcome, r.err = "failed", fmt.Sprintf("fetch: HTTP %d %v", code, err)
		return r
	}
	r.outcome, r.payload = "ok", body
	return r
}

// runWindow offers the schedule open-loop and returns every operation's
// result and the time from the window's start to the last completion.
//
// Decompose bodies are made by a producer that runs bodyLead ahead of the
// schedule, so making them never delays a send and at most bodyLead's worth
// is held at once.
func (e *serveEnv) runWindow(in *inputs, sc schedule, tr *tracer, parent int64) ([]opResult, time.Duration) {
	const bodyLead = 2 * time.Second
	results := make([]opResult, len(sc.arrivals))
	bodies := make([]chan []byte, len(sc.arrivals))
	for i := range bodies {
		bodies[i] = make(chan []byte, 1)
	}
	start := time.Now().Add(bodyLead)
	var produced sync.WaitGroup
	produced.Add(1)
	go func() {
		defer produced.Done()
		for i, a := range sc.arrivals {
			if a.kind != opSmall && a.kind != opLarge {
				continue
			}
			time.Sleep(time.Until(start.Add(a.at - bodyLead)))
			b, err := in.decomposeBody(a)
			if err != nil {
				b = nil // sent as an empty body, so the operation fails visibly
			}
			bodies[i] <- b
		}
	}()

	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	ctx := context.Background()
	for i, a := range sc.arrivals {
		due := start.Add(a.at)
		var body []byte
		if a.kind == opSmall || a.kind == opLarge {
			body = <-bodies[i]
		}
		time.Sleep(time.Until(due))
		select {
		case sem <- struct{}{}:
		default:
			results[i] = opResult{a: a, outcome: "dropped", lag: time.Since(due)}
			continue
		}
		wg.Add(1)
		go func(i int, a arrival, body []byte) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i] = e.execute(ctx, in, a, body, due, tr, parent)
		}(i, a, body)
	}
	wg.Wait()
	produced.Wait()
	return results, time.Since(start)
}

// setupServe generates the inputs and starts a pre-filled server.
func setupServe(cfg runConfig, sc schedule) (*inputs, *serveEnv, error) {
	in, err := genInputs(cfg.seed, sc)
	if err != nil {
		return nil, nil, err
	}
	env, err := startServe(cfg, in)
	if err != nil {
		return nil, nil, err
	}
	return in, env, nil
}

// windowRun is what serveWindow measured while the server was up.
type windowRun struct {
	setups        []float64
	before, after metricz
	results       []opResult
	elapsed       time.Duration
	rtts          []float64 // traced runs: /healthz round trips, ms
}

// serveWindow sets up three times (inputs, server, journal, pre-filled
// stream), timing the host's speed before each, and keeps the last; reads
// /metricz, offers the schedule, reads /metricz again and, in a traced
// run, measures the HTTP round-trip floor on the idle server. The server is
// stopped when it returns.
func serveWindow(cfg runConfig, tr *tracer, parent int64, sc schedule, hs *hostScale) (*inputs, *windowRun, error) {
	w := &windowRun{}
	var (
		in  *inputs
		env *serveEnv
		err error
	)
	for i := 0; i < 3; i++ {
		if env != nil {
			env.stop()
		}
		hs.burst(calibBurst)
		sp := tr.begin(parent, "bench:setup", "")
		t0 := time.Now()
		if in, env, err = setupServe(cfg, sc); err != nil {
			return nil, nil, err
		}
		w.setups = append(w.setups, time.Since(t0).Seconds())
		sp.End()
	}
	defer env.stop()

	if w.before, err = env.scrape(tr, parent); err != nil {
		return nil, nil, err
	}
	wsp := tr.begin(parent, "bench:window", "")
	w.results, w.elapsed = env.runWindow(in, sc, tr, wsp.ID())
	wsp.End()
	if w.after, err = env.scrape(tr, parent); err != nil {
		return nil, nil, err
	}
	if cfg.traced {
		for i := 0; i < 50; i++ {
			sp := tr.begin(parent, "server:healthz", "")
			t0 := time.Now()
			code, _, err := env.do(context.Background(), http.MethodGet, "/healthz", nil, "")
			if err != nil || code != http.StatusOK {
				return nil, nil, fmt.Errorf("/healthz: HTTP %d %v", code, err)
			}
			w.rtts = append(w.rtts, millis(time.Since(t0)))
			sp.End()
		}
	}
	return in, w, nil
}

func runServeMixed(cfg runConfig, tr *tracer) (*result, error) {
	res := newResult()
	root := tr.begin(0, "bench:serve-mixed", "")
	defer root.End()
	sc := buildSchedule(cfg.seed, cfg.window)

	hs := newHostScale()
	in, w, err := serveWindow(cfg, tr, root.ID(), sc, hs)
	if err != nil {
		return nil, err
	}
	res.samples["setup_s"] = w.setups
	results, before, after := w.results, w.before, w.after
	// The stopped server's job registry is garbage now; collect it before
	// the reference decompositions are timed.
	runtime.GC()

	res.attempted = len(results)
	for _, r := range results {
		if r.outcome != "ok" {
			res.failed++
			if len(res.notes) < 10 {
				res.notes = append(res.notes, fmt.Sprintf("%s %s: %s %s", r.a.request, opNames[r.a.kind], r.outcome, r.err))
			}
		}
	}
	if err := verifyDecompositions(cfg, tr, root.ID(), in, sc.pools, results, res, hs); err != nil {
		return nil, err
	}
	queryMs, err := verifyRanges(cfg, tr, root.ID(), in, results, res)
	if err != nil {
		return nil, err
	}

	good := 0
	lat := map[string][]float64{}
	var lags, submits, fetches, appends, queues, runs, polls []float64
	for _, r := range results {
		lags = append(lags, millis(r.lag))
		if r.outcome != "ok" || !r.correct {
			continue
		}
		if r.lat <= limits[r.a.kind] {
			good++
		}
		lat[opNames[r.a.kind]] = append(lat[opNames[r.a.kind]], millis(r.lat))
		if r.a.kind == opAppend {
			appends = append(appends, millis(r.submit))
			continue
		}
		polls = append(polls, float64(r.polls))
		fetches = append(fetches, millis(r.fetch))
		if r.a.kind != opRange {
			submits = append(submits, millis(r.submit))
		}
		if j := r.job; j != nil && j.StartedMs > 0 && j.FinishedMs > 0 {
			queues = append(queues, float64(j.StartedMs-j.CreatedMs))
			runs = append(runs, float64(j.FinishedMs-j.StartedMs))
		}
	}
	m := res.metrics
	m["client.slo_goodput_ops_s"] = float64(good) / w.elapsed.Seconds()
	for _, op := range []string{"decompose", "range", "append"} {
		m["client."+op+"_p50_ms"] = quantile(lat[op], 0.5)
		m["client."+op+"_p95_ms"] = quantile(lat[op], 0.95)
		res.samples["client."+op+"_ms"] = lat[op]
	}
	m["client.polls_per_op"] = mean(polls)
	m["server.submit_p50_ms"], m["server.submit_p95_ms"] = quantile(submits, 0.5), quantile(submits, 0.95)
	m["server.queue_p50_ms"], m["server.queue_p95_ms"] = quantile(queues, 0.5), quantile(queues, 0.95)
	m["server.run_p50_ms"], m["server.run_p95_ms"] = quantile(runs, 0.5), quantile(runs, 0.95)
	m["server.fetch_p50_ms"], m["server.fetch_p95_ms"] = quantile(fetches, 0.5), quantile(fetches, 0.95)
	m["server.append_p50_ms"], m["server.append_p95_ms"] = quantile(appends, 0.5), quantile(appends, 0.95)
	m["server.rtt_ms"] = median(w.rtts)
	m["rangeidx.query_ms"] = queryMs
	m["bench.lag_p95_ms"] = quantile(lags, 0.95)

	d := func(a, b int64) float64 { return float64(a - b) }
	frac := func(num, den float64) float64 {
		if den <= 0 {
			return 0
		}
		return num / den
	}
	k, s := after.Kernel, after.Server
	kb, sb := before.Kernel, before.Server
	m["server.cache_hit_frac"] = frac(d(s.CacheHits, sb.CacheHits), d(s.CacheHits, sb.CacheHits)+d(s.CacheMisses, sb.CacheMisses))
	m["server.coalesced_frac"] = frac(d(s.Coalesced, sb.Coalesced), d(s.Submitted, sb.Submitted))
	m["server.shed_frac"] = frac(d(s.Rejected, sb.Rejected), d(s.Submitted, sb.Submitted)+d(s.Rejected, sb.Rejected))
	m["rangeidx.stitch_frac"] = frac(d(k.RangeStitches, kb.RangeStitches), d(k.RangeStitches, kb.RangeStitches)+d(k.RangeFallbacks, kb.RangeFallbacks))
	m["rangeidx.node_builds"] = d(k.RangeNodeBuilds, kb.RangeNodeBuilds)
	m["rangeidx.node_hits"] = d(k.RangeNodeHits, kb.RangeNodeHits)
	m["journal.checkpoints_written"] = d(s.Durability.Checkpoints, sb.Durability.Checkpoints)
	m["journal.checkpoint_failures"] = d(s.Durability.CheckpointFails, sb.Durability.CheckpointFails)
	m["journal.append_failures"] = d(s.Durability.AppendFailures, sb.Durability.AppendFailures)
	if cfg.traced {
		m["bench.trace_overhead_frac"] = traceOverhead(tr, results)
	}
	return res, nil
}

// traceOverhead estimates the share of client time spent recording spans:
// the spans the run recorded times the cost of one span measured right
// after, over the summed latency of the operations. A direct traced-versus-
// untraced comparison cannot resolve it here: one span costs about a
// microsecond, far below the run-to-run spread of the latencies.
func traceOverhead(tr *tracer, results []opResult) float64 {
	tr.mu.Lock()
	n := len(tr.spans)
	tr.mu.Unlock()
	probe := newTracer()
	const reps = 10000
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		probe.begin(1, "client:probe", "op-00000").End()
	}
	perSpan := time.Since(t0) / reps
	var total time.Duration
	for _, r := range results {
		total += r.lat
	}
	if total <= 0 {
		return 0
	}
	return float64(time.Duration(n)*perSpan) / float64(total)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// verifyDecompositions decomposes every distinct served tensor in-process
// and compares each fetched result with it. Each large tensor is also
// decomposed at workers=1 and checked against the workers=nproc result; the
// large class's reference runs give decompose_s, decompose_1w_s and
// alloc_mib.
func verifyDecompositions(cfg runConfig, tr *tracer, parent int64, in *inputs, pools map[opKind]int, results []opResult, res *result, hs *hostScale) error {
	byTensor := map[[2]int][]int{}
	for i, r := range results {
		if r.outcome == "ok" && (r.a.kind == opSmall || r.a.kind == opLarge) {
			key := [2]int{int(r.a.kind), r.a.tensor}
			byTensor[key] = append(byTensor[key], i)
		}
	}
	var times, times1, allocs []float64
	for _, k := range []opKind{opSmall, opLarge} {
		conf := classes[k].config()
		for id := 0; id < pools[k]; id++ {
			x := in.decomposeTensor(k, id)
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			sp := tr.begin(parent, "core:decompose", fmt.Sprintf("ref-%d-%d", k, id))
			t0 := time.Now()
			dec, err := core.Decompose(x, core.Options{Config: conf, Workers: cfg.nproc})
			el := time.Since(t0)
			sp.End()
			runtime.ReadMemStats(&m1)
			if err != nil {
				return fmt.Errorf("reference decomposition: %w", err)
			}
			want, err := canonicalDTD(dec)
			if err != nil {
				return err
			}
			if k == opLarge {
				times = append(times, el.Seconds())
				allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/mib)
				runtime.GC()
				hs.burst(calibBurst / 4) // the reference runs are short
				sp := tr.begin(parent, "core:decompose", fmt.Sprintf("ref1-%d-%d", k, id))
				t0 := time.Now()
				dec1, err := core.Decompose(x, core.Options{Config: conf, Workers: 1})
				times1 = append(times1, time.Since(t0).Seconds())
				sp.End()
				if err != nil {
					return fmt.Errorf("reference decomposition: %w", err)
				}
				got, err := canonicalDTD(dec1)
				if err != nil {
					return err
				}
				res.attempted++
				if !sameBytes(cfg, got, want) {
					res.fail("large tensor %d: workers=1 result differs from workers=%d", id, cfg.nproc)
				}
			}
			for _, i := range byTensor[[2]int{int(k), id}] {
				r := &results[i]
				dec, err := core.ReadDecomposition(bytes.NewReader(r.payload))
				if err != nil {
					res.fail("%s: unreadable result: %v", r.a.request, err)
					continue
				}
				got, err := canonicalDTD(dec)
				if err != nil {
					return err
				}
				if r.correct = sameBytes(cfg, got, want); !r.correct {
					res.fail("%s: served result differs from the in-process decomposition", r.a.request)
				}
			}
		}
	}
	res.metrics["alloc_mib"] = median(allocs)
	res.samples["decompose_s"] = times
	res.samples["decompose_1w_s"] = times1
	res.scaleTimes(hs)
	return nil
}

// verifyRanges rebuilds the stream in-process in the order the server
// acknowledged the appends, indexes it with the server's index settings,
// and compares every served range answer with the in-process query. It
// returns the median in-process query time in ms.
func verifyRanges(cfg runConfig, tr *tracer, parent int64, in *inputs, results []opResult, res *result) (float64, error) {
	order := map[int]int{} // acknowledged length → chunk index
	for _, r := range results {
		if r.a.kind == opAppend && r.outcome == "ok" {
			order[r.length] = prefillSteps/chunkSteps + r.a.chunk
		}
	}
	replica := core.NewStream(core.Options{Config: streamConfig, Workers: cfg.nproc})
	ix := rangeidx.New(replica, rangeidx.Config{})
	ctx := context.Background()
	total := prefillSteps + chunkSteps*len(order)
	for t := chunkSteps; t <= total; t += chunkSteps {
		c := t/chunkSteps - 1
		if t > prefillSteps {
			var ok bool
			if c, ok = order[t]; !ok {
				res.fail("appends: no acknowledgment ended at length %d", t)
				return 0, nil
			}
		}
		x, err := tensor.ReadFrom(bytes.NewReader(in.chunks[c]))
		if err != nil {
			return 0, err
		}
		if err := replica.Append(x); err != nil {
			return 0, fmt.Errorf("replica append: %w", err)
		}
		if err := ix.Advance(ctx); err != nil {
			return 0, fmt.Errorf("replica index: %w", err)
		}
	}
	for i := range results {
		if r := &results[i]; r.a.kind == opAppend && r.outcome == "ok" {
			r.correct = true
		}
	}
	var qms []float64
	for i := range results {
		r := &results[i]
		if r.a.kind != opRange || r.outcome != "ok" {
			continue
		}
		sp := tr.begin(parent, "rangeidx:query", r.a.request)
		t0 := time.Now()
		dec, _, err := ix.Query(ctx, r.t0, r.t1)
		qms = append(qms, millis(time.Since(t0)))
		sp.End()
		if err != nil {
			return 0, fmt.Errorf("replica range [%d,%d): %w", r.t0, r.t1, err)
		}
		want, err := canonicalDTD(dec)
		if err != nil {
			return 0, err
		}
		served, err := core.ReadDecomposition(bytes.NewReader(r.payload))
		if err != nil {
			res.fail("%s: unreadable range result: %v", r.a.request, err)
			continue
		}
		got, err := canonicalDTD(served)
		if err != nil {
			return 0, err
		}
		if r.correct = sameBytes(cfg, got, want); !r.correct {
			res.fail("%s: range [%d,%d) differs from the in-process index", r.a.request, r.t0, r.t1)
		}
	}
	return median(qms), nil
}

// measureUnloaded measures each operation alone on an idle server: its
// latency and the process CPU time it costs (client and server together).
// README.md records the output behind offeredRate and limits.
func measureUnloaded(w io.Writer) error {
	cfg := runConfig{seed: 1, outDir: defaultOut, nproc: runtime.NumCPU()}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	const n = 20
	sc := schedule{pools: map[opKind]int{opSmall: n, opLarge: n}, appends: n}
	in, env, err := setupServe(cfg, sc)
	if err != nil {
		return err
	}
	defer env.stop()
	rng := rand.New(rand.NewSource(1))
	ctx := context.Background()
	demand := map[opKind]float64{}
	for _, k := range []opKind{opSmall, opLarge, opRange, opAppend} {
		var lats, cpus []float64
		for i := 0; i < n; i++ {
			a := arrival{kind: k, tensor: i, chunk: i, request: fmt.Sprintf("cal-%d-%d", k, i)}
			if k == opRange {
				span := minSpan + rng.Intn(prefillSteps-minSpan+1)
				a.t0 = rng.Intn(prefillSteps - span + 1)
				a.t1 = a.t0 + span
			}
			var body []byte
			if k == opSmall || k == opLarge {
				if body, err = in.decomposeBody(a); err != nil {
					return err
				}
			}
			c0 := cpuTime()
			r := env.execute(ctx, in, a, body, time.Now(), nil, 0)
			if r.outcome != "ok" {
				return fmt.Errorf("%s: %s %s", a.request, r.outcome, r.err)
			}
			cpus = append(cpus, millis(cpuTime()-c0))
			lats = append(lats, millis(r.lat))
		}
		demand[k] = median(cpus)
		fmt.Fprintf(w, "%-9s %v: latency p50 %.2f ms p95 %.2f ms, cpu p50 %.2f ms\n",
			opNames[k], k, median(lats), quantile(lats, 0.95), median(cpus))
	}
	perOp := shareDecompose*((1-largeShare)*demand[opSmall]+largeShare*demand[opLarge]) +
		shareRange*demand[opRange] + (1-shareDecompose-shareRange)*demand[opAppend]
	fmt.Fprintf(w, "mean cpu per offered op %.2f ms; half of %d cores is %.1f ops/s (offered %.1f)\n",
		perOp, cfg.nproc, float64(cfg.nproc)/2/(perOp/1e3), offeredRate)
	return nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
