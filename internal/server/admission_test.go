package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/tensor"
)

// blockingJob returns a job whose exec parks until release closes (or its
// context is cancelled) — a deterministic way to hold a runner busy, with
// no dependence on decomposition timing.
func blockingJob(s *Server, release <-chan struct{}) *job {
	return s.newJob("", 0, false,
		func(ctx context.Context, _ *pool.Pool, _ *metrics.Collector) (*core.Decomposition, error) {
			select {
			case <-release:
				return nil, context.Canceled // treated as cancelled; fine for these tests
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
}

func waitJobState(t *testing.T, j *job, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		if state == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q waiting for %q", j.id, state, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionControl pins the exact shedding boundary: with one runner
// parked and a depth-1 queue holding a second job, the next HTTP
// submission is rejected with 429 + Retry-After, and admission reopens as
// soon as the queue drains.
func TestAdmissionControl(t *testing.T) {
	s := mustNew(t, Config{Runners: 1, QueueDepth: 1, Workers: 1, RetryAfter: 3 * time.Second})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})

	release := make(chan struct{})
	defer close(release)

	running := blockingJob(s, release)
	if err := s.admit(running); err != nil {
		t.Fatal(err)
	}
	waitJobState(t, running, StateRunning)

	queued := blockingJob(s, release)
	if err := s.admit(queued); err != nil {
		t.Fatalf("queue-depth-1 admission failed: %v", err)
	}

	// The queue is now full: direct admission and the HTTP path must both
	// shed load.
	overflow := blockingJob(s, release)
	if err := s.admit(overflow); err != errQueueFull {
		t.Fatalf("overflow admission returned %v, want errQueueFull", err)
	}
	overflow.cancel()

	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	if _, err := tensor.RandN(rng, 4, 4, 4).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(DecomposeRequest{
		Config:    core.Config{Ranks: []int{2, 2, 2}},
		TensorB64: base64.StdEncoding.EncodeToString(buf.Bytes()),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v1/decompose", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Error *WireError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", got)
	}
	if env.Error == nil || env.Error.Kind != KindQueueFull {
		t.Fatalf("error envelope %+v, want kind %q", env.Error, KindQueueFull)
	}

	// Cancel the parked jobs; the queue drains and admission reopens.
	running.cancel()
	queued.cancel()
	waitJobState(t, running, StateCancelled)
	waitJobState(t, queued, StateCancelled)

	resp2, err := http.Post(hs.URL+"/v1/decompose", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("post-drain submission status = %d, want 202", resp2.StatusCode)
	}
}

// TestCancelQueuedJobFreesCapacity: a DELETE of a queued job withdraws it
// before responding, so its queue slot and tenant quota are free for the
// very next submission while the runner is still busy, and a follower
// coalesced onto it ends cancelled with it.
func TestCancelQueuedJobFreesCapacity(t *testing.T) {
	s := mustNew(t, Config{Runners: 1, QueueDepth: 1, Workers: 1, TenantQuota: 2})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	release := make(chan struct{})
	defer close(release)

	running := blockingJob(s, release)
	if err := s.admit(running); err != nil {
		t.Fatal(err)
	}
	waitJobState(t, running, StateRunning)
	defer running.cancel()

	keyed := func() *job {
		j := blockingJob(s, release)
		j.key = "same-computation"
		return j
	}
	queued := keyed()
	if err := s.admit(queued); err != nil {
		t.Fatal(err)
	}
	follower := keyed()
	if leader, err := s.admitOrCoalesce(follower); err != nil || leader != queued {
		t.Fatalf("follower admission = (%v, %v), want coalesced onto the queued job", leader, err)
	}
	over := blockingJob(s, release)
	if err := s.admit(over); err != errTenantQuota {
		t.Fatalf("admission at quota returned %v, want errTenantQuota", err)
	}
	over.cancel()

	req, err := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+queued.id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != StateCancelled {
		t.Fatalf("DELETE of a queued job answered state %q, want %q", st.State, StateCancelled)
	}
	if got := follower.status().State; got != StateCancelled {
		t.Fatalf("follower of the withdrawn job is %q, want %q", got, StateCancelled)
	}
	if got := running.status().State; got != StateRunning {
		t.Fatalf("running job is %q after cancelling another, want %q", got, StateRunning)
	}

	// No wait: the slot and the quota charge were released before the
	// DELETE returned, while the runner still holds the first job.
	next := blockingJob(s, release)
	if err := s.admit(next); err != nil {
		t.Fatalf("admission after cancelling the queued job: %v", err)
	}
	next.cancel()
}

// TestDrainCancelsBlockedJobs proves the drain deadline path without
// decomposition timing: jobs that never finish on their own are cancelled
// when the drain context expires, and Drain still returns with all runners
// joined.
func TestDrainCancelsBlockedJobs(t *testing.T) {
	s := mustNew(t, Config{Runners: 2, QueueDepth: 4, Workers: 1})
	never := make(chan struct{}) // intentionally never closed
	j1 := blockingJob(s, never)
	j2 := blockingJob(s, never)
	for _, j := range []*job{j1, j2} {
		if err := s.admit(j); err != nil {
			t.Fatal(err)
		}
	}
	waitJobState(t, j1, StateRunning)
	waitJobState(t, j2, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() { s.Drain(ctx); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return after its context expired")
	}
	for _, j := range []*job{j1, j2} {
		waitJobState(t, j, StateCancelled)
	}
	if !s.Draining() {
		t.Fatal("server does not report draining after Drain")
	}
}

// TestCacheLRUEviction pins the cache's bound and recency order.
func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	d := &core.Decomposition{}
	c.Put("a", d)
	c.Put("b", d)
	if _, ok := c.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", d) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted wrongly", k)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("cache len %d, want 2", c.Len())
	}
	hits, misses := c.Stats()
	if hits != 3 || misses != 1 {
		t.Fatalf("stats %d/%d, want 3 hits / 1 miss", hits, misses)
	}

	// Disabled cache never stores.
	off := newResultCache(-1)
	off.Put("x", d)
	if _, ok := off.Get("x"); ok {
		t.Fatal("disabled cache stored a result")
	}
}
