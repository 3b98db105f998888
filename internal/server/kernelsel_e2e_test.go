package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro"
	"repro/internal/kernelsel"
	"repro/internal/server"
)

// postWithHeaders posts a JSON body with extra headers and returns the
// response.
func postWithHeaders(t *testing.T, url string, body any, headers map[string]string) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeWireError(t *testing.T, resp *http.Response) *server.WireError {
	t.Helper()
	defer resp.Body.Close()
	var env struct {
		Error *server.WireError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding error envelope: %v", err)
	}
	if env.Error == nil {
		t.Fatal("error response carried no wire error")
	}
	return env.Error
}

// TestBadPriorityHeaderRejected: an X-Priority value that names no lane must
// be a 400 with a typed invalid_input error on every job-submitting
// endpoint — not a silent demotion to the default lane.
func TestBadPriorityHeaderRejected(t *testing.T) {
	_, hs, _ := newTestServer(t, server.Config{Workers: 1})
	x := testTensor(3, 8, 7, 6)
	decompose := server.DecomposeRequest{
		Config:    repro.Config{Ranks: []int{2, 2, 2}},
		TensorB64: tensorB64(t, x),
	}

	for _, bad := range []string{"Interactive", "high", "BATCH"} {
		resp := postWithHeaders(t, hs.URL+"/v1/decompose", decompose, map[string]string{"X-Priority": bad})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("X-Priority %q: status %d, want 400", bad, resp.StatusCode)
		}
		if we := decodeWireError(t, resp); we.Kind != server.KindInvalidInput {
			t.Fatalf("X-Priority %q: kind %q, want %q", bad, we.Kind, server.KindInvalidInput)
		}
	}

	// The valid spellings still work.
	for _, good := range []string{"interactive", "batch", ""} {
		resp := postWithHeaders(t, hs.URL+"/v1/decompose", decompose, map[string]string{"X-Priority": good})
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("X-Priority %q: status %d, want accepted", good, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Stream endpoints apply the same validation.
	resp := postJSON(t, hs.URL+"/v1/streams", server.StreamRequest{Config: repro.Config{Ranks: []int{2, 2, 2}}})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("stream create: status %d", resp.StatusCode)
	}
	var sr server.StreamResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	base := hs.URL + "/v1/streams/" + sr.StreamID
	rangeReq, err := http.NewRequest(http.MethodGet, base+"/range?t0=0&t1=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	rangeReq.Header.Set("X-Priority", "urgent")
	rangeResp, err := http.DefaultClient.Do(rangeReq)
	if err != nil {
		t.Fatal(err)
	}
	for path, resp := range map[string]*http.Response{
		"/decompose": postWithHeaders(t, base+"/decompose", server.SolveRequest{}, map[string]string{"X-Priority": "urgent"}),
		"/range":     rangeResp,
	} {
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("stream %s with bad priority: status %d, want 400", path, resp.StatusCode)
		}
		if we := decodeWireError(t, resp); we.Kind != server.KindInvalidInput {
			t.Fatalf("stream %s: kind %q, want %q", path, we.Kind, server.KindInvalidInput)
		}
	}
}

// TestAutoKernelCacheKeyedByProfile: auto-selection requests are cached
// under the server's profile fingerprint — an identical resubmission hits,
// a request spelling the fingerprint explicitly hits the same entry, and a
// request pinning a different profile is rejected outright.
func TestAutoKernelCacheKeyedByProfile(t *testing.T) {
	profile := kernelsel.Default()
	_, _, cl := newTestServer(t, server.Config{Workers: 1, KernelProfile: profile})
	x := testTensor(9, 12, 11, 10)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	auto := repro.Config{Ranks: []int{4, 4, 4}, SliceKernel: "auto"}
	if _, err := cl.Decompose(ctx, x, auto, nil); err != nil {
		t.Fatal(err)
	}
	receipt, err := cl.Submit(ctx, x, auto, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !receipt.CacheHit {
		t.Fatal("identical auto-selection resubmission missed the cache")
	}

	// Naming the server's own fingerprint explicitly is the same request.
	pinned := auto
	pinned.KernelProfile = profile.Fingerprint()
	receipt, err = cl.Submit(ctx, x, pinned, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !receipt.CacheHit {
		t.Fatal("fingerprint-pinned resubmission missed the cache")
	}

	// Pinning a profile the server does not run is an invalid request, not
	// a silent recompute under the wrong key.
	wrong := auto
	wrong.KernelProfile = "ffffffffffffffff"
	if _, err := cl.Submit(ctx, x, wrong, nil); err == nil {
		t.Fatal("mismatched profile fingerprint was accepted")
	}

	// A forced kernel ignores the profile: no fingerprint in its key, so it
	// caches identically whatever profile the server runs.
	forced := repro.Config{Ranks: []int{4, 4, 4}, SliceKernel: "randsvd", KernelProfile: "ffffffffffffffff"}
	if _, err := cl.Decompose(ctx, x, forced, nil); err != nil {
		t.Fatal(err)
	}
}
