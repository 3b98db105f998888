package server_test

import (
	"context"
	"net/http"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/rangeidx"
	"repro/internal/server"
	"repro/internal/tensor"
)

// Range results are cached under the stream session's ID and the window
// bounds. These tests pin what makes that key sound: two sessions never
// share an entry, and a deleted stream's answers are never served to the
// stream that replaces it.

var rangeKeyCfg = repro.Config{Ranks: []int{3, 3, 3}, SliceRank: 4}

// rangeKeyChunks builds two 10×9×4 chunks (8 steps) from the given seeds.
func rangeKeyChunks(seed int64) []*tensor.Dense {
	return []*tensor.Dense{testTensor(seed, 10, 9, 4), testTensor(seed+1, 10, 9, 4)}
}

// openStream creates a stream session and appends chunks to it.
func openStream(t *testing.T, cl *repro.Client, chunks []*tensor.Dense) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := cl.CreateStream(ctx, rangeKeyCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if _, err := cl.Append(ctx, st.StreamID, c); err != nil {
			t.Fatal(err)
		}
	}
	return st.StreamID
}

// referenceRange answers [t0, t1) from an in-process range index over the
// same chunks, with the block size the test servers use.
func referenceRange(t *testing.T, chunks []*tensor.Dense, t0, t1 int) *core.Decomposition {
	t.Helper()
	st := core.NewStream(rangeKeyCfg.Options())
	for _, c := range chunks {
		if err := st.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	dec, _, err := rangeidx.New(st, rangeidx.Config{BlockSize: 2}).Query(context.Background(), t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// queryRange submits GET /range through the client and returns whether
// the receipt was a cache hit, plus the finished result.
func queryRange(t *testing.T, cl *repro.Client, streamID string, t0, t1 int) (bool, *core.Decomposition) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	receipt, err := cl.Range(ctx, streamID, t0, t1, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, cl, receipt.JobID, server.StateDone)
	dec, err := cl.Result(ctx, receipt.JobID)
	if err != nil {
		t.Fatal(err)
	}
	return receipt.CacheHit, dec
}

// TestRangeCacheKeyedBySession: the same window on two live sessions with
// different data must not share a cache entry. Each answer equals its own
// in-process rangeidx reference, on both the stitched and the direct path.
func TestRangeCacheKeyedBySession(t *testing.T) {
	_, _, cl := newTestServer(t, server.Config{Workers: 1, RangeBlockSize: 2})
	chunksA, chunksB := rangeKeyChunks(51), rangeKeyChunks(61)
	idA, idB := openStream(t, cl, chunksA), openStream(t, cl, chunksB)

	// [0,8) stitches; [1,4) is shorter than the stitch span and solves
	// directly.
	for _, w := range [][2]int{{0, 8}, {1, 4}} {
		hit, got := queryRange(t, cl, idA, w[0], w[1])
		if hit {
			t.Fatalf("window %v: first query on stream A was a cache hit", w)
		}
		requireBitIdentical(t, referenceRange(t, chunksA, w[0], w[1]), got)

		hit, got = queryRange(t, cl, idB, w[0], w[1])
		if hit {
			t.Fatalf("window %v: stream B was answered from stream A's cache entry", w)
		}
		requireBitIdentical(t, referenceRange(t, chunksB, w[0], w[1]), got)

		// The entries exist: a repeat on A is a hit with A's answer.
		hit, got = queryRange(t, cl, idA, w[0], w[1])
		if !hit {
			t.Fatalf("window %v: repeat query on stream A missed the cache", w)
		}
		requireBitIdentical(t, referenceRange(t, chunksA, w[0], w[1]), got)
	}
}

// TestRangeCacheForgetsDeletedStream: a stream that is deleted and
// recreated with other data must not serve the deleted stream's answers.
func TestRangeCacheForgetsDeletedStream(t *testing.T) {
	_, hs, cl := newTestServer(t, server.Config{Workers: 1, RangeBlockSize: 2})
	oldChunks, newChunks := rangeKeyChunks(71), rangeKeyChunks(81)

	oldID := openStream(t, cl, oldChunks)
	if _, got := queryRange(t, cl, oldID, 0, 8); got == nil {
		t.Fatal("no result for the deleted stream's window")
	}
	req, err := http.NewRequest(http.MethodDelete, hs.URL+"/v1/streams/"+oldID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete stream: status %d", resp.StatusCode)
	}

	newID := openStream(t, cl, newChunks)
	if newID == oldID {
		t.Fatalf("recreated stream reused the deleted stream's ID %s", oldID)
	}
	hit, got := queryRange(t, cl, newID, 0, 8)
	if hit {
		t.Fatal("recreated stream was answered from the deleted stream's cache entry")
	}
	requireBitIdentical(t, referenceRange(t, newChunks, 0, 8), got)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, err = cl.Range(ctx, oldID, 0, 8, nil)
	if apiErr, ok := err.(*repro.APIError); !ok || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("range on the deleted stream: err %v, want 404", err)
	}
}
