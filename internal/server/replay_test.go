package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/journal"
	"repro/internal/server"
)

// TestReplaySkipsRemovedConfigFields: an accepted record whose config names
// a field this build no longer has (the removed exact_slice_svd and leading
// knobs) must not resume as a different computation under its old cache
// key. Recovery skips it as unrecoverable, and no result is ever produced.
// The same record without the removed field recovers and finishes, so the
// hand-written journal is otherwise sound.
func TestReplaySkipsRemovedConfigFields(t *testing.T) {
	x := testTensor(31, 14, 12, 10)
	cases := []struct {
		name    string
		config  string
		recover bool
	}{
		{"control", `{"ranks":[4,3,3],"tol":1e-300,"max_iters":3,"seed":17}`, true},
		{"exact_slice_svd", `{"ranks":[4,3,3],"tol":1e-300,"max_iters":3,"seed":17,"exact_slice_svd":true}`, false},
		{"leading", `{"ranks":[4,3,3],"tol":1e-300,"max_iters":3,"seed":17,"leading":1}`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			const id = "j-000001"
			spill := filepath.Join(dir, "jobs", id+".ten")
			if err := os.MkdirAll(filepath.Dir(spill), 0o755); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := x.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(spill, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			jl, _, err := journal.Open(filepath.Join(dir, "journal.dtjl"))
			if err != nil {
				t.Fatal(err)
			}
			if err := jl.Append(journal.Record{
				Type: journal.RecAccepted, Job: id, Tenant: "default", Lane: "batch",
				Key: "replay-test-key", Config: json.RawMessage(tc.config), TensorFile: id + ".ten",
			}); err != nil {
				t.Fatal(err)
			}
			if err := jl.Close(); err != nil {
				t.Fatal(err)
			}

			_, hs, cl := newTestServer(t, server.Config{Workers: 1, DataDir: dir})
			if tc.recover {
				waitForState(t, cl, id, server.StateDone)
				return
			}
			resp, err := http.Get(hs.URL + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("job naming a removed config field: status %d, want 404", resp.StatusCode)
			}
			if _, err := os.Stat(spill); !os.IsNotExist(err) {
				t.Fatalf("skipped job's tensor spill survived recovery: %v", err)
			}
			dur := metriczDurability(t, hs)
			if counter(t, dur, "corrupt_skipped") < 1 || counter(t, dur, "recovered_jobs") != 0 {
				t.Fatalf("durability counters %v, want corrupt_skipped >= 1 and recovered_jobs 0", dur)
			}
		})
	}
}
