package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

type metricEntry struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricEntry `json:"end_to_end"`
	PerLayer []metricEntry `json:"per_layer"`
}

type lastLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runBrief runs one workload with a one-second window and returns the exit
// code and the parsed last line of standard output.
func runBrief(t *testing.T, workload string, trace int, corrupt func([]byte)) (int, lastLine) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"--workload", workload, "--seed", "7", "--seconds", "1",
		"--trace", strconv.Itoa(trace), "--out", t.TempDir(),
	}, &stdout, &stderr, corrupt)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last lastLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s trace=%d: exit %d, last line not a result: %v\nstdout:\n%s\nstderr:\n%s",
			workload, trace, code, err, stdout.String(), stderr.String())
	}
	return code, last
}

// TestEveryMetricPrinted runs each workload of BENCHMARK.json briefly,
// untraced and traced, and checks the last line names every metric with
// its unit and reports correct outputs.
func TestEveryMetricPrinted(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) == 0 || len(bf.EndToEnd) == 0 || len(bf.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads or metrics")
	}
	for _, w := range bf.Workloads {
		for trace, want := range [][]metricEntry{bf.EndToEnd, bf.PerLayer} {
			code, last := runBrief(t, w.Name, trace, nil)
			if code != 0 || !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Errorf("%s trace=%d: exit %d correct=%v attempted=%d failed=%d",
					w.Name, trace, code, last.Correct, last.Attempted, last.Failed)
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics printed, BENCHMARK.json lists %d",
					w.Name, trace, len(last.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := last.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: %s not printed", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%d: %s printed with unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptResultFails flips one byte of every result before it is
// checked and expects the command to report it and exit non-zero: the
// in-process worker-count check (tucker-iter) and the served decompose and
// range checks (serve-mixed).
func TestCorruptResultFails(t *testing.T) {
	flip := func(b []byte) { b[len(b)/2] ^= 0x01 }
	for _, w := range []string{"tucker-iter", "serve-mixed"} {
		code, last := runBrief(t, w, 0, flip)
		if code == 0 || last.Correct || last.Failed == 0 {
			t.Errorf("%s with corrupted results: exit %d correct=%v failed=%d, want a failure",
				w, code, last.Correct, last.Failed)
		}
	}
}
