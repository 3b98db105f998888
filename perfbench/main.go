// Command perfbench is the repository benchmark: it runs one named workload
// against the library and the dtuckerd server in-process, checks every
// output, and prints its metrics as the last line of standard output. Run
// it from the repository root:
//
//	bash perfbench/run.sh --workload tucker-iter --seed 1 --seconds 25 --trace 0
//
// The workloads, their metrics and the layer each metric belongs to are
// described in README.md next to this file. With --trace 0 the last line
// carries the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics and the spans are written to --out.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is what one invocation asks for.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration // the measured window
	traced   bool
	outDir   string
	nproc    int

	// corrupt, when set, is applied to every result payload before it is
	// compared with its reference. Only the self-test sets it, to show the
	// correctness checks fail.
	corrupt func([]byte)
}

// defaultOut holds run records, spans and the server data directories.
var defaultOut = filepath.Join(".bench_build", "runs")

type workloadFunc func(cfg runConfig, tr *tracer) (*result, error)

var workloads = map[string]workloadFunc{
	"tucker-iter":   runTuckerIter,
	"tucker-approx": runTuckerApprox,
	"serve-mixed":   runServeMixed,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the command; corrupt is the self-test's hook (see runConfig.corrupt).
func run(args []string, stdout, stderr io.Writer, corrupt func([]byte)) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: tucker-iter, tucker-approx or serve-mixed")
	seed := fl.Int64("seed", 1, "seed for every generated input")
	secs := fl.Int("seconds", 25, "length of the measured window in seconds")
	trace := fl.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	out := fl.String("out", defaultOut, "directory for spans and run records")
	unloaded := fl.Bool("unloaded", false, "measure each serve-mixed operation alone on an idle server, print the times and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *unloaded {
		if err := measureUnloaded(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench: unloaded:", err)
			return 2
		}
		return 0
	}
	fn, ok := workloads[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{
		workload: *name, seed: *seed, window: time.Duration(*secs) * time.Second,
		traced: *trace == 1, outDir: *out, nproc: runtime.NumCPU(), corrupt: corrupt,
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	host := fingerprint(cfg)
	hostLine, _ := json.Marshal(map[string]any{"host": host, "workload": cfg.workload, "seed": cfg.seed, "trace": *trace})
	fmt.Fprintln(stdout, string(hostLine))

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	res, err := fn(cfg, tr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	counts := map[string]int{}
	for k, v := range res.samples {
		counts[k] = len(v)
	}
	if b, err := json.Marshal(map[string]any{"samples": counts}); err == nil {
		fmt.Fprintln(stdout, string(b))
	}
	for _, n := range res.notes {
		fmt.Fprintln(stderr, "perfbench: check failed:", n)
	}
	if res.attempted > 0 {
		res.metrics["bench.error_rate"] = float64(res.failed) / float64(res.attempted)
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
		for layer, s := range tr.selfSeconds() {
			res.metrics[layer+".self_s"] = s
		}
		spans := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.writeJSONL(spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]metricOut{}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok && !cfg.traced {
			fmt.Fprintf(stderr, "perfbench: workload %s did not measure %s\n", cfg.workload, d.name)
			return 2
		}
		ms[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": ms,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	record, _ := json.MarshalIndent(map[string]any{
		"host": host, "workload": cfg.workload, "seed": cfg.seed, "trace": *trace,
		"seconds": *secs, "result": json.RawMessage(line), "all_metrics": res.metrics,
		"samples": res.samples,
	}, "", "  ")
	recPath := filepath.Join(cfg.outDir, fmt.Sprintf("run-%s-%d-trace%d.json", cfg.workload, cfg.seed, *trace))
	if err := os.WriteFile(recPath, record, 0o644); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return strings.Join(ns, ", ")
}

// fingerprint identifies the host and the code a result came from. Results
// are comparable only between equal fingerprints (commit aside).
func fingerprint(cfg runConfig) map[string]any {
	return map[string]any{
		"cpu":           cpuModel(),
		"nproc":         cfg.nproc,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        envOr("PERFBENCH_COMMIT", "unknown"),
		"source_sha256": sourceDigest("."),
	}
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every Go source and go.mod under root (skipping
// dot-directories such as the build directory), so a result names the code
// it measured even when the checkout carries no version-control metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
