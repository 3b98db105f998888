package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dterr"
	"repro/internal/mat"
)

// checkpointConfig is a tiny problem whose tolerance is unreachable, so the
// iteration runs a fixed, known number of sweeps — every sweep index is a
// crash point the resume matrix can hit.
func checkpointConfig(maxIters int) Config {
	return Config{Ranks: []int{3, 3, 2}, Tol: 1e-300, MaxIters: maxIters, Seed: 7}
}

// collectCheckpoints runs a decomposition capturing a deep serialized copy
// of every sweep checkpoint, returning the result and the checkpoints in
// sweep order.
func collectCheckpoints(t *testing.T, cfg Config, workers int) (*Decomposition, []*Checkpoint) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	x := lowRankTensor(rng, 0.3, 2, 11, 9, 6)
	var cps []*Checkpoint
	opts := cfg.Options()
	opts.Workers = workers
	opts.CheckpointSink = func(cp *Checkpoint) error {
		// Serialize and re-read: the round trip is the deep copy, and it
		// exercises the exact bytes a crash-recovery resume would load.
		var buf bytes.Buffer
		if _, err := cp.WriteTo(&buf); err != nil {
			return err
		}
		got, err := ReadCheckpoint(&buf)
		if err != nil {
			return err
		}
		cps = append(cps, got)
		return nil
	}
	dec, err := Decompose(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	return dec, cps
}

func requireSameResult(t *testing.T, label string, ref, got *Decomposition) {
	t.Helper()
	if math.Float64bits(got.Fit) != math.Float64bits(ref.Fit) {
		t.Fatalf("%s: fit %v differs from reference %v", label, got.Fit, ref.Fit)
	}
	if got.Converged != ref.Converged || got.Stats.Iters != ref.Stats.Iters {
		t.Fatalf("%s: converged/iters %v/%d differ from reference %v/%d",
			label, got.Converged, got.Stats.Iters, ref.Converged, ref.Stats.Iters)
	}
	if !bitIdentical(got.Core.Data(), ref.Core.Data()) {
		t.Fatalf("%s: core differs from reference", label)
	}
	for n := range ref.Factors {
		if !bitIdentical(got.Factors[n].Data(), ref.Factors[n].Data()) {
			t.Fatalf("%s: factor %d differs from reference", label, n)
		}
	}
}

// TestResumeMatrixBitIdentical is the acceptance-criteria matrix: a run
// interrupted after any sweep k, resumed from the checkpoint serialized at
// that boundary, must reproduce the uninterrupted run's factors, core, and
// fit bit for bit — for every k and for more than one worker count.
func TestResumeMatrixBitIdentical(t *testing.T) {
	const maxIters = 5
	cfg := checkpointConfig(maxIters)
	rng := rand.New(rand.NewSource(99))
	x := lowRankTensor(rng, 0.3, 2, 11, 9, 6)

	ref, cps := collectCheckpoints(t, cfg, 1)
	if len(cps) != maxIters {
		t.Fatalf("captured %d checkpoints, want %d (tolerance should be unreachable)", len(cps), maxIters)
	}
	if ref.Stats.Iters != maxIters || ref.Converged {
		t.Fatalf("reference run iters/converged = %d/%v, want %d/false", ref.Stats.Iters, ref.Converged, maxIters)
	}

	for _, workers := range []int{1, 3} {
		// Checkpoints are identical across worker counts (the owner-computes
		// contract), so one capture serves every resume.
		for k, cp := range cps {
			opts := cfg.Options()
			opts.Workers = workers
			opts.Resume = cp
			got, err := Decompose(x, opts)
			if err != nil {
				t.Fatalf("resume at sweep %d (workers %d): %v", k+1, workers, err)
			}
			requireSameResult(t, fmt.Sprintf("resume at sweep %d, workers %d", k+1, workers), ref, got)
		}
	}

	// The terminal checkpoint short-circuits: no sweeps run, same result.
	last := cps[len(cps)-1]
	if !last.Done {
		t.Fatalf("final checkpoint not marked done: %+v", last)
	}
}

// TestResumeAfterConvergence covers the converged-terminal checkpoint: a run
// that reaches Tol marks its last checkpoint Done+Converged, and resuming it
// returns the converged result directly.
func TestResumeAfterConvergence(t *testing.T) {
	cfg := Config{Ranks: []int{3, 3, 2}, Tol: 1e-2, MaxIters: 50, Seed: 7}
	ref, cps := collectCheckpoints(t, cfg, 1)
	if !ref.Converged {
		t.Fatalf("run did not converge (iters %d); pick a looser tolerance", ref.Stats.Iters)
	}
	last := cps[len(cps)-1]
	if !last.Done || !last.Converged || last.Sweep != ref.Stats.Iters {
		t.Fatalf("terminal checkpoint %+v does not match run (iters %d)", last, ref.Stats.Iters)
	}
	rng := rand.New(rand.NewSource(99))
	x := lowRankTensor(rng, 0.3, 2, 11, 9, 6)
	opts := cfg.Options()
	opts.Resume = last
	got, err := Decompose(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "resume of converged terminal checkpoint", ref, got)
}

// TestCheckpointSinkFailStop: a sink error fails the decomposition instead
// of advancing past unpersistable state.
func TestCheckpointSinkFailStop(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	x := lowRankTensor(rng, 0.3, 2, 11, 9, 6)
	opts := checkpointConfig(4).Options()
	sinkErr := errors.New("disk on fire")
	calls := 0
	opts.CheckpointSink = func(*Checkpoint) error {
		calls++
		if calls == 2 {
			return sinkErr
		}
		return nil
	}
	_, err := Decompose(x, opts)
	if !errors.Is(err, sinkErr) {
		t.Fatalf("Decompose with failing sink = %v, want the sink error", err)
	}
	if calls != 2 {
		t.Fatalf("sink called %d times, want 2 (fail-stop after the error)", calls)
	}
}

func TestCheckpointCorruptionRejected(t *testing.T) {
	_, cps := collectCheckpoints(t, checkpointConfig(2), 1)
	cp := cps[0]
	var buf bytes.Buffer
	if _, err := cp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	check := func(name string, raw []byte) {
		t.Helper()
		_, err := ReadCheckpoint(bytes.NewReader(raw))
		if !errors.Is(err, dterr.ErrCorruptArtifact) {
			t.Fatalf("%s: ReadCheckpoint err = %v, want ErrCorruptArtifact", name, err)
		}
	}

	badMagic := append([]byte(nil), good...)
	copy(badMagic, "NOPE")
	check("bad magic", badMagic)

	badVersion := append([]byte(nil), good...)
	badVersion[4] = 0x63 // schema version 99
	check("mismatched schema version", badVersion)

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-20] ^= 0x01 // inside the model payload
	check("flipped payload byte", flipped)

	check("truncated", good[:len(good)-7])

	// Valid bytes, wrong computation: an unknown config fingerprint must be
	// rejected at resume validation.
	reread, err := ReadCheckpoint(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	reread.Fingerprint = "0123456789abcdef"
	rng := rand.New(rand.NewSource(99))
	x := lowRankTensor(rng, 0.3, 2, 11, 9, 6)
	opts := checkpointConfig(2).Options()
	opts.Resume = reread
	if _, err := Decompose(x, opts); !errors.Is(err, dterr.ErrCorruptArtifact) {
		t.Fatalf("resume with unknown fingerprint = %v, want ErrCorruptArtifact", err)
	}

	// Shape mismatch (checkpoint from a different config/tensor).
	reread2, err := ReadCheckpoint(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	otherCfg := Config{Ranks: []int{2, 2, 2}, Tol: 1e-300, MaxIters: 2, Seed: 7}
	reread2.Fingerprint = otherCfg.Fingerprint()
	opts = otherCfg.Options()
	opts.Resume = reread2
	if _, err := Decompose(x, opts); !errors.Is(err, dterr.ErrCorruptArtifact) {
		t.Fatalf("resume with mismatched shapes = %v, want ErrCorruptArtifact", err)
	}
}

func TestFingerprintStability(t *testing.T) {
	a := Config{Ranks: []int{3, 3, 2}, Seed: 7}
	b := Config{Ranks: []int{3, 3, 2}, Seed: 7, Tol: 1e-4, MaxIters: 100}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("defaults-resolved configs fingerprint differently: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
	c := Config{Ranks: []int{3, 3, 2}, Seed: 8}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different seeds share a fingerprint")
	}
	if len(a.Fingerprint()) != 16 {
		t.Fatalf("fingerprint %q is not 16 hex chars", a.Fingerprint())
	}
}

// TestResumeRefusesV1Fingerprint: a checkpoint stamped by the build that
// ran the cyclic-Jacobi eigensolver (fingerprint scheme v1, whose canonical
// form had no numerics field) is a different trajectory in the last bits,
// and resuming from it must be refused rather than spliced into this one.
func TestResumeRefusesV1Fingerprint(t *testing.T) {
	cfg := checkpointConfig(2)
	canon := cfg.Canonical()
	v1Canon := strings.TrimSuffix(canon, ";numerics=2")
	if v1Canon == canon {
		t.Fatalf("canonical form %q carries no numerics=2 field", canon)
	}
	sum := sha256.Sum256([]byte("dtucker-config-fp-v1|" + v1Canon))
	v1 := hex.EncodeToString(sum[:8])
	if v1 == cfg.Fingerprint() {
		t.Fatal("v1 and current fingerprints coincide")
	}

	_, cps := collectCheckpoints(t, cfg, 1)
	cp := cps[0]
	cp.Fingerprint = v1
	rng := rand.New(rand.NewSource(99))
	x := lowRankTensor(rng, 0.3, 2, 11, 9, 6)
	opts := cfg.Options()
	opts.Resume = cp
	if _, err := Decompose(x, opts); !errors.Is(err, dterr.ErrCorruptArtifact) {
		t.Fatalf("resume from a v1-fingerprint checkpoint = %v, want ErrCorruptArtifact", err)
	}
}

// TestCheckpointStateAliasSafety guards the documented contract that the
// sink's serialized copy is decoupled from the live iteration: mutating the
// iteration's factors after the sink returns must not change what was
// serialized.
func TestCheckpointStateAliasSafety(t *testing.T) {
	var first []byte
	var firstFactors []*mat.Dense
	rng := rand.New(rand.NewSource(99))
	x := lowRankTensor(rng, 0.3, 2, 11, 9, 6)
	opts := checkpointConfig(3).Options()
	opts.CheckpointSink = func(cp *Checkpoint) error {
		if first == nil {
			var buf bytes.Buffer
			if _, err := cp.WriteTo(&buf); err != nil {
				return err
			}
			first = buf.Bytes()
			firstFactors = append([]*mat.Dense(nil), cp.Factors...)
		}
		return nil
	}
	if _, err := Decompose(x, opts); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	for n := range firstFactors {
		if !bitIdentical(cp.Factors[n].Data(), firstFactors[n].Data()) {
			t.Fatalf("serialized factor %d drifted after later sweeps", n)
		}
	}
}
