package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dterr"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Durability: the crash-safety layer of dtuckerd.
//
// When Config.DataDir is set, every job admitted through POST /v1/decompose
// is made durable before real work happens: the input tensor is spilled to
// DataDir/jobs/<id>.ten, and an "accepted" record — identity, tenant, lane,
// config, tensor digest — is committed to the write-ahead journal
// (DataDir/journal.dtjl, fsync per record). From then on the job's lifecycle
// is journaled: "started" when a runner picks it up, a "sweep" record for
// every committed checkpoint (DataDir/jobs/<id>.ckpt, replaced atomically
// each CheckpointEvery sweeps), and a terminal "finished" or "cancelled"
// record. Results of durable jobs are spilled to DataDir/jobs/<id>.dtd
// before the terminal record commits, so a restarted server can still serve
// them.
//
// On startup New replays the snapshot (DataDir/snapshot.dtjs) plus the
// journal records above its watermark, truncating any torn tail, and
// reconstructs the job registry: jobs with a terminal record are restored as
// finished records (results lazily loaded from their spill on first fetch);
// jobs without one are re-enqueued — bypassing admission quotas, they were
// already admitted once — with an exec closure that reloads the tensor
// spill, verifies its digest, and resumes from the latest intact checkpoint.
// Because the decomposition is bit-identical across worker counts and
// checkpoints capture exact iteration state, a job killed after any sweep
// finishes with exactly the bits an uninterrupted run would have produced.
//
// Corruption never aborts recovery, it degrades per artifact: a corrupt
// snapshot falls back to journal-only replay, a torn journal tail is
// truncated, a corrupt or foreign-fingerprint checkpoint restarts that job
// from sweep one, a corrupt tensor spill fails that one job with a typed
// corrupt_artifact error. Only an unreadable journal header (the file is not
// ours) fails startup — appending to a foreign file would destroy it.
//
// What is deliberately NOT journaled: stream sessions (their warm-start
// state is the history of every append — durably capturing it would mean
// journaling the full tensor stream; sessions are ephemeral and documented
// so), cache-hit submissions (born done; the answer was already served), and
// drain-time cancellations (a graceful restart must resume interrupted work,
// not abandon it — only client-requested DELETEs commit a "cancelled"
// record).

// durability is the server's journal handle plus recovery/observability
// counters, nil when Config.DataDir is unset.
type durability struct {
	dir     string
	jobsDir string
	every   int // checkpoint cadence in sweeps
	logf    func(format string, args ...any)
	jl      *journal.Journal

	// Counters, exported under "durability" on /metricz.
	replayedRecords atomic.Int64 // journal+snapshot records replayed at startup
	restoredJobs    atomic.Int64 // terminal jobs restored into the registry
	recoveredJobs   atomic.Int64 // interrupted jobs re-enqueued
	resumedJobs     atomic.Int64 // of those, resumed from an intact checkpoint
	tornTruncations atomic.Int64 // torn journal tails truncated
	corruptSkipped  atomic.Int64 // corrupt artifacts skipped (not aborted on)
	checkpoints     atomic.Int64 // checkpoint spills committed
	checkpointFails atomic.Int64 // checkpoint/result spills that failed
	appendFailures  atomic.Int64 // journal appends that failed (job continued)
}

// isCrashErr reports whether err is an injected crash: the simulated process
// death that must propagate (failing the in-flight job like a kill would)
// rather than be absorbed as a degraded write.
func isCrashErr(err error) bool {
	var ce *faults.CrashError
	return errors.As(err, &ce)
}

func nowMs() int64 { return time.Now().UnixMilli() }

func (d *durability) tensorPath(id string) string { return filepath.Join(d.jobsDir, id+".ten") }
func (d *durability) ckptPath(id string) string   { return filepath.Join(d.jobsDir, id+".ckpt") }
func (d *durability) resultPath(id string) string { return filepath.Join(d.jobsDir, id+".dtd") }

// snapshot returns the counters for /metricz.
func (d *durability) snapshot() map[string]any {
	frozen := false
	if d.jl != nil {
		frozen, _ = d.jl.Frozen()
	}
	return map[string]any{
		"enabled":             true,
		"frozen":              frozen,
		"replayed_records":    d.replayedRecords.Load(),
		"restored_jobs":       d.restoredJobs.Load(),
		"recovered_jobs":      d.recoveredJobs.Load(),
		"resumed_jobs":        d.resumedJobs.Load(),
		"torn_truncations":    d.tornTruncations.Load(),
		"corrupt_skipped":     d.corruptSkipped.Load(),
		"checkpoints_written": d.checkpoints.Load(),
		"checkpoint_failures": d.checkpointFails.Load(),
		"append_failures":     d.appendFailures.Load(),
	}
}

// openDurability opens (creating if needed) the data directory and journal
// and replays the committed record stream. The returned records merge the
// snapshot with the journal records above its watermark, in admission order.
func openDurability(cfg Config) (*durability, []journal.Record, error) {
	d := &durability{
		dir:     cfg.DataDir,
		jobsDir: filepath.Join(cfg.DataDir, "jobs"),
		every:   cfg.CheckpointEvery,
		logf:    cfg.Logf,
	}
	if err := os.MkdirAll(d.jobsDir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durability: creating %s: %w", d.jobsDir, err)
	}

	snapPath := filepath.Join(d.dir, "snapshot.dtjs")
	snapSeq, snapRecs, err := journal.ReadSnapshot(snapPath)
	if err != nil {
		// A corrupt snapshot is survivable: the journal alone is authoritative,
		// the snapshot only bounds replay work.
		d.corruptSkipped.Add(1)
		d.logf("durability: snapshot unusable, recovering from journal alone: %v", err)
		snapSeq, snapRecs = 0, nil
	}

	jl, rep, err := journal.Open(filepath.Join(d.dir, "journal.dtjl"))
	if err != nil {
		return nil, nil, err
	}
	d.jl = jl
	if rep.TailError != nil {
		d.tornTruncations.Add(1)
		d.logf("durability: truncated %d-byte torn journal tail: %v", rep.TruncatedBytes, rep.TailError)
	}
	jl.BumpSeq(snapSeq)

	records := append([]journal.Record(nil), snapRecs...)
	for _, rec := range rep.Records {
		if rec.Seq > snapSeq {
			records = append(records, rec)
		}
	}
	d.replayedRecords.Add(int64(len(records)))
	return d, records, nil
}

// foldedJob is one job's replayed lifecycle.
type foldedJob struct {
	accepted *journal.Record
	sweep    *journal.Record // latest committed sweep, nil if none
	terminal *journal.Record // finished or cancelled, nil if interrupted
}

func (fj *foldedJob) sweepIndex() int {
	if fj.sweep == nil {
		return 0
	}
	return fj.sweep.Sweep
}

// foldRecords groups a replayed record stream per job, preserving admission
// order. Records for jobs with no accepted record (possible when the
// accepted frame itself was in a compacted-away epoch) are dropped — without
// the input tensor reference there is nothing to recover.
func foldRecords(records []journal.Record) (map[string]*foldedJob, []string) {
	jobs := map[string]*foldedJob{}
	var order []string
	for i := range records {
		rec := &records[i]
		fj := jobs[rec.Job]
		if fj == nil {
			fj = &foldedJob{}
			jobs[rec.Job] = fj
			order = append(order, rec.Job)
		}
		switch rec.Type {
		case journal.RecAccepted:
			fj.accepted = rec
		case journal.RecSweep:
			if fj.sweep == nil || rec.Sweep >= fj.sweep.Sweep {
				fj.sweep = rec
			}
		case journal.RecFinished, journal.RecCancelled:
			fj.terminal = rec
		}
	}
	var kept []string
	for _, id := range order {
		if jobs[id].accepted != nil {
			kept = append(kept, id)
		} else {
			delete(jobs, id)
		}
	}
	return jobs, kept
}

// recoverJobs rebuilds the job registry and queue from the replayed records,
// then compacts the journal into a fresh snapshot and garbage-collects
// unreferenced spill files. Called by New with no runners started yet, so
// re-enqueued jobs coalesce deterministically in admission order.
func (s *Server) recoverJobs(records []journal.Record) error {
	d := s.dur
	jobs, order := foldRecords(records)

	// Bound restored history like the live registry does: beyond
	// maxJobRecords the oldest *terminal* jobs are dropped entirely (from the
	// registry, the snapshot, and the jobs directory).
	if excess := len(order) - maxJobRecords; excess > 0 {
		var pruned []string
		for _, id := range order {
			if excess > 0 && jobs[id].terminal != nil {
				delete(jobs, id)
				excess--
				continue
			}
			pruned = append(pruned, id)
		}
		order = pruned
	}

	maxID := int64(0)
	live := map[string]bool{} // spill files still referenced
	for _, id := range order {
		if n := jobNumber(id); n > maxID {
			maxID = n
		}
		fj := jobs[id]
		if fj.terminal != nil {
			s.restoreTerminalJob(id, fj)
			if fj.terminal.Type == journal.RecFinished && fj.terminal.Outcome == "done" && fj.terminal.ResultFile != "" {
				live[filepath.Base(fj.terminal.ResultFile)] = true
			}
			continue
		}
		if err := s.requeueInterruptedJob(id, fj); err != nil {
			// Per-job degradation: log, count, and keep recovering the rest.
			d.corruptSkipped.Add(1)
			d.logf("durability: job %s not recoverable, skipped: %v", id, err)
			delete(jobs, id)
			continue
		}
		live[filepath.Base(d.tensorPath(id))] = true
		live[filepath.Base(d.ckptPath(id))] = true
	}

	s.mu.Lock()
	if maxID > s.nextJob {
		s.nextJob = maxID
	}
	s.mu.Unlock()

	// Re-derive the snapshot from what was actually kept, truncate the
	// journal, and sweep droppings (.tmp files, artifacts of dropped jobs).
	var keptRecords []journal.Record
	for _, rec := range records {
		if _, ok := jobs[rec.Job]; ok {
			keptRecords = append(keptRecords, rec)
		}
	}
	snapPath := filepath.Join(d.dir, "snapshot.dtjs")
	if err := journal.WriteSnapshot(snapPath, d.jl.Seq(), journal.Compact(keptRecords)); err != nil {
		return fmt.Errorf("durability: writing startup snapshot: %w", err)
	}
	if err := d.jl.Truncate(); err != nil {
		return fmt.Errorf("durability: truncating journal after snapshot: %w", err)
	}
	d.gcJobsDir(live)
	return nil
}

// jobNumber parses the numeric suffix of a "j-000042" id, 0 if malformed.
func jobNumber(id string) int64 {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return 0
	}
	n, err := strconv.ParseInt(id[i+1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// gcJobsDir removes every file in the jobs directory not in live.
func (d *durability) gcJobsDir(live map[string]bool) {
	entries, err := os.ReadDir(d.jobsDir)
	if err != nil {
		d.logf("durability: gc: %v", err)
		return
	}
	removed := 0
	for _, e := range entries {
		if e.IsDir() || live[e.Name()] {
			continue
		}
		if err := os.Remove(filepath.Join(d.jobsDir, e.Name())); err == nil {
			removed++
		}
	}
	if removed > 0 {
		d.logf("durability: gc removed %d unreferenced files", removed)
	}
}

// restoreTerminalJob rebuilds the registry record of a job that finished in
// a previous process life. Done jobs keep their result spill on disk; the
// payload is loaded lazily on the first GET /result.
func (s *Server) restoreTerminalJob(id string, fj *foldedJob) {
	acc, term := fj.accepted, fj.terminal
	j := &job{
		id:        id,
		requestID: recoveredRequestID(acc),
		key:       acc.Key,
		tenant:    acc.Tenant,
		lane:      laneFromString(acc.Lane),
		recovered: true,
		created:   time.UnixMilli(acc.AtMs),
		finished:  time.UnixMilli(term.AtMs),
	}
	// Registered records need a context so DELETE stays a harmless no-op.
	j.ctx, j.cancel = context.WithCancel(context.Background())
	j.cancel()
	switch {
	case term.Type == journal.RecCancelled:
		j.state = StateCancelled
		j.err = &WireError{Kind: KindCancelled, Message: "cancelled before restart"}
	case term.Outcome == "done":
		j.state = StateDone
		j.restoredFit = term.Fit
		j.restoredConverged = term.Converged
		j.restoredIters = term.Iters
		j.resultFile = term.ResultFile
		j.resultDigest = term.ResultDigest
	default:
		j.state = StateFailed
		j.err = &WireError{Kind: term.ErrKind, Message: term.ErrMessage}
	}
	s.register(j)
	s.dur.restoredJobs.Add(1)
	s.obs.Emit(obs.Event{
		Event: "job_recovery", RequestID: j.requestID, JobID: j.id,
		Tenant: j.tenant, Lane: j.lane.String(), Outcome: "restored_" + j.state,
	})
	s.cfg.Logf("job %s: restored (%s)", id, j.state)
}

// recoveredRequestID restores the submitting request's correlation ID from
// the accepted record, minting a fresh one for journals written before the
// field existed — every job record and log event carries one either way.
func recoveredRequestID(acc *journal.Record) string {
	if acc.RequestID != "" {
		return acc.RequestID
	}
	return obs.NewRequestID()
}

// requeueInterruptedJob re-enqueues a job that was accepted but never
// reached a terminal record. The tensor spill is only opened when the job
// runs; admission bypasses quotas and queue capacity (the job was already
// admitted by a previous process life and must not be shed now).
func (s *Server) requeueInterruptedJob(id string, fj *foldedJob) error {
	d := s.dur
	acc := fj.accepted
	// Strict like decodeBody: a config naming a field this build no longer
	// has would otherwise resume as a different computation under the old
	// cache key.
	var cfg core.Config
	dec := json.NewDecoder(bytes.NewReader(acc.Config))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return fmt.Errorf("accepted record config: %w: %v", dterr.ErrCorruptArtifact, err)
	}
	if _, err := os.Stat(d.tensorPath(id)); err != nil {
		return fmt.Errorf("tensor spill: %w: %v", dterr.ErrCorruptArtifact, err)
	}

	j := s.newDurableJob(id, acc, cfg)
	s.jobsWG.Add(1)
	s.schedMu.Lock()
	leader := s.sched.enqueueLocked(j)
	s.schedMu.Unlock()
	if leader != nil {
		s.jobsWG.Done()
		s.coalesced.Add(1)
	}
	s.register(j)
	s.submitted.Add(1)
	d.recoveredJobs.Add(1)
	s.obs.Emit(obs.Event{
		Event: "job_recovery", RequestID: j.requestID, JobID: j.id,
		Tenant: j.tenant, Lane: j.lane.String(), Outcome: "requeued",
	})
	s.cfg.Logf("job %s: recovered (tenant %s, %s, checkpointed sweep %d)", id, j.tenant, j.lane, fj.sweepIndex())
	return nil
}

// newDurableJob builds the runnable job record for a recovered submission,
// with an exec closure that reloads the tensor spill, verifies its digest,
// and resumes from the latest intact checkpoint.
func (s *Server) newDurableJob(id string, acc *journal.Record, cfg core.Config) *job {
	d := s.dur
	j := &job{
		id:        id,
		requestID: recoveredRequestID(acc),
		key:       acc.Key,
		tenant:    acc.Tenant,
		lane:      laneFromString(acc.Lane),
		timeout:   time.Duration(acc.TimeoutMs) * time.Millisecond,
		col:       metrics.New(),
		state:     StateQueued,
		recovered: true,
		created:   time.UnixMilli(acc.AtMs),
	}
	j.persist.Store(true)
	j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	if acc.Trace {
		j.tracer = trace.New()
		j.col.SetTracer(j.tracer)
		j.ownTracer = true
	}
	digest := acc.TensorDigest
	j.exec = func(ctx context.Context, pl *pool.Pool, col *metrics.Collector) (*core.Decomposition, error) {
		x, err := d.loadTensorSpill(j.id, digest)
		if err != nil {
			return nil, err
		}
		opts := cfg.Options()
		opts.Context = ctx
		opts.Pool = pl
		opts.Metrics = col
		opts.Profile = s.cfg.KernelProfile
		opts.CheckpointSink = s.checkpointSink(j)
		if cp := d.loadCheckpoint(j.id); cp != nil {
			opts.Resume = cp
			dec, err := core.Decompose(x, opts)
			if err == nil || !errors.Is(err, dterr.ErrCorruptArtifact) {
				if err == nil {
					d.resumedJobs.Add(1)
				}
				return dec, err
			}
			// The checkpoint read cleanly but belongs to a different
			// computation (foreign fingerprint, shape mismatch): skip it and
			// restart from scratch rather than fail the job.
			d.corruptSkipped.Add(1)
			d.logf("job %s: checkpoint rejected, restarting from scratch: %v", j.id, err)
			opts.Resume = nil
		}
		return core.Decompose(x, opts)
	}
	return j
}

// loadTensorSpill reads and digest-verifies a job's spilled input tensor. A
// corrupt spill is unrecoverable for that job — there is no other copy of
// the input — so the error is terminal and typed.
func (d *durability) loadTensorSpill(id, wantDigest string) (*tensor.Dense, error) {
	f, err := os.Open(d.tensorPath(id))
	if err != nil {
		return nil, fmt.Errorf("durability: tensor spill: %w: %v", dterr.ErrCorruptArtifact, err)
	}
	defer f.Close()
	x, err := tensor.ReadFrom(f)
	if err != nil {
		return nil, fmt.Errorf("durability: tensor spill: %w: %v", dterr.ErrCorruptArtifact, err)
	}
	digest, err := tensorDigest(x)
	if err != nil {
		return nil, err
	}
	if wantDigest != "" && digest != wantDigest {
		return nil, fmt.Errorf("durability: tensor spill digest %.12s does not match accepted %.12s: %w",
			digest, wantDigest, dterr.ErrCorruptArtifact)
	}
	return x, nil
}

// loadCheckpoint reads a job's latest committed checkpoint, nil when absent
// or corrupt (a corrupt checkpoint restarts the job, it never fails it).
func (d *durability) loadCheckpoint(id string) *core.Checkpoint {
	f, err := os.Open(d.ckptPath(id))
	if err != nil {
		return nil // no checkpoint: the job restarts from sweep one
	}
	defer f.Close()
	cp, err := core.ReadCheckpoint(f)
	if err != nil {
		d.corruptSkipped.Add(1)
		d.logf("job %s: corrupt checkpoint skipped, restarting from scratch: %v", id, err)
		return nil
	}
	return cp
}

// persistAccepted makes a freshly admitted job durable: tensor spill first,
// then the accepted record, so a committed record always references a
// complete tensor. On any failure the job simply stays ephemeral (it was
// never acknowledged as durable), with the failure logged and counted.
func (s *Server) persistAccepted(j *job, x *tensor.Dense, cfg core.Config, digest string) {
	d := s.dur
	rawCfg, err := json.Marshal(cfg)
	if err != nil {
		j.persist.Store(false)
		d.logf("job %s: encoding config for journal: %v", j.id, err)
		return
	}
	if err := journal.WriteFileAtomic(d.tensorPath(j.id), func(w io.Writer) error {
		_, werr := x.WriteTo(w)
		return werr
	}); err != nil {
		j.persist.Store(false)
		d.checkpointFails.Add(1)
		if isCrashErr(err) {
			d.jl.Freeze(err) // simulated death: no write after this one
		}
		d.logf("job %s: tensor spill failed, job is not durable: %v", j.id, err)
		return
	}
	rec := journal.Record{
		Type:         journal.RecAccepted,
		Job:          j.id,
		AtMs:         nowMs(),
		RequestID:    j.requestID,
		Tenant:       j.tenant,
		Lane:         j.lane.String(),
		Key:          j.key,
		Config:       rawCfg,
		TensorFile:   filepath.Base(d.tensorPath(j.id)),
		TensorDigest: digest,
		Fingerprint:  cfg.Fingerprint(),
		TimeoutMs:    int64(j.timeout / time.Millisecond),
		Trace:        j.tracer != nil,
	}
	if err := d.jl.Append(rec); err != nil {
		j.persist.Store(false)
		d.appendFailures.Add(1)
		d.logf("job %s: accepted record not committed, job is not durable: %v", j.id, err)
	}
}

// persistStarted journals a runner picking the job up. Informational: a
// failure (or a frozen journal) degrades observability, not recoverability.
func (s *Server) persistStarted(j *job) {
	if s.dur == nil || !j.persist.Load() {
		return
	}
	if err := s.dur.jl.Append(journal.Record{Type: journal.RecStarted, Job: j.id, AtMs: nowMs()}); err != nil {
		s.dur.appendFailures.Add(1)
	}
}

// checkpointSink returns the core.Options.CheckpointSink for a durable job:
// every CheckpointEvery-th sweep (and every terminal sweep) the iteration
// state is spilled atomically and a sweep record committed. Real write
// failures degrade — the job continues, recovery just resumes from an older
// sweep — but an injected crash propagates, failing the job exactly as a
// process death at that write would have.
func (s *Server) checkpointSink(j *job) func(*core.Checkpoint) error {
	d := s.dur
	return func(cp *core.Checkpoint) error {
		if d.every > 1 && cp.Sweep%d.every != 0 && !cp.Done {
			return nil
		}
		if frozen, _ := d.jl.Frozen(); frozen {
			// The journal already froze (a prior simulated death or write
			// error): stop producing durability artifacts, keep computing.
			return nil
		}
		if err := journal.WriteFileAtomic(d.ckptPath(j.id), func(w io.Writer) error {
			_, werr := cp.WriteTo(w)
			return werr
		}); err != nil {
			d.checkpointFails.Add(1)
			if isCrashErr(err) {
				d.jl.Freeze(err) // simulated death: no write after this one
				return err
			}
			d.logf("job %s: checkpoint spill at sweep %d failed: %v", j.id, cp.Sweep, err)
			return nil
		}
		rec := journal.Record{
			Type:           journal.RecSweep,
			Job:            j.id,
			AtMs:           nowMs(),
			Sweep:          cp.Sweep,
			CheckpointFile: filepath.Base(d.ckptPath(j.id)),
		}
		if err := d.jl.Append(rec); err != nil {
			d.appendFailures.Add(1)
			if isCrashErr(err) {
				return err
			}
			d.logf("job %s: sweep %d record not committed: %v", j.id, cp.Sweep, err)
			return nil
		}
		d.checkpoints.Add(1)
		j.setSweep(cp.Sweep)
		return nil
	}
}

// persistFinished commits a durable job's terminal outcome: dec on success,
// else err, with userCancelled set when a client DELETE asked for the
// cancellation. For done jobs the result is spilled before the record, so
// "finished done" always references a servable result; resultFile/
// resultDigest, when non-empty, reuse a spill already written (coalesced
// followers share their leader's). It returns the result file name and
// digest for followers to reuse.
//
// Drain-time cancellations are not journaled: the job stays "interrupted" on
// disk and a restarted server resumes it. Client-requested cancellations
// and timeouts commit a cancelled record.
func (s *Server) persistFinished(j *job, dec *core.Decomposition, err error, userCancelled bool, resultFile, resultDigest string) (string, string) {
	if s.dur == nil || !j.persist.Load() {
		return resultFile, resultDigest
	}
	d := s.dur
	if !j.terminalPersisted.CompareAndSwap(false, true) {
		return resultFile, resultDigest
	}
	rec := journal.Record{Job: j.id, AtMs: nowMs()}
	we := wireError(err)
	switch {
	case err == nil:
		if resultFile == "" {
			resultFile = filepath.Base(d.resultPath(j.id))
			// The spill bytes are hashed as they are written: .dtd has no
			// internal checksum, so the digest in the finished record is what
			// lets a restart reject a bit-rotted result instead of serving it.
			h := sha256.New()
			if err := journal.WriteFileAtomic(d.resultPath(j.id), func(w io.Writer) error {
				_, werr := dec.WriteTo(io.MultiWriter(w, h))
				return werr
			}); err != nil {
				// No result spill, no terminal record: the job stays
				// interrupted on disk and recovery recomputes it (resuming
				// from its last checkpoint — likely the terminal one).
				d.checkpointFails.Add(1)
				if isCrashErr(err) {
					d.jl.Freeze(err) // simulated death: no write after this one
				} else {
					d.logf("job %s: result spill failed, outcome not committed: %v", j.id, err)
				}
				return "", ""
			}
			resultDigest = hex.EncodeToString(h.Sum(nil))
		}
		rec.Type = journal.RecFinished
		rec.Outcome = "done"
		rec.ResultFile = resultFile
		rec.ResultDigest = resultDigest
		rec.Fit = dec.Fit
		rec.Converged = dec.Converged
		rec.Iters = dec.Stats.Iters
	case we.Kind == KindCancelled:
		if !userCancelled && s.draining.Load() {
			return resultFile, resultDigest // graceful restart: resume, don't abandon
		}
		rec.Type = journal.RecCancelled
	default:
		rec.Type = journal.RecFinished
		rec.Outcome = "failed"
		rec.ErrKind = we.Kind
		rec.ErrMessage = we.Message
	}
	if err := d.jl.Append(rec); err != nil {
		d.appendFailures.Add(1)
		if !isCrashErr(err) {
			d.logf("job %s: terminal record not committed: %v", j.id, err)
		}
		return resultFile, resultDigest
	}
	// The terminal record is durable; the recovery-only artifacts are not
	// needed any more. (The result spill stays — restarts serve from it.)
	os.Remove(d.tensorPath(j.id))
	os.Remove(d.ckptPath(j.id))
	return resultFile, resultDigest
}

// loadRestoredResult serves GET /result for a job restored from the journal:
// the decomposition is read back from its spill on first fetch, memoized on
// the job record, and planted in the result cache.
func (s *Server) loadRestoredResult(j *job) (*core.Decomposition, error) {
	j.mu.Lock()
	dec, file, key, wantDigest := j.dec, j.resultFile, j.key, j.resultDigest
	j.mu.Unlock()
	if dec != nil {
		return dec, nil
	}
	if file == "" {
		return nil, fmt.Errorf("durability: restored job has no result spill: %w", dterr.ErrCorruptArtifact)
	}
	raw, err := os.ReadFile(filepath.Join(s.dur.jobsDir, filepath.Base(file)))
	if err != nil {
		s.dur.corruptSkipped.Add(1)
		return nil, fmt.Errorf("durability: result spill: %w: %v", dterr.ErrCorruptArtifact, err)
	}
	if wantDigest != "" {
		if got := sha256.Sum256(raw); hex.EncodeToString(got[:]) != wantDigest {
			s.dur.corruptSkipped.Add(1)
			return nil, fmt.Errorf("durability: result spill does not hash to its journaled digest %.12s: %w",
				wantDigest, dterr.ErrCorruptArtifact)
		}
	}
	dec, err = core.ReadDecomposition(bytes.NewReader(raw))
	if err != nil {
		s.dur.corruptSkipped.Add(1)
		return nil, fmt.Errorf("durability: result spill: %w: %v", dterr.ErrCorruptArtifact, err)
	}
	j.mu.Lock()
	j.dec = dec
	j.mu.Unlock()
	if key != "" {
		s.cache.Put(key, dec)
	}
	return dec, nil
}

// laneFromString parses a journaled lane name; unknown names fall back to
// batch (the conservative lane) instead of failing recovery.
func laneFromString(name string) lane {
	if name == "interactive" {
		return laneInteractive
	}
	return laneBatch
}

// Close flushes and closes the journal. Called at the end of Drain.
func (d *durability) Close() {
	if d == nil || d.jl == nil {
		return
	}
	if err := d.jl.Close(); err != nil {
		d.logf("durability: closing journal: %v", err)
	}
}
