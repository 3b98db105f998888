// Package core implements D-Tucker (Jang & Kang, ICDE 2020): a fast and
// memory-efficient Tucker decomposition for large dense tensors.
//
// D-Tucker runs in three phases.
//
//  1. Approximation: the tensor is viewed as L = ∏_{n≥3} I_n frontal slices
//     of size I1×I2 (after reordering modes so the two largest come first),
//     and each slice is compressed once with a rank-r randomized SVD,
//     X_l ≈ U_l·diag(S_l)·V_lᵀ. Every later phase touches only these
//     compressed slices — the raw tensor is never revisited.
//  2. Initialization: the factor matrix of mode 1 is initialized from the
//     SVD of the stacked [U_1S_1 … U_LS_L], mode 2 from [V_1S_1 … V_LS_L],
//     and the remaining modes plus the core from the small projected tensor
//     W with slices W_l = (A(1)ᵀU_l)·diag(S_l)·(V_lᵀA(2)).
//  3. Iteration: ALS (HOOI) updates evaluated through the slice SVDs, so a
//     full sweep costs O(L·(I1+I2)·(J² + J^{N-1})) instead of the
//     O(J·∏I_k) a raw-tensor sweep costs.
//
// Complexity (I1 ≥ I2 ≥ … , L slices, slice rank r ≈ J, M iterations):
//
//	approximation: O(L·I1·I2·r) time, O(L·(I1+I2+1)·r) space
//	initialization: O(L·(I1+I2)·r·J) time
//	iteration:      O(M·N·L·(I1+I2)·(J·r + J^{N-1})) time,
//	                O(L·(I1+I2)·r + I1·J^{N-1}) space
//
// matching the figures attributed to D-Tucker in follow-up work (time
// O(I^{N-2}·M·N·J²·I), space O(I^{N-2}·J·I) for an I-cube).
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dterr"
	"repro/internal/kernelsel"
	"repro/internal/metrics"
	"repro/internal/pool"
)

// Options configures a D-Tucker decomposition: the serializable Config —
// the plain-data request, see its doc — plus the runtime attachments that
// only make sense inside one process (cancellation context, metrics
// collector, worker pool). The split is what lets the dtuckerd serving
// layer ship a request across the wire and re-attach process-local state on
// the other side.
type Options struct {
	Config

	// Context, when non-nil, cancels the decomposition cooperatively: it is
	// checked at every per-slice boundary of the approximation phase, every
	// per-factor boundary of the initialization phase, and every sweep
	// boundary of the iteration phase. A cancelled run returns a
	// dterr.CancelledError naming the interrupted phase and wrapping the
	// context's error (errors.Is context.Canceled / DeadlineExceeded), with
	// all worker goroutines joined before the call returns.
	Context context.Context

	// Workers sizes this decomposition's worker pool, which parallelizes
	// all three phases: slice compression in the approximation phase, and
	// the slice/row-parallel iteration kernels plus the projected-tensor
	// mode products in the later phases. Zero selects 1, matching the
	// paper's single-thread protocol. Every parallel site follows an
	// owner-computes split, so results are bit-identical for every value
	// (see Config.Seed).
	Workers int

	// Pool optionally supplies an externally owned worker pool, sharing
	// workers and the scratch-buffer arena across decompositions (a Stream
	// does this internally for its refreshes, and dtuckerd shares one pool
	// across every job). Nil — the default — creates a fresh pool of
	// Workers size per decomposition. When set, it takes precedence over
	// Workers. A pool is explicit context: concurrent decompositions with
	// different settings cannot stomp each other.
	Pool *pool.Pool

	// Metrics, when non-nil, receives per-phase wall times, kernel counter
	// deltas (SVD/QR/matmul calls and flop estimates), memory samples, and
	// the iteration-level fit trajectory, and carries the optional progress
	// trace sink. A nil Metrics — the default — adds no allocations and no
	// measurable overhead to the decomposition (every hook is a nil-safe
	// no-op). Counters are shared process-wide; see package metrics.
	Metrics *metrics.Collector

	// CheckpointSink, when non-nil, receives the live iteration state at the
	// end of every ALS sweep — after the sweep's fit is computed, before the
	// convergence decision is acted on. The checkpoint aliases working
	// state: the sink must serialize or deep-copy before returning and must
	// not retain the pointers. The call is synchronous and its error fails
	// the decomposition (fail-stop durability: a run whose checkpoints
	// cannot be persisted is not allowed to advance past what recovery could
	// reproduce). Terminal sweeps are marked Done so a resumed run can
	// short-circuit to the result.
	CheckpointSink func(*Checkpoint) error

	// Resume, when non-nil, continues the iteration phase from a previously
	// captured checkpoint instead of running initialization: the
	// approximation phase is recomputed (it is deterministic and cheap
	// relative to lost sweeps), initFactors is skipped, and sweeps continue
	// at Resume.Sweep+1 with the checkpoint's fit as the convergence
	// baseline. Because every parallel site is owner-computes, the resumed
	// run's factors, core, and fit are bit-identical to an uninterrupted
	// one. The checkpoint must carry this config's Fingerprint; a mismatch
	// (or any shape inconsistency) is a dterr.ErrCorruptArtifact error.
	Resume *Checkpoint

	// Profile supplies the calibrated kernelsel cost model that SliceKernel
	// "auto" resolves against. Nil selects kernelsel.Default(). When
	// Config.KernelProfile is non-empty it must equal this profile's
	// fingerprint — a mismatch is an invalid-input error, because a result
	// computed under a different profile than the one named in the cache key
	// would poison the serving cache.
	Profile *kernelsel.Profile
}

func (o Options) withDefaults(order int) (Options, error) {
	if len(o.Ranks) != order {
		return o, fmt.Errorf("core: %d ranks for an order-%d tensor: %w",
			len(o.Ranks), order, dterr.ErrInvalidInput)
	}
	if err := o.Config.Validate(); err != nil {
		return o, err
	}
	o.Config = o.Config.Normalized()
	if o.Profile == nil {
		o.Profile = kernelsel.Default()
	}
	if o.SliceKernel == "auto" && o.KernelProfile != "" {
		if fp := o.Profile.Fingerprint(); o.KernelProfile != fp {
			return o, fmt.Errorf("core: config names kernel profile %s but the process runs %s: %w",
				o.KernelProfile, fp, dterr.ErrInvalidInput)
		}
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.Pool != nil {
		o.Workers = o.Pool.Size()
	}
	return o, nil
}

// cancelled returns the phase-tagged cancellation error when the options'
// context is done, nil otherwise. Phase boundaries call it so a cancelled
// run stops within one slice/sweep of the signal.
func (o Options) cancelled(phase string) error {
	if o.Context != nil && o.Context.Err() != nil {
		return dterr.Cancelled(phase, o.Context.Err())
	}
	return nil
}

// wrapCancel tags a context error surfaced by a parallel region with the
// phase it interrupted; errors already phase-tagged, and all non-context
// errors, pass through unchanged.
func wrapCancel(phase string, err error) error {
	if err == nil {
		return nil
	}
	var tagged *dterr.CancelledError
	if errors.As(err, &tagged) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return dterr.Cancelled(phase, err)
	}
	return err
}

// newPool returns the decomposition's execution pool: the caller-supplied
// one when set, otherwise a fresh pool of Workers size carrying the
// collector's span tracer so labeled parallel regions record per-task spans
// on worker lanes. A caller-supplied pool is externally owned, so its tracer
// (or lack of one) is left alone.
func (o Options) newPool() *pool.Pool {
	if o.Pool != nil {
		return o.Pool
	}
	p := pool.New(o.Workers)
	p.SetTracer(o.Metrics.Tracer())
	return p
}
