package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/dterr"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/tensor"
)

// Stream maintains a D-Tucker compression of a temporal tensor that grows
// along its LAST mode, the natural streaming axis. Each Append compresses
// only the newly arrived slices — the paper's extensibility property: the
// preprocessing of old data is never redone — and Decompose warm-starts the
// iteration phase from the previous factors, so refreshing the model after
// new data costs a few sweeps instead of a full decomposition.
//
// This implements the online direction the paper lists as future work; it
// is labelled an extension in DESIGN.md.
type Stream struct {
	opts    Options
	shape   []int // full current shape; shape[last] grows
	slices  []SliceSVD
	sliceSq []float64 // exact per-slice ‖X_l‖², for range-query norms
	sumSq   float64   // Σ‖chunk‖², so NormX is maintained incrementally
	rank    int       // slice rank, fixed by the first chunk

	prevFactors []*mat.Dense // warm-start state from the last Decompose

	// pl is shared across every Append and Decompose of the stream, so
	// refreshes recycle scratch memory from earlier phases via its arena.
	pl *pool.Pool
}

// pool returns the stream's worker pool, creating it on first use.
func (s *Stream) pool() *pool.Pool {
	if s.pl == nil {
		s.pl = s.opts.newPool()
	}
	return s.pl
}

// NewStream creates an empty stream. opts.Ranks must match the order of the
// chunks that will be appended; opts.NoReorder is implied (the stream's
// slice structure is defined by the incoming mode order, with the first two
// modes as slice modes).
func NewStream(opts Options) *Stream {
	opts.NoReorder = true
	return &Stream{opts: opts}
}

// Len returns the current length of the temporal (last) mode.
func (s *Stream) Len() int {
	if s.shape == nil {
		return 0
	}
	return s.shape[len(s.shape)-1]
}

// Shape returns the current full shape, or nil before the first Append.
func (s *Stream) Shape() []int { return append([]int(nil), s.shape...) }

// StorageFloats returns the size of the compressed stream state.
func (s *Stream) StorageFloats() int {
	total := 0
	for _, sl := range s.slices {
		total += sl.U.Rows()*sl.U.Cols() + len(sl.S) + sl.V.Rows()*sl.V.Cols()
	}
	return total
}

// Append compresses a new chunk and extends the stream. The chunk must have
// the same shape as previous chunks in every mode except the last, and
// order ≥ 3 (order-2 streams have no slice structure to extend). A failed or
// cancelled Append leaves the stream exactly as it was — no partial slices
// are retained.
func (s *Stream) Append(chunk *tensor.Dense) (err error) {
	defer dterr.RecoverTo(&err, "core.Stream.Append")
	root := s.opts.Metrics.Tracer().Begin("append")
	defer root.End()
	if chunk == nil {
		return fmt.Errorf("core: nil chunk: %w", dterr.ErrInvalidInput)
	}
	if chunk.Order() < 3 {
		return fmt.Errorf("core: stream chunks must have order ≥ 3, got %d: %w",
			chunk.Order(), dterr.ErrInvalidInput)
	}
	if !chunk.IsFinite() {
		return fmt.Errorf("core: chunk contains NaN or Inf: %w", dterr.ErrNonFiniteInput)
	}
	if err := s.opts.cancelled("approximation"); err != nil {
		return err
	}
	// First-chunk setup runs on locals and commits only after the chunk
	// compresses successfully, so a failed Append leaves the stream empty.
	firstOpts, firstRank := s.opts, s.rank
	if s.shape == nil {
		opts, err := s.opts.withDefaults(chunk.Order())
		if err != nil {
			return err
		}
		for n, j := range opts.Ranks[:chunk.Order()-1] {
			if j > chunk.Dim(n) {
				return fmt.Errorf("core: rank %d exceeds dimensionality %d of mode %d: %w",
					j, chunk.Dim(n), n, dterr.ErrInvalidInput)
			}
		}
		firstOpts = opts
		firstRank = opts.SliceRank
		if firstRank <= 0 {
			firstRank = opts.Ranks[0]
			if opts.Ranks[1] > firstRank {
				firstRank = opts.Ranks[1]
			}
		}
		if m := min(chunk.Dim(0), chunk.Dim(1)); firstRank > m {
			firstRank = m
		}
	} else {
		cs := chunk.Shape()
		if len(cs) != len(s.shape) {
			return fmt.Errorf("core: chunk order %d does not match stream order %d", len(cs), len(s.shape))
		}
		for n := 0; n < len(cs)-1; n++ {
			if cs[n] != s.shape[n] {
				return fmt.Errorf("core: chunk mode-%d dimensionality %d does not match stream's %d", n, cs[n], s.shape[n])
			}
		}
	}

	// Compress the chunk's slices. Because the temporal mode is the
	// slowest-varying in the slice enumeration, new slices append cleanly
	// at the end of the existing list.
	col := firstOpts.Metrics
	col.StartPhase(metrics.PhaseApprox)
	defer col.EndPhase(metrics.PhaseApprox)
	chunkOpts := firstOpts
	chunkOpts.Seed = firstOpts.Seed + int64(len(s.slices))
	if s.pl == nil {
		// Built from the normalized options, so Workers is already ≥ 1.
		s.pl = firstOpts.newPool()
	}
	newSlices, err := compressSlices(chunk, identityPerm(chunk.Order()), firstRank,
		int64(len(s.slices)), chunkOpts, s.pl)
	if err != nil {
		return err
	}
	if s.shape == nil {
		s.opts, s.rank = firstOpts, firstRank
		s.shape = chunk.Shape()
		s.shape[len(s.shape)-1] = 0
	}
	if col.Tracing() {
		col.Tracef("stream append: %d new slices (stream now %d long)",
			len(newSlices), s.Len()+chunk.Dim(chunk.Order()-1))
	}
	s.slices = append(s.slices, newSlices...)
	s.shape[len(s.shape)-1] += chunk.Dim(chunk.Order() - 1)
	// Exact per-slice energies: each frontal slice occupies one contiguous
	// I1×I2 block of the chunk's backing array.
	area := chunk.Dim(0) * chunk.Dim(1)
	data := chunk.Data()
	for off := 0; off < len(data); off += area {
		var q float64
		for _, v := range data[off : off+area] {
			q += v * v
		}
		s.sliceSq = append(s.sliceSq, q)
		s.sumSq += q
	}
	// The temporal factor's shape changed; the non-temporal warm start
	// remains valid.
	return nil
}

// Decompose produces the Tucker model of everything appended so far. The
// first call runs the full initialization; later calls warm-start from the
// previous factors, refreshing only the temporal factor before iterating.
func (s *Stream) Decompose() (_ *Decomposition, err error) {
	defer dterr.RecoverTo(&err, "core.Stream.Decompose")
	root := s.opts.Metrics.Tracer().Begin("solve")
	defer root.End()
	if s.shape == nil {
		return nil, fmt.Errorf("core: Decompose on an empty stream: %w", dterr.ErrInvalidInput)
	}
	order := len(s.shape)
	if s.opts.Ranks[order-1] > s.shape[order-1] {
		return nil, fmt.Errorf("core: temporal rank %d exceeds current stream length %d: %w",
			s.opts.Ranks[order-1], s.shape[order-1], dterr.ErrInvalidInput)
	}
	ap := &Approximation{
		Slices:    s.slices,
		Shape:     append([]int(nil), s.shape...),
		Perm:      identityPerm(order),
		Ranks:     append([]int(nil), s.opts.Ranks...),
		NormX:     math.Sqrt(s.sumSq),
		SliceRank: s.rank,
		opts:      s.opts,
		pl:        s.pool(),
	}

	t0 := time.Now()
	var factors []*mat.Dense
	if s.prevFactors == nil {
		factors, err = ap.initFactors()
	} else {
		factors, err = s.warmFactors(ap)
	}
	if err != nil {
		return nil, err
	}
	initTime := time.Since(t0)

	t1 := time.Now()
	core, fit, iters, converged, err := ap.iterate(factors, 1, 0)
	if err != nil {
		return nil, err
	}
	ap.recordPoolStats()
	s.prevFactors = append([]*mat.Dense(nil), factors...)

	return &Decomposition{
		Model:     ap.toOriginalOrder(core, factors),
		Fit:       fit,
		Converged: converged,
		Stats:     Stats{InitTime: initTime, IterTime: time.Since(t1), Iters: iters},
	}, nil
}

// warmFactors reuses the previous non-temporal factors and rebuilds only
// the temporal factor (whose row count grew) from the projected tensor.
func (s *Stream) warmFactors(ap *Approximation) ([]*mat.Dense, error) {
	col := ap.opts.Metrics
	col.StartPhase(metrics.PhaseInit)
	defer col.EndPhase(metrics.PhaseInit)
	order := len(ap.Shape)
	factors := make([]*mat.Dense, order)
	copy(factors, s.prevFactors)
	w, err := ap.projectedTensor("initialization", factors[0], factors[1])
	if err != nil {
		return nil, err
	}
	y := w
	for k := 2; k < order-1; k++ {
		y = y.ModeProduct(factors[k].T(), k)
	}
	f, err := mat.LeadingLeft(y.Unfold(order-1), ap.Ranks[order-1], mat.LeadingAuto)
	if err != nil {
		return nil, fmt.Errorf("core: warm-starting temporal factor: %w", err)
	}
	factors[order-1] = f
	return factors, nil
}

// withContext runs fn with ctx temporarily installed as the stream's
// cancellation context, restoring the previous one afterwards (the stream's
// phases read Options.Context at every boundary).
func (s *Stream) withContext(ctx context.Context, fn func() error) error {
	prev := s.opts.Context
	s.opts.Context = ctx
	defer func() { s.opts.Context = prev }()
	return fn()
}

// AppendContext is Append under a cancellation context: a done ctx stops the
// chunk compression at the next slice boundary, returning a
// dterr.CancelledError, and leaves the stream unchanged.
func (s *Stream) AppendContext(ctx context.Context, chunk *tensor.Dense) error {
	return s.withContext(ctx, func() error { return s.Append(chunk) })
}

// DecomposeContext is Decompose under a cancellation context, observed at
// every initialization-factor and iteration-sweep boundary.
func (s *Stream) DecomposeContext(ctx context.Context) (*Decomposition, error) {
	var dec *Decomposition
	err := s.withContext(ctx, func() error {
		var err error
		dec, err = s.Decompose()
		return err
	})
	return dec, err
}

// DecomposeRangeContext is DecomposeRange under a cancellation context.
func (s *Stream) DecomposeRangeContext(ctx context.Context, t0, t1 int) (*Decomposition, error) {
	var dec *Decomposition
	err := s.withContext(ctx, func() error {
		var err error
		dec, err = s.DecomposeRange(t0, t1)
		return err
	})
	return dec, err
}
