package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/dterr"
	"repro/internal/faults"
	"repro/internal/mat"
	"repro/internal/metrics"
	"repro/internal/tucker"
)

// This file implements the merge path of the segment-tree range engine
// (package rangeidx): compact per-span summaries of the stream's compressed
// slices, a pairwise merge, and a stitched range solve that initializes the
// leading factors from O(log T) summaries instead of the full stacked SVD a
// DecomposeRange runs. The construction follows the block-wise stitching of
// TUCKET / Zoom-Tucker (see PAPERS.md) adapted to D-Tucker's slice SVDs.
//
// Every step is deterministic: summaries are exact truncated SVDs (no RNG),
// merges are exact SVDs of small concatenations, and the stitched solve
// reuses the owner-computes projected-tensor path. A summary is therefore a
// pure function of the slices it covers, and a stitched result is a pure
// function of (t0, t1, summaries' spans) — bit-identical no matter which
// cache the summaries came from or how many workers computed them.

// siteStitchNode is the fault-injection hook covering every summary build
// and merge of the range engine (no-op unless a test arms it).
var siteStitchNode = faults.NewSite("core.stitch.node")

// RangeSummary is the compressed representation of one contiguous temporal
// span [T0, T1) of a stream: the dominant left subspaces of the stacked
// [U_l·S_l] and [V_l·S_l] matrices over the span's slices, each kept as a
// singular-value-scaled basis B = U·diag(σ) so that B·Bᵀ preserves the
// stack's Gram matrix — which is exactly what merging and factor
// initialization consume.
type RangeSummary struct {
	T0, T1 int
	B1     *mat.Dense // I1×q, U·diag(σ) of the stacked [U_l·S_l]
	B2     *mat.Dense // I2×q, U·diag(σ) of the stacked [V_l·S_l]
	// SumSq is the exact Σ‖X_l‖² over the span's slices, so stitched fits
	// use the true sub-range norm rather than a truncated estimate.
	SumSq float64
}

// Rank returns the summary's retained rank q.
func (rs *RangeSummary) Rank() int { return rs.B1.Cols() }

// StorageFloats returns the float64 storage the summary holds.
func (rs *RangeSummary) StorageFloats() int {
	return rs.B1.Rows()*rs.B1.Cols() + rs.B2.Rows()*rs.B2.Cols()
}

// summaryRank resolves q: an explicit positive q is capped at min(I1, I2);
// q ≤ 0 selects twice the larger leading target rank (so the summary keeps
// headroom above what factor initialization extracts), same cap.
func (s *Stream) summaryRank(q int) int {
	if q <= 0 {
		q = 2 * max(s.opts.Ranks[0], s.opts.Ranks[1])
	}
	if lim := min(s.shape[0], s.shape[1]); q > lim {
		q = lim
	}
	return q
}

// scaledLeft returns B = U·diag(σ) of the exact rank-q truncated SVD of y.
// Exact (not randomized) so the result carries no RNG state and two builds
// of the same span are bit-identical.
func scaledLeft(y *mat.Dense, q int) (*mat.Dense, error) {
	res, err := mat.SVD(y)
	if err != nil {
		return nil, err
	}
	res = res.Truncate(q)
	b := res.U.Clone()
	scaleCols(b, res.S)
	return b, nil
}

// SummarizeSpan builds the RangeSummary of time steps [t0, t1) directly from
// the stream's compressed slices: an exact truncated SVD of the stacked
// [U_l·S_l] (and [V_l·S_l]) over the span. q ≤ 0 selects the default
// summary rank (see summaryRank). Cost is O((I1+I2)·(span·mid·r)·q) — a leaf
// operation of the segment tree, intended for block-sized spans.
func (s *Stream) SummarizeSpan(t0, t1, q int) (_ *RangeSummary, err error) {
	defer dterr.RecoverTo(&err, "core.Stream.SummarizeSpan")
	if s.shape == nil {
		return nil, fmt.Errorf("core: SummarizeSpan on an empty stream: %w", dterr.ErrInvalidInput)
	}
	order := len(s.shape)
	length := s.shape[order-1]
	if t0 < 0 || t1 > length || t0 >= t1 {
		return nil, fmt.Errorf("core: span [%d,%d) invalid for stream of length %d: %w",
			t0, t1, length, dterr.ErrInvalidInput)
	}
	if err := s.opts.cancelled("stitch"); err != nil {
		return nil, err
	}
	if err := siteStitchNode.Inject(); err != nil {
		return nil, fmt.Errorf("core: summarizing span [%d,%d): %w", t0, t1, err)
	}
	q = s.summaryRank(q)
	mid := 1
	for _, d := range s.shape[2 : order-1] {
		mid *= d
	}
	sub := s.slices[t0*mid : t1*mid]
	t0w := metrics.HistStart()

	r := s.rank
	y1 := mat.New(s.shape[0], len(sub)*r)
	y2 := mat.New(s.shape[1], len(sub)*r)
	for l := range sub {
		writeScaledBlock(y1, sub[l].U, sub[l].S, l*r)
		writeScaledBlock(y2, sub[l].V, sub[l].S, l*r)
	}
	b1, err := scaledLeft(y1, q)
	if err != nil {
		return nil, fmt.Errorf("core: summarizing span [%d,%d): %w", t0, t1, err)
	}
	b2, err := scaledLeft(y2, q)
	if err != nil {
		return nil, fmt.Errorf("core: summarizing span [%d,%d): %w", t0, t1, err)
	}
	var sumSq float64
	for _, e := range s.sliceSq[t0*mid : t1*mid] {
		sumSq += e
	}
	metrics.ObserveSince(metrics.HistRangeNodeBuild, t0w)
	metrics.CountRangeNodeBuild()
	return &RangeSummary{T0: t0, T1: t1, B1: b1, B2: b2, SumSq: sumSq}, nil
}

// MergeSummaries combines two adjacent span summaries into their parent's:
// an exact truncated SVD of the column concatenation [B_a B_b], which
// preserves the concatenated Gram matrix the children preserve. q ≤ 0 keeps
// the larger of the children's ranks. Cost O((I1+I2)·q²·…) — independent of
// span length, which is what makes internal segment-tree nodes cheap.
func MergeSummaries(a, b *RangeSummary, q int) (_ *RangeSummary, err error) {
	defer dterr.RecoverTo(&err, "core.MergeSummaries")
	if a == nil || b == nil {
		return nil, fmt.Errorf("core: merging nil summary: %w", dterr.ErrInvalidInput)
	}
	if a.T1 != b.T0 {
		return nil, fmt.Errorf("core: merging non-adjacent spans [%d,%d) and [%d,%d): %w",
			a.T0, a.T1, b.T0, b.T1, dterr.ErrInvalidInput)
	}
	if a.B1.Rows() != b.B1.Rows() || a.B2.Rows() != b.B2.Rows() {
		return nil, fmt.Errorf("core: merging summaries with mismatched shapes: %w", dterr.ErrInvalidInput)
	}
	if err := siteStitchNode.Inject(); err != nil {
		return nil, fmt.Errorf("core: merging spans [%d,%d)+[%d,%d): %w", a.T0, a.T1, b.T0, b.T1, err)
	}
	if q <= 0 {
		q = max(a.Rank(), b.Rank())
	}
	t0w := metrics.HistStart()
	b1, err := scaledLeft(hcat(a.B1, b.B1), q)
	if err != nil {
		return nil, fmt.Errorf("core: merging spans [%d,%d)+[%d,%d): %w", a.T0, a.T1, b.T0, b.T1, err)
	}
	b2, err := scaledLeft(hcat(a.B2, b.B2), q)
	if err != nil {
		return nil, fmt.Errorf("core: merging spans [%d,%d)+[%d,%d): %w", a.T0, a.T1, b.T0, b.T1, err)
	}
	metrics.ObserveSince(metrics.HistRangeNodeBuild, t0w)
	metrics.CountRangeNodeBuild()
	return &RangeSummary{T0: a.T0, T1: b.T1, B1: b1, B2: b2, SumSq: a.SumSq + b.SumSq}, nil
}

// hcat returns the column concatenation [ms[0] ms[1] …].
func hcat(ms ...*mat.Dense) *mat.Dense {
	rows, cols := ms[0].Rows(), 0
	for _, m := range ms {
		cols += m.Cols()
	}
	out := mat.New(rows, cols)
	for i := 0; i < rows; i++ {
		dst := out.Row(i)
		off := 0
		for _, m := range ms {
			off += copy(dst[off:], m.Row(i))
		}
	}
	return out
}

// StitchRange solves the Tucker model of time steps [t0, t1) from
// precomputed span summaries instead of a from-scratch DecomposeRange: the
// leading factors A(1)/A(2) are extracted from the concatenated summary
// bases (O(log T) columns instead of O(range) columns), and the remaining
// modes plus the core come from one owner-computes projected-tensor pass —
// no ALS sweeps. parts must tile [t0, t1) exactly, in order.
//
// The result is a deterministic pure function of (t0, t1, the parts' spans,
// the stream contents): bit-identical across worker counts and across
// whether each summary was freshly built or cached. It is NOT bit-identical
// to DecomposeRange — that runs full ALS — but its fit lands within the
// summaries' truncation error of the ALS fit, which rangeidx polices with a
// configurable quality fallback.
func (s *Stream) StitchRange(t0, t1 int, parts []*RangeSummary) (_ *Decomposition, err error) {
	defer dterr.RecoverTo(&err, "core.Stream.StitchRange")
	root := s.opts.Metrics.Tracer().Begin("solve-stitch")
	defer root.End()
	if s.shape == nil {
		return nil, fmt.Errorf("core: StitchRange on an empty stream: %w", dterr.ErrInvalidInput)
	}
	order := len(s.shape)
	length := s.shape[order-1]
	if t0 < 0 || t1 > length || t0 >= t1 {
		return nil, fmt.Errorf("core: range [%d,%d) invalid for stream of length %d: %w",
			t0, t1, length, dterr.ErrInvalidInput)
	}
	span := t1 - t0
	if s.opts.Ranks[order-1] > span {
		return nil, fmt.Errorf("core: temporal rank %d exceeds range length %d: %w",
			s.opts.Ranks[order-1], span, dterr.ErrInvalidInput)
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: StitchRange with no summaries: %w", dterr.ErrInvalidInput)
	}
	at := t0
	for _, p := range parts {
		if p == nil || p.T0 != at {
			return nil, fmt.Errorf("core: summaries do not tile [%d,%d): gap at %d: %w",
				t0, t1, at, dterr.ErrInvalidInput)
		}
		at = p.T1
	}
	if at != t1 {
		return nil, fmt.Errorf("core: summaries cover [%d,%d), want [%d,%d): %w",
			t0, at, t0, t1, dterr.ErrInvalidInput)
	}

	col := s.opts.Metrics
	col.StartPhase(metrics.PhaseInit)
	t0w := time.Now()

	// A(1)/A(2) from the concatenated summary bases. Each B already carries
	// its singular-value scaling, so the concatenation's Gram matrix equals
	// (up to each summary's truncation) the full stacked matrix's — the same
	// quantity initFactors' stacked SVD diagonalizes.
	b1s := make([]*mat.Dense, len(parts))
	b2s := make([]*mat.Dense, len(parts))
	var sumSq float64
	for i, p := range parts {
		b1s[i], b2s[i] = p.B1, p.B2
		sumSq += p.SumSq
	}
	a1, err := mat.LeadingLeft(hcat(b1s...), s.opts.Ranks[0], mat.LeadingAuto)
	if err != nil {
		col.EndPhase(metrics.PhaseInit)
		return nil, fmt.Errorf("core: stitching mode-1 factor: %w", err)
	}
	a2, err := mat.LeadingLeft(hcat(b2s...), s.opts.Ranks[1], mat.LeadingAuto)
	if err != nil {
		col.EndPhase(metrics.PhaseInit)
		return nil, fmt.Errorf("core: stitching mode-2 factor: %w", err)
	}
	col.EndPhase(metrics.PhaseInit)

	// Remaining modes and the core from the range's projected tensor — the
	// same owner-computes path DecomposeRange iterates over, run once.
	mid := 1
	for _, d := range s.shape[2 : order-1] {
		mid *= d
	}
	shape := append([]int(nil), s.shape...)
	shape[order-1] = span
	ap := &Approximation{
		Slices:    s.slices[t0*mid : t1*mid],
		Shape:     shape,
		Perm:      identityPerm(order),
		Ranks:     append([]int(nil), s.opts.Ranks...),
		NormX:     math.Sqrt(sumSq),
		SliceRank: s.rank,
		opts:      s.opts,
		pl:        s.pool(),
	}
	col.StartPhase(metrics.PhaseIter)
	defer col.EndPhase(metrics.PhaseIter)
	factors := make([]*mat.Dense, order)
	factors[0], factors[1] = a1, a2
	w, err := ap.projectedTensor("stitch", a1, a2)
	if err != nil {
		return nil, err
	}
	pl := ap.workerPool()
	for n := 2; n < order; n++ {
		if err := s.opts.cancelled("stitch"); err != nil {
			return nil, err
		}
		y := w
		for k := 2; k < order; k++ {
			if k == n {
				continue
			}
			y = y.ModeProductP(factors[k].T(), k, pl)
		}
		f, err := mat.LeadingLeft(y.Unfold(n), ap.Ranks[n], mat.LeadingAuto)
		if err != nil {
			return nil, fmt.Errorf("core: stitching mode-%d factor: %w", n+1, err)
		}
		factors[n] = f
	}
	core := w
	for k := 2; k < order; k++ {
		core = core.ModeProductP(factors[k].T(), k, pl)
	}
	fit := tucker.FitFromCore(ap.NormX, core.Norm())
	ap.recordPoolStats()
	return &Decomposition{
		Model:     ap.toOriginalOrder(core, factors),
		Fit:       fit,
		Converged: true,
		Stats:     Stats{InitTime: time.Since(t0w)},
	}, nil
}

// SummarizeSpanContext is SummarizeSpan under a cancellation context.
func (s *Stream) SummarizeSpanContext(ctx context.Context, t0, t1, q int) (*RangeSummary, error) {
	var rs *RangeSummary
	err := s.withContext(ctx, func() error {
		var err error
		rs, err = s.SummarizeSpan(t0, t1, q)
		return err
	})
	return rs, err
}

// StitchRangeContext is StitchRange under a cancellation context, observed
// at the projected-tensor and per-factor boundaries.
func (s *Stream) StitchRangeContext(ctx context.Context, t0, t1 int, parts []*RangeSummary) (*Decomposition, error) {
	var dec *Decomposition
	err := s.withContext(ctx, func() error {
		var err error
		dec, err = s.StitchRange(t0, t1, parts)
		return err
	})
	return dec, err
}
