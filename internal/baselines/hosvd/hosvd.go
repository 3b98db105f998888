// Package hosvd implements the truncated higher-order SVD (De Lathauwer et
// al., 2000): each factor matrix is the leading left singular vectors of
// the corresponding unfolding of the raw tensor, and the core is the
// projection of the tensor onto those subspaces.
//
// Truncated HOSVD is quasi-optimal (within √N of the best rank-(J1..JN)
// approximation) and serves both as a baseline and as the conventional
// initializer for HOOI.
package hosvd

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// Options configures a truncated HOSVD.
type Options struct {
	// Ranks holds the target core dimensionalities, one per mode.
	Ranks []int
}

// Decompose computes the truncated HOSVD of x.
func Decompose(x *tensor.Dense, opts Options) (*tucker.Model, error) {
	if len(opts.Ranks) != x.Order() {
		return nil, fmt.Errorf("hosvd: %d ranks for an order-%d tensor", len(opts.Ranks), x.Order())
	}
	factors := make([]*mat.Dense, x.Order())
	for n := 0; n < x.Order(); n++ {
		j := opts.Ranks[n]
		if j <= 0 || j > x.Dim(n) {
			return nil, fmt.Errorf("hosvd: rank %d invalid for mode %d of dimensionality %d", j, n, x.Dim(n))
		}
		f, err := mat.LeadingLeft(x.Unfold(n), j, mat.LeadingAuto)
		if err != nil {
			return nil, fmt.Errorf("hosvd: mode-%d singular vectors: %w", n, err)
		}
		factors[n] = f
	}
	core := x.TTMAllTransposed(factors, -1)
	return &tucker.Model{Core: core, Factors: factors}, nil
}
