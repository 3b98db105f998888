package mat

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/pool"
)

// withBlockSizes runs fn under the given process-wide block setting and
// restores the previous one.
func withBlockSizes(t *testing.T, kc, nc int, fn func()) {
	t.Helper()
	prevK, prevN := SetBlockSizes(kc, nc)
	defer SetBlockSizes(prevK, prevN)
	fn()
}

func sameBits(t *testing.T, name string, got, want *Dense) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := 0; i < got.Rows(); i++ {
		for j := 0; j < got.Cols(); j++ {
			g, w := got.At(i, j), want.At(i, j)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: element (%d,%d) = %v, want %v (bit mismatch)", name, i, j, g, w)
			}
		}
	}
}

// TestBlockedMulAddBitIdenticalToPlain checks the core contract of the
// blocked kernel: for every block size — including ones that force the
// packed-panel path — the result is bit-for-bit identical to the plain
// streaming kernel, for any worker count.
func TestBlockedMulAddBitIdenticalToPlain(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1},
		{7, 13, 5},
		{33, 40, 65},  // k and n just past a tiny block
		{64, 100, 96}, // multiple tiles in both dimensions
		{3, 129, 200}, // few rows: packing disabled by minPackRows
		{20, 64, 300}, // packing engaged (rows ≥ minPackRows, n > nc)
	}
	blocks := []struct{ kc, nc int }{{8, 8}, {16, 32}, {32, 64}, {128, 512}, {1024, 1024}}
	rng := rand.New(rand.NewSource(7))
	for _, sh := range shapes {
		a := RandN(sh.m, sh.k, rng)
		// Sprinkle zeros so the zero-skip branch is exercised too.
		for i := 0; i < sh.m; i++ {
			a.Set(i, i%sh.k, 0)
		}
		b := RandN(sh.k, sh.n, rng)
		want := New(sh.m, sh.n)
		mulAddRowsPlain(want, a, b, 0, sh.m)
		for _, bl := range blocks {
			withBlockSizes(t, bl.kc, bl.nc, func() {
				for _, workers := range []int{1, 4} {
					p := pool.New(workers)
					got := New(sh.m, sh.n)
					MulAddIntoP(got, a, b, p)
					sameBits(t, "blocked", got, want)
				}
			})
		}
	}
}

// TestBlockedMulAddAccumulates checks the kernel adds into dst rather than
// overwriting it, same as the plain path.
func TestBlockedMulAddAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := RandN(12, 40, rng)
	b := RandN(40, 72, rng)
	withBlockSizes(t, 16, 32, func() {
		got := New(12, 72)
		for i := 0; i < got.Rows(); i++ {
			for j := 0; j < got.Cols(); j++ {
				got.Set(i, j, 1)
			}
		}
		MulAddInto(got, a, b)
		want := New(12, 72)
		for i := 0; i < want.Rows(); i++ {
			for j := 0; j < want.Cols(); j++ {
				want.Set(i, j, 1)
			}
		}
		mulAddRowsPlain(want, a, b, 0, 12)
		sameBits(t, "accumulate", got, want)
	})
}

func TestSetBlockSizesClamps(t *testing.T) {
	prevK, prevN := SetBlockSizes(1, 1<<20)
	defer SetBlockSizes(prevK, prevN)
	kc, nc := BlockSizes()
	if kc != minBlockDim || nc != maxBlockDim {
		t.Fatalf("BlockSizes() = %d,%d after out-of-range set, want %d,%d", kc, nc, minBlockDim, maxBlockDim)
	}
}

// TestEffectiveWorkersOverflow is the regression test for the
// rows·flopsPerRow overflow: a huge-but-legitimate workload must keep the
// full pool instead of collapsing to a negative (then zero/one) count.
func TestEffectiveWorkersOverflow(t *testing.T) {
	cases := []struct {
		size, rows, flopsPerRow int
		want                    int
	}{
		{8, math.MaxInt / 2, 8, 8},       // product overflows → saturate at pool size
		{8, math.MaxInt, math.MaxInt, 8}, // extreme overflow
		{8, 2, 1 << 15, 1},               // tiny work still serializes
		{8, 1 << 10, 1 << 10, 8},         // comfortably parallel, no overflow
		{4, (1 << 16) * 3, 1, 3},         // partial clamp below pool size
		{6, 1, math.MaxInt, 1},           // a single row can never be split
		{8, math.MaxInt/8 + 1, 8, 8},     // just past the overflow boundary
		{8, math.MaxInt / 8, 8, 8},       // just inside: exact division, no overflow
	}
	for _, c := range cases {
		if got := effectiveWorkers(c.size, c.rows, c.flopsPerRow); got != c.want {
			t.Errorf("effectiveWorkers(%d, %d, %d) = %d, want %d", c.size, c.rows, c.flopsPerRow, got, c.want)
		}
	}
}

func BenchmarkMulAddIntoBlocked(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const dim = 512
	a := RandN(dim, dim, rng)
	bb := RandN(dim, dim, rng)
	dst := New(dim, dim)
	for _, bl := range []struct {
		name   string
		kc, nc int
	}{
		{"plain", 1024, 1024}, // inputs fit one tile → plain path
		{"blocked128x512", 128, 512},
	} {
		b.Run(bl.name, func(b *testing.B) {
			prevK, prevN := SetBlockSizes(bl.kc, bl.nc)
			defer SetBlockSizes(prevK, prevN)
			b.SetBytes(3 * dim * dim * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst.Zero()
				MulAddInto(dst, a, bb)
			}
		})
	}
}
