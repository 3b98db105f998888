package tensor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dterr"
)

// tenHeader serializes a .ten header with arbitrary (possibly corrupt)
// order and shape entries, followed by payload data bytes.
func tenHeader(order uint32, shape []uint64, payload []byte) []byte {
	var buf bytes.Buffer
	buf.Write(tenMagic[:])
	binary.Write(&buf, binary.LittleEndian, order)
	for _, s := range shape {
		binary.Write(&buf, binary.LittleEndian, s)
	}
	buf.Write(payload)
	return buf.Bytes()
}

func TestReadFromRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := RandN(rng, 4, 3, 5)
	var buf bytes.Buffer
	if err := x.Write(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !y.EqualApprox(x, 0) {
		t.Fatal("round trip changed the tensor")
	}
}

func TestReadFromRejectsOverflowingShapeProduct(t *testing.T) {
	// Each entry passes the per-dimension guard, but the product overflows
	// int64 (2^30 · 2^30 · 2^30 = 2^90): the checked multiplication must
	// reject it instead of wrapping past the element limit.
	d := uint64(1) << 30
	raw := tenHeader(3, []uint64{d, d, d}, nil)
	if _, err := ReadFrom(bytes.NewReader(raw)); err == nil {
		t.Fatal("overflowing shape product accepted")
	} else if !strings.Contains(err.Error(), "element limit") {
		t.Fatalf("overflow rejected with unexpected error: %v", err)
	}

	// A wrap that lands back on a tiny positive count is the classic
	// exploit shape; 2^31 · 2^33 ≡ 0 (mod 2^64) steps over every naive
	// int64 check that only looks at the final product.
	raw = tenHeader(4, []uint64{1 << 31, 1 << 31, 1 << 31, 8}, nil)
	if _, err := ReadFrom(bytes.NewReader(raw)); err == nil {
		t.Fatal("wrapping shape product accepted")
	}
}

func TestReadFromRejectsCorruptHeaders(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
	}{
		{"zero order", tenHeader(0, nil, nil)},
		{"huge order", tenHeader(1<<20, nil, nil)},
		{"zero dimension", tenHeader(2, []uint64{4, 0}, nil)},
		{"oversized dimension", tenHeader(1, []uint64{1 << 40}, nil)},
		{"bad magic", []byte("NOPE\x01\x00\x00\x00")},
		{"truncated shape", tenHeader(3, []uint64{2, 2}, nil)},
	}
	for _, tc := range cases {
		if _, err := ReadFrom(bytes.NewReader(tc.raw)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestReadFromRejectsNonFiniteData(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		payload := make([]byte, 4*8)
		binary.LittleEndian.PutUint64(payload[2*8:], math.Float64bits(v))
		raw := tenHeader(2, []uint64{2, 2}, payload)
		_, err := ReadFrom(bytes.NewReader(raw))
		if err == nil {
			t.Fatalf("data containing %v accepted", v)
		}
		if !errors.Is(err, dterr.ErrNonFiniteInput) {
			t.Fatalf("%v rejected with %v, want ErrNonFiniteInput", v, err)
		}
		if !strings.Contains(err.Error(), "element 2") {
			t.Fatalf("error %q does not locate the bad element", err)
		}
	}
}

func TestReadFromRejectsTruncatedData(t *testing.T) {
	// Header promises 2×3 = 6 elements; only 4 are present.
	payload := make([]byte, 4*8)
	raw := tenHeader(2, []uint64{2, 3}, payload)
	if _, err := ReadFrom(bytes.NewReader(raw)); err == nil {
		t.Fatal("truncated data accepted")
	} else if !strings.Contains(err.Error(), "reading data element") {
		t.Fatalf("truncation rejected with unexpected error: %v", err)
	}
}

// halfWriter accepts only half of every buffer while claiming success —
// the io.Writer contract violation WriteTo must convert to an error
// instead of silently dropping bytes.
type halfWriter struct{}

func (halfWriter) Write(p []byte) (int, error) { return len(p) / 2, nil }

func TestWriteToReportsShortWrite(t *testing.T) {
	x := New(4, 4, 4)
	if _, err := x.WriteTo(halfWriter{}); err == nil {
		t.Fatal("short write went unreported")
	}
}

func TestWriteToCountsBytes(t *testing.T) {
	x := New(3, 2)
	var buf bytes.Buffer
	n, err := x.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	if want := int64(4 + 4 + 2*8 + 6*8); n != want {
		t.Fatalf("wrote %d bytes for a 3×2 tensor, want %d", n, want)
	}
}
