package core

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/dterr"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	orig := Config{
		Ranks:        []int{10, 8, 6},
		SliceRank:    12,
		Tol:          3e-5,
		MaxIters:     40,
		Oversampling: 7,
		PowerIters:   -1,
		Seed:         99,
		NoReorder:    true,
		SliceKernel:  "exact",
	}
	b, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var got Config
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Canonical() != orig.Canonical() {
		t.Fatalf("round trip changed the config:\n  in  %s\n  out %s", orig.Canonical(), got.Canonical())
	}
	// The zero value must round-trip to the zero value (omitempty on every
	// defaultable field keeps the wire form minimal).
	b, err = json.Marshal(Config{Ranks: []int{3, 3, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"ranks":[3,3,3]}`; string(b) != want {
		t.Fatalf("minimal config serialized as %s, want %s", b, want)
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Ranks: []int{4, 4, 4}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		{Ranks: []int{4, 0, 4}},
		{Ranks: []int{4, -2, 4}},
		{Ranks: []int{4}, SliceRank: -1},
		{Ranks: []int{4}, Tol: math.NaN()},
		{Ranks: []int{4}, Tol: math.Inf(1)},
		{Ranks: []int{4}, Tol: -1e-4},
		{Ranks: []int{4}, MaxIters: -1},
		{Ranks: []int{4}, PowerIters: -2},
		{Ranks: []int{4}, SliceKernel: "fastest"},
	}
	for i, c := range bad {
		err := c.Validate()
		if err == nil {
			t.Fatalf("case %d: invalid config accepted: %+v", i, c)
		}
		if !errors.Is(err, dterr.ErrInvalidInput) {
			t.Fatalf("case %d: error %v does not wrap ErrInvalidInput", i, err)
		}
	}
}

func TestConfigCanonicalResolvesDefaults(t *testing.T) {
	// The zero-default form and the explicitly spelled-out paper defaults
	// request the same computation, so they must share a cache key.
	zero := Config{Ranks: []int{5, 5, 5}}
	full := Config{Ranks: []int{5, 5, 5}, Tol: 1e-4, MaxIters: 100, Oversampling: 5, PowerIters: 1}
	if zero.Canonical() != full.Canonical() {
		t.Fatalf("defaults not canonicalized:\n  %s\n  %s", zero.Canonical(), full.Canonical())
	}
	// Every result-shaping field must separate keys.
	distinct := []Config{
		{Ranks: []int{5, 5, 4}},
		{Ranks: []int{5, 5, 5}, SliceRank: 7},
		{Ranks: []int{5, 5, 5}, Tol: 1e-6},
		{Ranks: []int{5, 5, 5}, MaxIters: 7},
		{Ranks: []int{5, 5, 5}, Oversampling: 2},
		{Ranks: []int{5, 5, 5}, PowerIters: 2},
		{Ranks: []int{5, 5, 5}, Seed: 1},
		{Ranks: []int{5, 5, 5}, NoReorder: true},
		{Ranks: []int{5, 5, 5}, SliceKernel: "exact"},
	}
	seen := map[string]int{zero.Canonical(): -1}
	for i, c := range distinct {
		key := c.Canonical()
		if prev, dup := seen[key]; dup {
			t.Fatalf("configs %d and %d share key %s", prev, i, key)
		}
		seen[key] = i
	}
}

// TestConfigCanonicalGolden pins Canonical and Fingerprint to the values
// earlier builds journaled. A changed key would make every stored checkpoint
// and restored cache entry unusable after an upgrade, so the format changes
// only together with numericsVersion.
func TestConfigCanonicalGolden(t *testing.T) {
	cases := []struct {
		c         Config
		canonical string
		fp        string
	}{
		{
			Config{Ranks: []int{8, 8, 8}},
			"ranks=8,8,8;slicerank=0;tol=0.0001;maxiters=100;os=5;pi=1;seed=0;leading=0;noreorder=false;kernel=randsvd;profile=;numerics=2",
			"c532e239b44f1666",
		},
		{
			Config{Ranks: []int{10, 8, 6}, SliceRank: 12, Tol: 3e-5, MaxIters: 40, Oversampling: 7,
				PowerIters: -1, Seed: 99, NoReorder: true, SliceKernel: "exact"},
			"ranks=10,8,6;slicerank=12;tol=3e-05;maxiters=40;os=7;pi=-1;seed=99;leading=0;noreorder=true;kernel=exact;profile=;numerics=2",
			"50f3ad68e168a1bf",
		},
		{
			Config{Ranks: []int{6, 6, 4}, SliceKernel: "auto", KernelProfile: "0123456789abcdef"},
			"ranks=6,6,4;slicerank=0;tol=0.0001;maxiters=100;os=5;pi=1;seed=0;leading=0;noreorder=false;kernel=auto;profile=0123456789abcdef;numerics=2",
			"d85dcd981dbcef65",
		},
	}
	for i, tc := range cases {
		if got := tc.c.Canonical(); got != tc.canonical {
			t.Errorf("case %d: Canonical() = %s, want %s", i, got, tc.canonical)
		}
		if got := tc.c.Fingerprint(); got != tc.fp {
			t.Errorf("case %d: Fingerprint() = %s, want %s", i, got, tc.fp)
		}
	}
}

func TestConfigNormalizedDoesNotAliasRanks(t *testing.T) {
	c := Config{Ranks: []int{3, 3, 3}}
	n := c.Normalized()
	n.Ranks[0] = 99
	if c.Ranks[0] != 3 {
		t.Fatal("Normalized aliased the original Ranks slice")
	}
}

func TestConfigOptionsBridge(t *testing.T) {
	c := Config{Ranks: []int{4, 4, 4}, Seed: 3}
	o := c.Options()
	if o.Context != nil || o.Metrics != nil || o.Pool != nil || o.Workers != 0 {
		t.Fatal("Config.Options attached runtime state")
	}
	if o.Seed != 3 || len(o.Ranks) != 3 {
		t.Fatal("Config.Options dropped config fields")
	}
	// withDefaults must agree with Normalized for the shared fields, so the
	// cache key and the executed computation cannot drift apart.
	resolved, err := o.withDefaults(3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resolved.Config.Canonical(), c.Normalized().Canonical(); got != want {
		t.Fatalf("withDefaults and Normalized disagree:\n  %s\n  %s", got, want)
	}
	if !strings.Contains(c.Canonical(), "ranks=4,4,4") {
		t.Fatalf("canonical form %q missing ranks", c.Canonical())
	}
}
