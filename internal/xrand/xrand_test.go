package xrand

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestZeroValueUsable(t *testing.T) {
	var r RNG
	if r.Next() == r.Next() {
		t.Error("zero-value RNG repeats")
	}
}

func TestUintnBounds(t *testing.T) {
	r := New(3)
	f := func(n uint16) bool {
		bound := uint64(n) + 1
		return r.Uintn(bound) < bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntn(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
}

func TestFloatRange(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		if v := r.Float(); v < 0 || v >= 1 {
			t.Fatalf("Float() = %g", v)
		}
	}
}

func TestChanceExtremes(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Chance(0) {
			t.Fatal("Chance(0) fired")
		}
		if !r.Chance(1.1) {
			t.Fatal("Chance(>1) did not fire")
		}
	}
}

func TestGeometric(t *testing.T) {
	r := New(2)
	before := r.State()
	if v := NewGeometric(0.5).Draw(r); v != 1 {
		t.Errorf("Geometric(<=1) = %d, want 1", v)
	}
	if r.State() != before {
		t.Error("Geometric(<=1) drew")
	}
	// Every trial draws, the one that reaches the cap included.
	capped := Geometric{cap: 3} // a zero threshold: no trial succeeds
	a, b := New(4), New(4)
	if v := capped.Draw(a); v != 3 {
		t.Errorf("capped Geometric = %d, want the cap 3", v)
	}
	b.Next()
	b.Next()
	b.Next()
	if a.State() != b.State() {
		t.Error("a capped Geometric did not draw once per trial")
	}
	var sum uint64
	const n = 20000
	g := NewGeometric(8)
	for i := 0; i < n; i++ {
		sum += g.Draw(r)
	}
	mean := float64(sum) / n
	if mean < 6 || mean > 10 {
		t.Errorf("Geometric(8) mean = %.2f", mean)
	}
}

func TestMixIsStable(t *testing.T) {
	if Mix(12345) != Mix(12345) {
		t.Error("Mix not a pure function")
	}
	if Mix(1) == Mix(2) {
		t.Error("Mix(1) == Mix(2)")
	}
}

// TestUintnMatchesBig checks that Uintn is the high word of draw·n,
// against math/big, on edge operands (both the draw and n) and on
// random ones.
func TestUintnMatchesBig(t *testing.T) {
	edges := []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<63 - 1, 1 << 63, math.MaxUint64}
	check := func(draw, n uint64) {
		t.Helper()
		r := drawing(draw)
		p := new(big.Int).Mul(new(big.Int).SetUint64(draw), new(big.Int).SetUint64(n))
		if got, want := r.Uintn(n), p.Rsh(p, 64).Uint64(); got != want {
			t.Fatalf("Uintn(%#x) on draw %#x = %#x, want %#x", n, draw, got, want)
		}
	}
	for _, draw := range edges {
		if got := drawing(draw).Next(); got != draw {
			t.Fatalf("a generator set up to draw %#x drew %#x", draw, got)
		}
		for _, n := range edges {
			check(draw, n)
		}
	}
	r := New(77)
	for i := 0; i < 10000; i++ {
		check(r.Next(), r.Next())
	}
}

// drawing returns a generator whose next draw is x, by inverting the
// SplitMix64 finalizer.
func drawing(x uint64) *RNG {
	unshift := func(y uint64, k uint) uint64 {
		z := y
		for s := k; s < 64; s += k {
			z ^= y >> s
		}
		return z
	}
	inverse := func(a uint64) uint64 { // of an odd a, mod 2^64 (Newton)
		v := a
		for i := 0; i < 5; i++ {
			v *= 2 - a*v
		}
		return v
	}
	z := unshift(x, 31) * inverse(0x94D049BB133111EB)
	z = unshift(z, 27) * inverse(0xBF58476D1CE4E5B9)
	return New(unshift(z, 30) - 0x9E3779B97F4A7C15)
}

// TestThresholdMatchesFloat proves Below(Threshold(p)) is Float() < p
// for each p: the float comparison is monotone in the draw's top 53
// bits x, so agreeing on both sides of the threshold — x = T-1 passes,
// x = T fails — is agreement on every draw.
func TestThresholdMatchesFloat(t *testing.T) {
	ps := []float64{
		math.Inf(-1), -1, -math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 0x1p-1060, 0x1p-1022, 0x1p-60, 0x1p-54, 0x1p-53, 0x1.8p-53,
		1.0 / 64, 1.0 / 16, 0.1, 1.0 / 3, 0.45, 0.5, 0.9, 0.93,
		math.Nextafter(1, 0), 1, math.Nextafter(1, 2), 1.5, 1e300, math.Inf(1), math.NaN(),
	}
	r := New(5)
	for i := 0; i < 2000; i++ {
		ps = append(ps, r.Float(), r.Float()*1e-9, float64(r.Next())/float64(1<<50))
	}
	float := func(x uint64, p float64) bool { return float64(x)/float64(1<<53) < p }
	for _, p := range ps {
		th := Threshold(p)
		if th > 1<<53 {
			t.Fatalf("Threshold(%g) = %d exceeds 2^53", p, th)
		}
		if th > 0 && !float(th-1, p) {
			t.Errorf("Threshold(%g) = %d, but draw %d fails Float() < p", p, th, th-1)
		}
		if th < 1<<53 && float(th, p) {
			t.Errorf("Threshold(%g) = %d, but draw %d passes Float() < p", p, th, th)
		}
	}
	// Below compares a draw's top 53 bits strictly: the draw at the
	// threshold fails and the one just under it passes.
	for _, p := range ps {
		th := Threshold(p)
		if th < 1<<53 && drawing(th<<11).Below(th) {
			t.Errorf("Below(Threshold(%g)) passes the draw at the threshold %d", p, th)
		}
		if th > 0 && !drawing((th-1)<<11|1<<10).Below(th) {
			t.Errorf("Below(Threshold(%g)) fails the draw just under the threshold %d", p, th)
		}
	}
	// Chance draws exactly as the float comparison on the same stream.
	a, b := New(9), New(9)
	for i := 0; i < 10000; i++ {
		p := ps[i%len(ps)]
		if got, want := a.Chance(p), b.Float() < p; got != want {
			t.Fatalf("draw %d: Chance(%g) = %t, Float() < p = %t", i, p, got, want)
		}
	}
}
