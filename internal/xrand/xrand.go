// Package xrand provides a tiny deterministic pseudo-random generator
// (SplitMix64) shared by the trace generators and the random
// replacement policies of the cache and TLB models. Unlike math/rand's
// default source it is guaranteed stable across Go releases, which
// keeps every simulation bit-for-bit reproducible from its seed.
package xrand

import (
	"math"
	"math/bits"
)

// RNG is a SplitMix64 generator. The zero value is a valid generator
// seeded with zero; use New to seed explicitly. RNG is not safe for
// concurrent use.
type RNG struct {
	state uint64
}

// New returns a generator with the given seed. Distinct seeds give
// independent streams.
func New(seed uint64) *RNG { return &RNG{state: seed} }

// State returns the generator's internal state, for checkpointing. A
// generator restored with SetState continues the exact stream.
func (r *RNG) State() uint64 { return r.state }

// SetState restores a state previously captured with State.
func (r *RNG) SetState(s uint64) { r.state = s }

// Next returns the next 64 random bits.
func (r *RNG) Next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uintn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Uintn(n uint64) uint64 {
	hi, _ := bits.Mul64(r.Next(), n)
	return hi
}

// Intn returns a uniform int in [0, n). n must be positive.
func (r *RNG) Intn(n int) int { return int(r.Uintn(uint64(n))) }

// Float returns a uniform value in [0, 1): the top 53 bits of a draw,
// scaled exactly.
func (r *RNG) Float() float64 {
	return float64(r.Next()>>11) / float64(1<<53)
}

// Threshold returns the integer threshold of probability p: a draw's
// top 53 bits x satisfy Float() < p exactly when x < Threshold(p).
// Float() is x·2⁻⁵³ exactly, and x·2⁻⁵³ < p holds for an integer x
// exactly when x < ⌈p·2⁵³⌉, so the threshold is that ceiling, clamped:
// 0 for p ≤ 0 or NaN, 2⁵³ for p ≥ 1.
func Threshold(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Below draws once and reports whether the draw falls under threshold
// t, which is true with probability t·2⁻⁵³. Below(Threshold(p)) is
// Chance(p), with the threshold computed once.
func (r *RNG) Below(t uint64) bool { return r.Next()>>11 < t }

// Chance reports true with probability p. It consumes one draw and
// agrees with Float() < p on every draw.
func (r *RNG) Chance(p float64) bool { return r.Below(Threshold(p)) }

// Geometric is a geometric distribution over 1, 2, ... with mean about
// a given mean, precomputed so that a draw compares integers only.
// Loop trip counts and burst lengths draw from it.
type Geometric struct {
	one bool   // mean <= 1: every value is 1 and nothing is drawn
	t   uint64 // the threshold of one trial's success, 1/mean
	cap uint64 // trials stop once the value reaches mean·64
}

// NewGeometric precomputes the distribution with mean about mean.
func NewGeometric(mean float64) Geometric {
	if mean <= 1 {
		return Geometric{one: true}
	}
	return Geometric{t: Threshold(1 / mean), cap: uint64(mean * 64)}
}

// Draw returns the number of trials up to the first success, capped.
// Every trial draws, the one that reaches the cap included.
func (g Geometric) Draw(r *RNG) uint64 {
	if g.one {
		return 1
	}
	n := uint64(1)
	for !r.Below(g.t) && n < g.cap {
		n++
	}
	return n
}

// Mix is a stateless SplitMix64 finalizer: a stable pseudo-random
// function of its argument, useful for giving elements fixed random
// successors (pointer-chase patterns) and for hashing.
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
