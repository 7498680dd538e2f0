// Package tape implements the merit-tape abstraction of the Token Oracle
// (Section 3.2, Figure 5 of the paper): for each merit value α the oracle
// state embeds an infinite tape whose cells hold either a token symbol tkn
// or ⊥, forming a pseudorandom Bernoulli sequence with success probability
// p(α). The package also provides the deterministic PRNG that every
// simulation in this repository draws from, so that all experiments are
// reproducible bit-for-bit from a 64-bit seed.
package tape

import "math"

// RNG is a small, fast, deterministic pseudorandom generator based on
// splitmix64. It is intentionally self-contained (no math/rand) so the
// sequence is stable across Go releases, which keeps the experiment
// outputs `go run ./cmd/btadt` prints reproducible.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Distinct seeds yield
// independent-looking streams; seed 0 is valid.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudorandom bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudorandom int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tape: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudorandom float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// Use the top 53 bits for a uniformly distributed mantissa.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli reports a pseudorandom trial with success probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Split derives a new independent generator from this one. Splitting is
// how the simulator hands out per-process and per-tape streams without
// the streams interfering with one another.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Geometric returns the number of failures before the first success of a
// Bernoulli(p) sequence (support {0, 1, 2, ...}). Used by tests to check
// tape statistics and by simulators to jump ahead to the next token.
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return math.MaxInt32
	}
	n := 0
	for !r.Bernoulli(p) {
		n++
		if n == math.MaxInt32 {
			return n
		}
	}
	return n
}
