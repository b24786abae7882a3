// Package lazyrand provides a math/rand source that yields exactly the
// stream of math/rand.NewSource(seed) but defers the seeding work.
//
// math/rand's source is an additive lagged Fibonacci generator over a
// 607-word state. Seeding fills that state with 1,841 steps of the
// Park–Miller generator x·48271 mod (2³¹−1) and allocates ~5 KB, which
// dominates the cost of a generator that is drawn only a few times —
// the common case for per-key generators in the synthetic web.
//
// Seeding is linear, so the n-th Park–Miller value is x₀·48271ⁿ, one
// multiplication against a precomputed power table. State word i is
//
//	(x₂₁₊₃ᵢ << 40) ^ (x₂₂₊₃ᵢ << 20) ^ x₂₃₊₃ᵢ ^ rngCooked[i]
//
// and draw k (1-based) of a fresh source adds words 334−k and 607−k.
// Neither word has been written by an earlier draw while k ≤ 273, so
// the first 273 draws are pure functions of the seed and need no state
// array. Draw 274 would read a word draw 1 rewrote; from there on the
// Source switches to a real math/rand.NewSource(seed) advanced past
// the 273 draws already served. A generator drawn that often pays the
// eager seeding plus ~3 µs for the lazy prefix; one drawn a few times
// skips the seeding entirely.
package lazyrand

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// seedMul is the Park–Miller multiplier of math/rand's seeding.
	seedMul = 48271
)

// powers[i][j] is seedMul^(21+3i+j) mod int32max: the multipliers that
// take the normalised seed to the three Park–Miller values state word i
// is built from (the seeding loop discards the first 20).
var powers = func() (t [rngLen][3]uint64) {
	p := uint64(1)
	for n := 0; n < 20; n++ {
		p = mulmod(p, seedMul)
	}
	for i := range t {
		for j := range t[i] {
			p = mulmod(p, seedMul)
			t[i][j] = p
		}
	}
	return t
}()

// mulmod returns a·b mod 2³¹−1 for a, b in [1, 2³¹−2]. The product is
// never a multiple of the prime modulus, so one folding step and one
// conditional subtraction give the exact residue.
func mulmod(a, b uint64) uint64 {
	p := a * b
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// Source is a math/rand.Source64 whose stream equals that of
// math/rand.NewSource for the same seed. Like math/rand's own sources
// it is not safe for concurrent use.
type Source struct {
	seed int64
	// x is the seed normalised the way rngSource.Seed does it: the
	// Park–Miller start value in [1, 2³¹−2].
	x uint32
	// n counts the draws served from the seed alone (at most rngTap).
	n uint32
	// src is the eagerly seeded fallback, set at draw rngTap+1.
	src rand.Source64
}

// NewSource returns a lazily seeded source with the stream of
// math/rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// New returns a *rand.Rand over NewSource(seed): a drop-in replacement
// for rand.New(rand.NewSource(seed)) that draws the same values.
func New(seed int64) *rand.Rand {
	return rand.New(NewSource(seed))
}

// Seed resets the source to the start of seed's stream.
func (s *Source) Seed(seed int64) {
	x := seed % int32max
	if x < 0 {
		x += int32max
	}
	if x == 0 {
		x = 89482311
	}
	*s = Source{seed: seed, x: uint32(x)}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	if s.n < rngTap {
		s.n++
		k := int(s.n)
		return uint64(s.word(rngLen-rngTap-k) + s.word(rngLen-k))
	}
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
		for i := 0; i < rngTap; i++ {
			s.src.Uint64()
		}
	}
	return s.src.Uint64()
}

// word returns state word i of a freshly seeded math/rand source.
func (s *Source) word(i int) int64 {
	x, p := uint64(s.x), &powers[i]
	return int64(mulmod(x, p[0]))<<40 ^ int64(mulmod(x, p[1]))<<20 ^
		int64(mulmod(x, p[2])) ^ rngCooked[i]
}
