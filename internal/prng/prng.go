// Package prng provides deterministic pseudorandom sources and samplers used
// throughout the MobiCeal simulation.
//
// Two different qualities of randomness exist in the system:
//
//   - Simulation randomness (workload shapes, allocator choices in tests,
//     experiment reproducibility). This comes from Source, a small fast
//     xoshiro256** generator that is fully determined by its seed.
//   - Entropy-quality randomness (keys, salts, per-block noise). This comes
//     from the Entropy interface (see entropy.go), whose production
//     implementation reads the OS CSPRNG and whose test implementation is a
//     seeded AES-CTR keystream.
//
// The paper's dummy-write mechanism samples the number of blocks per dummy
// write from an exponential distribution, m = ceil(-ln(1-f)/lambda)
// (Sec. IV-B); Source.Exp implements that sampler.
package prng

import (
	"math"
)

// Source is a deterministic pseudorandom number generator based on
// xoshiro256** seeded through splitmix64. The zero value is not usable; use
// NewSource.
//
// Source is not safe for concurrent use; callers that share a Source across
// goroutines must synchronize externally.
type Source struct {
	s [4]uint64
}

// NewSource returns a Source deterministically seeded from seed.
func NewSource(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed resets the generator state from seed, as if freshly constructed.
func (s *Source) Reseed(seed uint64) {
	sm := seed
	for i := range s.s {
		sm, s.s[i] = splitmix64(sm)
	}
	// xoshiro must not start from the all-zero state.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
}

// splitmix64 advances a splitmix64 state and returns (next state, output).
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// The implementation uses Lemire's nearly-divisionless method to avoid
// modulo bias.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return s.Uint64() & (n - 1)
	}
	threshold := -n % n
	for {
		v := s.Uint64()
		hi, lo := mul64(v, n)
		if lo >= threshold {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return hi, lo
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// IntRange returns a uniform value in [lo, hi]. It panics if hi < lo.
func (s *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("prng: IntRange with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Exp samples the exponential distribution with rate lambda via inverse
// transform sampling: -ln(1-f)/lambda for uniform f in [0, 1). This is the
// exact sampler the paper prescribes for dummy-write sizes (Sec. IV-B).
// It panics if lambda <= 0.
func (s *Source) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("prng: Exp with lambda <= 0")
	}
	f := s.Float64()
	return -math.Log(1-f) / lambda
}

// ExpRound samples the exponential distribution rounded to the nearest
// whole block (possibly zero). This matches the paper's claim that with
// lambda = 1 "each dummy write will be allocated one free block on
// average": E[round(Exp(1))] ~ 0.96. A zero result means the triggered
// dummy write allocates nothing.
func (s *Source) ExpRound(lambda float64) int {
	return int(math.Floor(s.Exp(lambda) + 0.5))
}

// Read fills p with pseudorandom bytes and never fails. This is
// simulation-grade randomness; cryptographic material must come from an
// Entropy implementation instead.
func (s *Source) Read(p []byte) (int, error) {
	n := len(p)
	for len(p) >= 8 {
		v := s.Uint64()
		p[0] = byte(v)
		p[1] = byte(v >> 8)
		p[2] = byte(v >> 16)
		p[3] = byte(v >> 24)
		p[4] = byte(v >> 32)
		p[5] = byte(v >> 40)
		p[6] = byte(v >> 48)
		p[7] = byte(v >> 56)
		p = p[8:]
	}
	if len(p) > 0 {
		v := s.Uint64()
		for i := range p {
			p[i] = byte(v >> (8 * uint(i)))
		}
	}
	return n, nil
}

// Perm returns a pseudorandom permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap, implementing
// the Fisher-Yates shuffle. It panics if n < 0.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("prng: Shuffle with n < 0")
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
