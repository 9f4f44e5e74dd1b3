// Package xrand provides the deterministic random-number machinery used by
// the workload generators: a seedable 64-bit PRNG, Fisher-Yates
// permutations, and a Zipf sampler that supports the skew factors used in
// the AMAC paper (0.5, 0.75 and 1.0), which the standard library's
// rand.Zipf cannot generate (it requires s > 1). The sampler inverts an
// exact CDF, searching only the few entries a guide table brackets, and
// consumes one Uint64 per draw; every skewed workload is generated from it.
//
// Everything here is deterministic given the seed, so every experiment and
// test in the repository is exactly reproducible.
package xrand

// Rand is a splitmix64 pseudo-random generator: tiny state, excellent
// statistical quality for workload generation, and trivially reproducible.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64n returns a pseudo-random value in [0, n). It panics if n is zero.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with n == 0")
	}
	// Multiply-shift bounded generation; the modulo bias is irrelevant for
	// workload generation but we avoid it anyway via rejection on the
	// (vanishingly rare) biased region.
	threshold := -n % n
	for {
		v := r.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Intn returns a pseudo-random int in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a pseudo-random value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function (Fisher-Yates).
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
