package xrand

import (
	"fmt"
	"math"
	"math/bits"
)

// Zipf draws values in [0, n) following a Zipf distribution with exponent
// theta: P(k) is proportional to 1/(k+1)^theta. theta = 0 degenerates to the
// uniform distribution; the paper uses theta in {0.5, 0.75, 1.0}.
//
// The sampler precomputes the cumulative distribution once and inverts it
// for each draw, which is exact for any theta >= 0. A guide table over the
// CDF (see Next) narrows each draw's binary search from the whole CDF to the
// entries between two adjacent guide points, fewer than eight on average
// (n over the number of guide slices), and the draw returns exactly the
// value the full search would.
type Zipf struct {
	rng *Rand
	n   uint64
	cdf []float64
	// guide[j], for j in [0, 2^guideBits], is the smallest index i with
	// cdf[i] >= j / 2^guideBits: the draws whose uniform falls in the j-th
	// of 2^guideBits equal slices of [0, 1) all invert to an index in
	// [guide[j], guide[j+1]].
	guide     []uint32
	guideBits uint
}

// NewZipf builds a sampler over [0, n) with skew theta using rng as the
// randomness source. It panics if n is zero, theta is negative or NaN, or a
// skewed domain has more values than the guide table's 32-bit indices reach
// (its CDF alone would take 32 GiB); these are programming errors in the
// workload definitions.
func NewZipf(rng *Rand, theta float64, n uint64) *Zipf {
	if n == 0 {
		panic("xrand: Zipf domain must be non-empty")
	}
	if theta < 0 || math.IsNaN(theta) {
		panic(fmt.Sprintf("xrand: invalid Zipf exponent %v", theta))
	}
	z := &Zipf{rng: rng, n: n}
	if theta == 0 {
		return z // uniform fast path, no CDF needed
	}
	if n > math.MaxUint32 {
		panic(fmt.Sprintf("xrand: Zipf domain %d too large for a skewed sampler", n))
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := uint64(0); k < n; k++ {
		sum += 1.0 / math.Pow(float64(k+1), theta)
		cdf[k] = sum
	}
	inv := 1.0 / sum
	for k := range cdf {
		cdf[k] *= inv
	}
	cdf[n-1] = 1.0
	z.cdf = cdf
	z.buildGuide()
	return z
}

// buildGuide fills the guide table with about n/4 slices (a power of two,
// at least one) in one pass over the CDF. Every threshold j / 2^guideBits is
// exact in floating point, so the table brackets each draw exactly.
func (z *Zipf) buildGuide() {
	k := uint(0)
	if q := z.n / 4; q > 1 {
		k = uint(bits.Len64(q)) - 1
	}
	m := uint64(1) << k
	guide := make([]uint32, m+1)
	i := 0
	for j := range guide {
		t := float64(j) / float64(m)
		for z.cdf[i] < t {
			i++
		}
		guide[j] = uint32(i)
	}
	z.guide, z.guideBits = guide, k
}

// N returns the domain size.
func (z *Zipf) N() uint64 { return z.n }

// Next draws the next value. Value 0 is the most popular element.
func (z *Zipf) Next() uint64 {
	if z.cdf == nil {
		return z.rng.Uint64n(z.n)
	}
	// The same 53-bit uniform as Rand.Float64; its top guideBits bits name
	// the guide slice u falls in.
	b := z.rng.Uint64() >> 11
	u := float64(b) / (1 << 53)
	j := b >> (53 - z.guideBits)
	// The smallest i with cdf[i] >= u, the predicate sort.SearchFloat64s
	// uses, searched only inside the slice's bracket. cdf[n-1] is 1 and u is
	// below 1, so the answer always exists and is at most guide[j+1].
	lo, hi := z.guide[j], z.guide[j+1]
	for lo < hi {
		mid := lo + (hi-lo)/2
		if z.cdf[mid] >= u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return uint64(lo)
}

// TopShare returns the fraction of draws expected to land in the most
// popular `top` fraction of the domain — e.g. the paper's observation that
// with theta = 0.75 the most populous 1% of hash buckets hold 19% of the
// build tuples. It is used by tests to validate the sampler.
func (z *Zipf) TopShare(top float64) float64 {
	if top <= 0 {
		return 0
	}
	if top >= 1 {
		return 1
	}
	if z.cdf == nil {
		return top
	}
	k := uint64(math.Ceil(top * float64(z.n)))
	if k == 0 {
		k = 1
	}
	if k > z.n {
		k = z.n
	}
	return z.cdf[k-1]
}
