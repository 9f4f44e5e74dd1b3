package xrand

import (
	"math"
	"sort"
	"testing"
)

// searchNext is the sampler's plain inversion: one 53-bit uniform, then a
// binary search over the whole CDF. Next must return exactly its values.
func searchNext(z *Zipf, rng *Rand) uint64 {
	idx := sort.SearchFloat64s(z.cdf, rng.Float64())
	if uint64(idx) >= z.n {
		idx = int(z.n - 1)
	}
	return uint64(idx)
}

// checkZipfMatchesSearch draws count values from a guided sampler and from
// the plain inversion on an identically seeded generator and reports the
// first difference.
func checkZipfMatchesSearch(t *testing.T, theta float64, n uint64, seed uint64, count int) {
	t.Helper()
	z := NewZipf(New(seed), theta, n)
	ref := New(seed)
	for i := 0; i < count; i++ {
		got, want := z.Next(), searchNext(z, ref)
		if got != want {
			t.Fatalf("theta=%v n=%d seed=%d: draw %d = %d, binary search gives %d", theta, n, seed, i, got, want)
		}
	}
	if z.rng.Uint64() != ref.Uint64() {
		t.Fatalf("theta=%v n=%d seed=%d: the guided sampler consumed a different number of values", theta, n, seed)
	}
}

func TestZipfMatchesBinarySearch(t *testing.T) {
	thetas := []float64{0.25, 0.5, 0.75, 1, 1.5, 50}
	sizes := []uint64{1, 2, 3, 7, 1000, 65537, 1 << 20}
	for _, theta := range thetas {
		for _, n := range sizes {
			for seed := uint64(1); seed <= 3; seed++ {
				checkZipfMatchesSearch(t, theta, n, seed, 1<<16)
			}
		}
	}
}

func FuzzZipfNext(f *testing.F) {
	f.Add(0.5, uint64(1000), uint64(1))
	f.Add(1.0, uint64(1), uint64(2))
	f.Add(50.0, uint64(65536), uint64(3))
	f.Add(0.0, uint64(7), uint64(4))
	f.Fuzz(func(t *testing.T, theta float64, n, seed uint64) {
		if theta < 0 || math.IsNaN(theta) || math.IsInf(theta, 0) {
			t.Skip()
		}
		n = n%(1<<16) + 1
		if theta == 0 {
			z := NewZipf(New(seed), 0, n)
			for i := 0; i < 64; i++ {
				if v := z.Next(); v >= n {
					t.Fatalf("uniform draw %d out of [0, %d)", v, n)
				}
			}
			return
		}
		checkZipfMatchesSearch(t, theta, n, seed, 256)
	})
}
