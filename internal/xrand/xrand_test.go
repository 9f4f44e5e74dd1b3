package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce the same sequence")
		}
	}
	c := New(43)
	same := true
	a = New(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should produce different sequences")
	}
}

func TestUint64nRange(t *testing.T) {
	r := New(1)
	for i := 0; i < 10000; i++ {
		if v := r.Uint64n(17); v >= 17 {
			t.Fatalf("Uint64n(17) returned %d", v)
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestUint64nRoughlyUniform(t *testing.T) {
	r := New(3)
	const buckets = 8
	const draws = 80000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(buckets)]++
	}
	want := float64(draws) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("bucket %d has %d draws, want about %.0f", b, c, want)
		}
	}
}

func TestPermIsAPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		n := 100
		p := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(9)
	vals := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range vals {
		sum += v
	}
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	got := 0
	for _, v := range vals {
		got += v
	}
	if got != sum {
		t.Fatal("Shuffle lost or duplicated elements")
	}
}

func TestZipfUniformWhenThetaZero(t *testing.T) {
	z := NewZipf(New(1), 0, 1000)
	var counts [10]int
	for i := 0; i < 100000; i++ {
		counts[z.Next()/100]++
	}
	for d, c := range counts {
		if c < 8500 || c > 11500 {
			t.Fatalf("decile %d has %d draws; theta=0 should be uniform", d, c)
		}
	}
	if z.N() != 1000 {
		t.Fatalf("N = %d", z.N())
	}
}

func TestZipfSkewConcentratesMass(t *testing.T) {
	// With theta=0.75 over a large domain, a small head of the domain
	// receives a disproportionate share of the draws (the paper's
	// Section 2.2.2 observation that 1% of buckets hold ~19% of tuples;
	// the exact share depends on the Zipf parameterization, so the test
	// only checks for strong concentration well above the uniform 1%).
	const n = 1 << 17
	z := NewZipf(New(5), 0.75, n)
	const draws = 200000
	hot := uint64(n / 100)
	inHot := 0
	for i := 0; i < draws; i++ {
		if z.Next() < hot {
			inHot++
		}
	}
	share := float64(inHot) / draws
	if share < 0.10 || share > 0.50 {
		t.Fatalf("top 1%% received %.1f%% of draws, expected strong but bounded concentration", share*100)
	}
	if ts := z.topShare(0.01); math.Abs(ts-share) > 0.03 {
		t.Fatalf("topShare(1%%) = %.3f disagrees with empirical %.3f", ts, share)
	}
}

func TestZipfHigherThetaIsMoreSkewed(t *testing.T) {
	n := uint64(10000)
	z5 := NewZipf(New(1), 0.5, n)
	z10 := NewZipf(New(1), 1.0, n)
	if z10.topShare(0.01) <= z5.topShare(0.01) {
		t.Fatal("theta=1 must concentrate more mass in the head than theta=0.5")
	}
}

func TestZipfValuesInRange(t *testing.T) {
	z := NewZipf(New(11), 1.0, 37)
	for i := 0; i < 10000; i++ {
		if v := z.Next(); v >= 37 {
			t.Fatalf("Zipf draw %d out of range", v)
		}
	}
}

func TestZipfTopShareBounds(t *testing.T) {
	z := NewZipf(New(2), 0.5, 100)
	if z.topShare(0) != 0 || z.topShare(1) != 1 || z.topShare(2) != 1 {
		t.Fatal("topShare boundary handling wrong")
	}
	u := NewZipf(New(2), 0, 100)
	if u.topShare(0.25) != 0.25 {
		t.Fatal("uniform topShare should equal the fraction")
	}
}

func TestZipfPanicsOnBadArguments(t *testing.T) {
	for name, f := range map[string]func(){
		"empty domain":   func() { NewZipf(New(1), 0.5, 0) },
		"negative theta": func() { NewZipf(New(1), -1, 10) },
		"NaN theta":      func() { NewZipf(New(1), math.NaN(), 10) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		})
	}
}
