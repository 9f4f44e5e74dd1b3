package serve

import (
	"math"
	"testing"
)

func TestBucketRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose reported maximum is >= the
	// value and within 12.5% of it (exact below 2*subBuckets).
	values := []uint64{0, 1, 5, 15, 16, 17, 31, 32, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, math.MaxUint64 / 3}
	prev := -1
	for _, v := range values {
		b := bucketOf(v)
		if b < prev {
			// values chosen increasing: buckets must be non-decreasing
			t.Fatalf("bucketOf(%d) = %d not monotone (prev %d)", v, b, prev)
		}
		prev = b
		maxV := bucketMax(b)
		if maxV < v {
			t.Fatalf("bucketMax(bucketOf(%d)) = %d < value", v, maxV)
		}
		if v >= 2*subBuckets && float64(maxV) > float64(v)*1.125+1 {
			t.Fatalf("bucketMax(bucketOf(%d)) = %d overshoots by more than 12.5%%", v, maxV)
		}
		if v < 2*subBuckets && maxV != v {
			t.Fatalf("small values must be exact: bucketMax(bucketOf(%d)) = %d", v, maxV)
		}
	}
}

func TestBucketsContiguous(t *testing.T) {
	// Consecutive values never skip backwards, and every bucket index stays
	// inside the array.
	prev := 0
	for v := uint64(0); v < 1<<16; v++ {
		b := bucketOf(v)
		if b < prev || b >= numBuckets {
			t.Fatalf("bucketOf(%d) = %d (prev %d, numBuckets %d)", v, b, prev, numBuckets)
		}
		prev = b
	}
	if b := bucketOf(math.MaxUint64); b >= numBuckets {
		t.Fatalf("bucketOf(MaxUint64) = %d out of range", b)
	}
}

func TestRecorderQuantiles(t *testing.T) {
	var r Recorder
	// 100 requests: 90 at ~100 cycles, 9 at ~1000, 1 at 100000.
	for i := 0; i < 90; i++ {
		r.RecordLatency(100)
	}
	for i := 0; i < 9; i++ {
		r.RecordLatency(1000)
	}
	r.RecordLatency(100000)

	within := func(got, want uint64) bool {
		return float64(got) >= float64(want) && float64(got) <= float64(want)*1.125+1
	}
	if !within(r.P50(), 100) {
		t.Fatalf("p50 = %d, want ~100", r.P50())
	}
	if !within(r.P95(), 1000) {
		t.Fatalf("p95 = %d, want ~1000", r.P95())
	}
	if !within(r.Quantile(1), 100000) {
		t.Fatalf("q100 = %d, want ~100000", r.Quantile(1))
	}
	if r.MaxLatency != 100000 {
		t.Fatalf("max = %d", r.MaxLatency)
	}
	if mean := r.MeanLatency(); mean < 100 || mean > 1200 {
		t.Fatalf("mean = %f out of range", mean)
	}
}

func TestRecorderQuantileNeverExceedsMax(t *testing.T) {
	// A population whose max is not its bucket's upper bound: the quantile
	// must clamp to the observed max, never report the bucket bound.
	var r Recorder
	for i := 0; i < 100; i++ {
		r.RecordLatency(100) // bucketMax(bucketOf(100)) = 103
	}
	if r.P99() != 100 || r.Quantile(1) != 100 {
		t.Fatalf("p99 = %d, q100 = %d, want the observed max 100", r.P99(), r.Quantile(1))
	}
	if r.P50() > r.MaxLatency {
		t.Fatalf("p50 %d exceeds max %d", r.P50(), r.MaxLatency)
	}
}

func TestRecorderEmpty(t *testing.T) {
	var r Recorder
	if r.P50() != 0 || r.P99() != 0 || r.MeanLatency() != 0 || r.meanDepth() != 0 || r.DropFraction() != 0 {
		t.Fatal("empty recorder must report zeros")
	}
	if r.ThroughputPerCycle(0) != 0 {
		t.Fatal("zero elapsed must not divide by zero")
	}
}

func TestRecorderMerge(t *testing.T) {
	var a, b Recorder
	for i := 0; i < 50; i++ {
		a.RecordLatency(10)
		b.RecordLatency(1000)
	}
	a.Offered, b.Offered = 60, 50
	b.recordDrop()
	a.sampleDepth(3)
	b.sampleDepth(9)

	var merged Recorder
	merged.Merge(&a)
	merged.Merge(&b)
	if merged.Completed != 100 || merged.Offered != 110 || merged.Dropped != 1 {
		t.Fatalf("merged counters wrong: %+v", merged)
	}
	if merged.MaxLatency != 1000 || merged.DepthMax != 9 {
		t.Fatalf("merged maxima wrong: %+v", merged)
	}
	// Median of the merged population sits between the two groups' values.
	if p50 := merged.P50(); p50 < 10 || p50 > 1125 {
		t.Fatalf("merged p50 = %d", p50)
	}
	// Merged histogram holds the union: p25-ish is ~10, p75-ish ~1000.
	if q := merged.Quantile(0.25); q > 11 {
		t.Fatalf("q25 = %d, want ~10", q)
	}
	if q := merged.Quantile(0.9); q < 1000 {
		t.Fatalf("q90 = %d, want ~1000", q)
	}
}

// TestRecorderSingleSample: every quantile of a one-sample run is that
// sample (exactly below 16 cycles, within the bucket bound above), and the
// rank-1 clamp keeps q=0 from reading an empty prefix.
func TestRecorderSingleSample(t *testing.T) {
	for _, lat := range []uint64{0, 1, 7, 1000, 1 << 40} {
		var r Recorder
		r.RecordLatency(lat)
		for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
			got := r.Quantile(q)
			if got != lat {
				// Above the exact range the bucket upper bound applies, but
				// the max clamp must still pin it to the recorded value.
				t.Fatalf("1-sample Quantile(%.2f) = %d, want %d", q, got, lat)
			}
		}
		if r.MeanLatency() != float64(lat) || r.MaxLatency != lat {
			t.Fatalf("1-sample mean/max = %f/%d, want %d", r.MeanLatency(), r.MaxLatency, lat)
		}
	}
}

// TestRecorderAllDropped: a run in which every offered request was rejected
// has no latency population — quantiles and means are zero, drop fraction
// is one, and merging it into a live recorder adds only drop counters.
func TestRecorderAllDropped(t *testing.T) {
	var r Recorder
	for i := 0; i < 25; i++ {
		r.Offered++
		r.recordDrop()
	}
	if r.Dropped != 25 || r.Completed != 0 {
		t.Fatalf("counters %+v", r)
	}
	if r.DropFraction() != 1 {
		t.Fatalf("drop fraction = %f, want 1", r.DropFraction())
	}
	if r.P50() != 0 || r.P99() != 0 || r.Quantile(1) != 0 || r.MeanLatency() != 0 || r.MeanQueueWait() != 0 {
		t.Fatal("all-dropped run must report zero latencies")
	}

	var live Recorder
	live.Offered = 10
	for i := 0; i < 10; i++ {
		live.RecordLatency(100)
	}
	live.Merge(&r)
	if live.Completed != 10 || live.Dropped != 25 || live.Offered != 35 {
		t.Fatalf("merge with all-dropped: %+v", live)
	}
	if live.P99() != 100 {
		t.Fatalf("latency population polluted by drops: p99 = %d", live.P99())
	}
}

// TestRecorderMergeEmpty: merging empty recorders — empty into empty, empty
// into live, live into empty — never changes the live population.
func TestRecorderMergeEmpty(t *testing.T) {
	var a, b Recorder
	a.Merge(&b)
	if a.Completed != 0 || a.P99() != 0 || a.DepthMax != 0 {
		t.Fatalf("empty∪empty = %+v", a)
	}

	var live Recorder
	live.Offered = 3
	live.RecordLatency(10)
	live.RecordLatency(20)
	live.RecordLatency(30)
	live.sampleDepth(2)
	before := live

	var empty Recorder
	live.Merge(&empty)
	if live != before {
		t.Fatalf("merging an empty recorder changed the live one:\n%+v\n%+v", live, before)
	}

	var target Recorder
	target.Merge(&live)
	if target != live {
		t.Fatalf("merging into an empty recorder must copy the population:\n%+v\n%+v", target, live)
	}
}
