package serve

import (
	"fmt"
	"math/bits"
)

// Recorder accumulates per-request serving statistics: an HDR-style
// log-linear latency histogram (8 sub-buckets per power of two, so every
// recorded quantile is within 12.5% of the true value), completion and drop
// counts, queue-wait time and queue-depth samples. Recorders are
// worker-private during a run and merged afterwards; Merge is exact because
// every field is a sum, max or histogram.
type Recorder struct {
	// Offered counts requests presented to the queue (admitted or dropped).
	Offered uint64
	// Completed counts requests that finished execution.
	Completed uint64
	// Dropped counts requests rejected by a full Drop-policy queue.
	Dropped uint64

	// Fault-tolerant serving outcomes (all zero in plain runs). Recovery
	// counters live on a request's home shard; latency is recorded on the
	// shard that actually served it.

	// TimedOut counts requests that exceeded their deadline (queued or in
	// flight) and were not recovered by a retry.
	TimedOut uint64
	// Failed counts requests lost to a shard crash and not recovered.
	Failed uint64
	// Shed counts requests rejected at admission by the SLO brownout.
	Shed uint64
	// Retried counts retry re-dispatches issued for this shard's requests.
	Retried uint64
	// Hedged counts hedge duplicates issued for this shard's requests.
	Hedged uint64
	// HedgeWins counts requests whose hedge duplicate completed first.
	HedgeWins uint64
	// HedgeWaste counts duplicate completions that arrived after the request
	// was already resolved.
	HedgeWaste uint64
	// Rerouted counts arrivals redirected to a sibling shard by this shard's
	// open circuit breaker.
	Rerouted uint64

	// SumLatency and MaxLatency summarise admission→completion cycles.
	SumLatency uint64
	MaxLatency uint64
	// SumQueueWait accumulates the cycles requests spent queued before an
	// engine pulled them (a component of latency, not an addition to it).
	SumQueueWait uint64

	// DepthSamples/DepthSum/DepthMax summarise queue depth observed at each
	// pull.
	DepthSamples uint64
	DepthSum     uint64
	DepthMax     int

	buckets [numBuckets]uint64
}

// subBucketBits gives 1<<subBucketBits sub-buckets per octave: relative
// quantile error is at most 1/2^subBucketBits.
const subBucketBits = 3

const subBuckets = 1 << subBucketBits

// numBuckets covers every uint64 value: values below 2*subBuckets are exact,
// above that each octave contributes subBuckets buckets.
const numBuckets = 2*subBuckets + (64-subBucketBits-1)*subBuckets

// bucketOf maps a latency to its histogram bucket.
func bucketOf(v uint64) int {
	if v < 2*subBuckets {
		return int(v)
	}
	// v has bits.Len64(v) significant bits; keep the top subBucketBits+1 of
	// them as the sub-bucket index within the octave.
	shift := uint(bits.Len64(v) - subBucketBits - 1)
	return int(shift)*subBuckets + int(v>>shift)
}

// bucketMax returns the largest value a bucket holds (the value reported for
// quantiles that land in it).
func bucketMax(b int) uint64 {
	if b < 2*subBuckets {
		return uint64(b)
	}
	shift := uint(b/subBuckets) - 1
	sub := uint64(b%subBuckets) + subBuckets
	return (sub+1)<<shift - 1
}

// RecordLatency folds one completed request's admission→completion cycles.
func (r *Recorder) RecordLatency(lat uint64) {
	r.Completed++
	r.SumLatency += lat
	if lat > r.MaxLatency {
		r.MaxLatency = lat
	}
	r.buckets[bucketOf(lat)]++
}

// recordQueueWait notes the cycles one request waited between admission and
// being pulled by the engine.
func (r *Recorder) recordQueueWait(wait uint64) {
	r.SumQueueWait += wait
}

// recordDrop notes one rejected request.
func (r *Recorder) recordDrop() {
	r.Dropped++
}

// sampleDepth notes the queue depth observed at one engine pull.
func (r *Recorder) sampleDepth(depth int) {
	r.DepthSamples++
	r.DepthSum += uint64(depth)
	if depth > r.DepthMax {
		r.DepthMax = depth
	}
}

// Quantile returns the latency value at or below which fraction q of
// completed requests finished (q clamped to [0, 1]); zero when nothing
// completed. The answer is the upper bound of the histogram bucket holding
// the target rank, so it is exact for latencies below 16 cycles and within
// 12.5% above.
func (r *Recorder) Quantile(q float64) uint64 {
	if r.Completed == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(r.Completed))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b, n := range r.buckets {
		seen += n
		if seen >= rank {
			// The bucket's upper bound can exceed the largest latency that
			// actually landed in it; never report a quantile above the max.
			if v := bucketMax(b); v < r.MaxLatency {
				return v
			}
			return r.MaxLatency
		}
	}
	return r.MaxLatency
}

// P50 is the median admission→completion latency in cycles.
func (r *Recorder) P50() uint64 { return r.Quantile(0.50) }

// P95 is the 95th-percentile latency in cycles.
func (r *Recorder) P95() uint64 { return r.Quantile(0.95) }

// P99 is the 99th-percentile latency in cycles.
func (r *Recorder) P99() uint64 { return r.Quantile(0.99) }

// MeanLatency is the average admission→completion latency in cycles.
func (r *Recorder) MeanLatency() float64 {
	if r.Completed == 0 {
		return 0
	}
	return float64(r.SumLatency) / float64(r.Completed)
}

// MeanQueueWait is the average cycles a completed request spent queued.
func (r *Recorder) MeanQueueWait() float64 {
	if r.Completed == 0 {
		return 0
	}
	return float64(r.SumQueueWait) / float64(r.Completed)
}

// meanDepth is the average queue depth observed across engine pulls.
func (r *Recorder) meanDepth() float64 {
	if r.DepthSamples == 0 {
		return 0
	}
	return float64(r.DepthSum) / float64(r.DepthSamples)
}

// DropFraction is the fraction of offered requests that were rejected.
func (r *Recorder) DropFraction() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Dropped) / float64(r.Offered)
}

// ThroughputPerCycle converts completions over an elapsed cycle count into
// requests per cycle (callers scale by the clock to get requests/second).
func (r *Recorder) ThroughputPerCycle(elapsed uint64) float64 {
	if elapsed == 0 {
		return 0
	}
	return float64(r.Completed) / float64(elapsed)
}

// Merge folds another recorder (typically another worker's) into r.
func (r *Recorder) Merge(other *Recorder) {
	r.Offered += other.Offered
	r.Completed += other.Completed
	r.Dropped += other.Dropped
	r.TimedOut += other.TimedOut
	r.Failed += other.Failed
	r.Shed += other.Shed
	r.Retried += other.Retried
	r.Hedged += other.Hedged
	r.HedgeWins += other.HedgeWins
	r.HedgeWaste += other.HedgeWaste
	r.Rerouted += other.Rerouted
	r.SumLatency += other.SumLatency
	if other.MaxLatency > r.MaxLatency {
		r.MaxLatency = other.MaxLatency
	}
	r.SumQueueWait += other.SumQueueWait
	r.DepthSamples += other.DepthSamples
	r.DepthSum += other.DepthSum
	if other.DepthMax > r.DepthMax {
		r.DepthMax = other.DepthMax
	}
	for b := range other.buckets {
		r.buckets[b] += other.buckets[b]
	}
}

// String renders a one-line summary for logs and examples. Fault-tolerance
// counters appear only when nonzero, so clean runs render exactly as before.
func (r *Recorder) String() string {
	s := fmt.Sprintf("completed=%d dropped=%d p50=%d p95=%d p99=%d max=%d meanQwait=%.0f maxDepth=%d",
		r.Completed, r.Dropped, r.P50(), r.P95(), r.P99(), r.MaxLatency, r.MeanQueueWait(), r.DepthMax)
	if r.TimedOut+r.Failed+r.Shed+r.Retried+r.Hedged+r.Rerouted > 0 {
		s += fmt.Sprintf(" timedOut=%d failed=%d shed=%d retried=%d hedged=%d rerouted=%d",
			r.TimedOut, r.Failed, r.Shed, r.Retried, r.Hedged, r.Rerouted)
	}
	return s
}
