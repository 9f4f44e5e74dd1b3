package serve

import (
	"fmt"
	"math"

	"amac/internal/xrand"
)

// ArrivalProcess generates the open-loop arrival schedule of a load
// generator: the absolute simulated cycles at which requests enter the
// system, independent of how fast the service drains them (that
// independence is what makes the load open-loop, and what lets queues grow
// when a technique cannot keep up).
type ArrivalProcess interface {
	// Name identifies the process in reports ("deterministic", "poisson",
	// "bursty").
	Name() string
	// Schedule returns n non-decreasing arrival cycles. It is deterministic
	// given the seed.
	Schedule(n int, seed uint64) []uint64
}

// Deterministic spaces arrivals exactly Period cycles apart: request i
// arrives at cycle i*Period. The most benign traffic shape — any queueing it
// causes is due purely to the service's own refill restrictions.
type Deterministic struct {
	// Period is the inter-arrival gap in cycles (minimum 1).
	Period uint64
}

// Name implements ArrivalProcess.
func (d Deterministic) Name() string { return "deterministic" }

// Schedule implements ArrivalProcess.
func (d Deterministic) Schedule(n int, seed uint64) []uint64 {
	period := d.Period
	if period < 1 {
		period = 1
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i) * period
	}
	return out
}

// Poisson draws independent exponential inter-arrival gaps with the given
// mean, the classic memoryless traffic model: the same long-run rate as
// Deterministic{MeanPeriod} but with natural short-term bursts that probe a
// service's headroom.
type Poisson struct {
	// MeanPeriod is the mean inter-arrival gap in cycles (minimum 1).
	MeanPeriod float64
}

// Name implements ArrivalProcess.
func (p Poisson) Name() string { return "poisson" }

// Schedule implements ArrivalProcess.
func (p Poisson) Schedule(n int, seed uint64) []uint64 {
	mean := p.MeanPeriod
	if mean < 1 {
		mean = 1
	}
	rng := xrand.New(seed)
	out := make([]uint64, n)
	t := 0.0
	for i := range out {
		// Inverse-CDF sampling; 1-U is in (0, 1] so the log is finite.
		t += -mean * math.Log(1-rng.Float64())
		out[i] = uint64(t)
	}
	return out
}

// Bursty is an on/off modulated process: bursts of BurstLen requests spaced
// Period apart, separated by Off idle cycles. Its long-run rate is lower
// than 1/Period, but within a burst the instantaneous rate is the full
// 1/Period — the adversarial shape for batch-boundary refill, because a
// burst lands while the previous group is still draining.
type Bursty struct {
	// Period is the intra-burst inter-arrival gap in cycles (minimum 1).
	Period uint64
	// BurstLen is the number of requests per burst (minimum 1).
	BurstLen int
	// Off is the idle gap between bursts, in cycles.
	Off uint64
}

// Name implements ArrivalProcess.
func (b Bursty) Name() string { return "bursty" }

// Schedule implements ArrivalProcess.
func (b Bursty) Schedule(n int, seed uint64) []uint64 {
	period := b.Period
	if period < 1 {
		period = 1
	}
	burst := b.BurstLen
	if burst < 1 {
		burst = 1
	}
	out := make([]uint64, n)
	t := uint64(0)
	for i := range out {
		out[i] = t
		if (i+1)%burst == 0 {
			t += period + b.Off
		} else {
			t += period
		}
	}
	return out
}

// MaxArrivalPeriod is the largest mean inter-arrival period ParseArrivals
// accepts, in cycles. It keeps every schedule's arrival cycles far below
// 2^63: a schedule of n requests ends near n*period, and converting a larger
// float to uint64 saturates or wraps, so the schedule would go backwards.
const MaxArrivalPeriod = 1 << 32

// ParseArrivals builds the named process at the given mean inter-arrival
// period: "deterministic", "poisson" (the default for empty input), or
// "bursty" (bursts of 32 at half the period, idle between bursts so the
// long-run rate matches the requested period). Periods below 1 cycle are
// raised to 1; NaN, infinite periods and periods above MaxArrivalPeriod are
// rejected.
func ParseArrivals(name string, period float64) (ArrivalProcess, error) {
	if math.IsNaN(period) || period > MaxArrivalPeriod || math.IsInf(period, -1) {
		return nil, fmt.Errorf("serve: arrival period %v out of range (want a finite period of at most %d cycles)", period, uint64(MaxArrivalPeriod))
	}
	if period < 1 {
		period = 1
	}
	switch name {
	case "", "poisson":
		return Poisson{MeanPeriod: period}, nil
	case "deterministic":
		return Deterministic{Period: uint64(period + 0.5)}, nil
	case "bursty":
		const burst = 32
		intra := uint64(period/2 + 0.5)
		if intra < 1 {
			intra = 1
		}
		// Choose the off gap so the long-run rate still averages one request
		// per `period` cycles: burst*period = burst*intra + off.
		off := uint64(burst*period+0.5) - burst*intra
		return Bursty{Period: intra, BurstLen: burst, Off: off}, nil
	default:
		return nil, fmt.Errorf("serve: unknown arrival process %q (want deterministic, poisson or bursty)", name)
	}
}
