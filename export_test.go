package amac

import (
	"amac/internal/memsim"
	"amac/internal/serve"
)

// The golden suites (golden_test.go, serve_golden_test.go) name these three,
// which the public API leaves out; this file makes them visible to the
// package's tests only.

// SPARCT4 returns the model of the Oracle SPARC T4 socket used in the
// paper's secondary evaluation.
func SPARCT4() Hardware { return memsim.SPARCT4() }

// QueuePolicy says what a full admission queue does: QueueBlock or QueueDrop.
type QueuePolicy = serve.Policy

// ParseArrivals builds the named arrival process ("deterministic",
// "poisson", "bursty") at the given mean inter-arrival period.
func ParseArrivals(name string, period float64) (serve.ArrivalProcess, error) {
	return serve.ParseArrivals(name, period)
}
