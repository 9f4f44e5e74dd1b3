package exec

import "amac/internal/memsim"

// LeaseSource caps an underlying source at a bounded amount of work: the
// streaming engines (BaselineStream, GroupPrefetchStream,
// SoftwarePipelineStream, core.RunStream) loop until their source reports
// end-of-stream, so a layer that needs control back — an adaptive controller
// between retune decisions, a pipeline stage between downstream pulls — wraps
// the source in a lease. When the lease closes (quota spent, gate closed, or
// a NoWait conversion), the engine sees Exhausted, drains its in-flight
// lookups and returns; no request is ever abandoned. The wrapper records why
// the lease ended so the caller can distinguish "more work later" from "the
// stream is truly over".
type LeaseSource[S any] struct {
	// Src is the underlying source.
	Src Source[S]
	// Quota is how many requests may still be admitted; each Pulled request
	// decrements it and a non-positive quota closes the lease.
	Quota int
	// Gate, if non-nil, is consulted before each admission: false closes the
	// lease. Pipeline stages use it for backpressure — the gate watches the
	// downstream pipe's occupancy, so a full pipe drains the engine and hands
	// control back to the consumer.
	Gate func() bool
	// NoWait converts an underlying Wait into a lease close instead of
	// letting the engine idle: Waiting and WaitUntil record the deferred
	// arrival so the caller can propagate it. A pipeline pump runs under
	// NoWait because idling belongs to the sink engine driving the plan, not
	// to an upstream stage pumped mid-pull.
	NoWait bool

	// Completed counts requests finished under this lease.
	Completed int
	// Exhausted reports that the underlying source ended for real.
	Exhausted bool
	// Waiting and WaitUntil record a NoWait-converted Wait: the underlying
	// source has more requests, the earliest arriving at WaitUntil.
	Waiting   bool
	WaitUntil uint64
}

// ProvisionedStages implements Source.
func (l *LeaseSource[S]) ProvisionedStages() int { return l.Src.ProvisionedStages() }

// Pull implements Source: forward until the lease closes, then report
// end-of-stream so the engine drains and hands control back.
func (l *LeaseSource[S]) Pull(c *memsim.Core, s *S, now uint64, pr *PullResult) {
	if l.Quota <= 0 || (l.Gate != nil && !l.Gate()) {
		pr.Status = Exhausted
		return
	}
	l.Src.Pull(c, s, now, pr)
	switch pr.Status {
	case Exhausted:
		l.Exhausted = true
	case Wait:
		if l.NoWait {
			l.Waiting = true
			l.WaitUntil = pr.NextArrival
			pr.Status = Exhausted
		}
	case Pulled:
		l.Quota--
	}
}

// Stager implements Source: the underlying source's.
func (l *LeaseSource[S]) Stager() Stager[S] { return l.Src.Stager() }

// Complete implements Source.
func (l *LeaseSource[S]) Complete(req Request, done uint64) {
	l.Completed++
	l.Src.Complete(req, done)
}
