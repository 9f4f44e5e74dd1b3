package fault

// State is a circuit breaker's position. The numeric codes are stable: the
// obs trace exports them (KindBreaker events) without importing this package.
type State uint8

const (
	// StateClosed: traffic flows normally.
	StateClosed State = iota
	// StateOpen: the shard is considered unhealthy; arrivals are rerouted to
	// siblings until a cooldown elapses.
	StateOpen
	// StateHalfOpen: after the cooldown, a trickle of probe requests tests
	// the shard; success closes the breaker, failure reopens it.
	StateHalfOpen
)

// String renders the state name.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	}
	return "?"
}

// Transition is one breaker state change on the simulated clock.
type Transition struct {
	Cycle    uint64
	Shard    int
	From, To State
}

// BreakerConfig tunes a per-shard circuit breaker. The zero value selects
// the default cooldown.
type BreakerConfig struct {
	// Cooldown is how long an open breaker waits before probing, in cycles.
	// Default 1<<16.
	Cooldown uint64
}

// A closed or half-open breaker opens when its EWMA timeout fraction rises
// above openAbove; a half-open one closes at or below closeBelow. The EWMA
// weighs each observation round's timeout fraction by ewmaAlpha, and a
// closed breaker opens only once it covers minSamples request outcomes.
// While half-open it admits one of every probeEvery arrivals and reroutes
// the rest.
const (
	openAbove  = 0.5
	closeBelow = 0.1
	ewmaAlpha  = 0.3
	minSamples = 16
	probeEvery = 8
)

// withDefaults fills zero fields.
func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Cooldown == 0 {
		c.Cooldown = 1 << 16
	}
	return c
}

// Breaker is one shard's circuit breaker: an EWMA over per-round timeout
// fractions drives closed → open → half-open → closed transitions, and Admit
// answers, per arrival, whether the shard may take the request or it should
// be rerouted to a healthy sibling. Purely host-side policy state — the
// coordinator feeds it at slice boundaries on the simulated clock.
type Breaker struct {
	cfg      BreakerConfig
	shard    int
	state    State
	ewma     float64
	seeded   bool
	samples  int
	openedAt uint64
	probeN   int
	trans    []Transition
}

// NewBreaker builds a closed breaker for the shard.
func NewBreaker(shard int, cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), shard: shard}
}

// State returns the breaker's position.
func (b *Breaker) State() State { return b.state }

// Transitions returns every state change so far, in order.
func (b *Breaker) Transitions() []Transition { return b.trans }

// transitionTo records and applies a state change.
func (b *Breaker) transitionTo(now uint64, to State) {
	b.trans = append(b.trans, Transition{Cycle: now, Shard: b.shard, From: b.state, To: to})
	b.state = to
	if to == StateOpen {
		b.openedAt = now
	}
	if to == StateHalfOpen {
		b.probeN = 0
	}
}

// Observe feeds one observation round: the number of requests the shard
// completed and timed out since the last call. Call it every round even with
// zero counts — the open → half-open transition is time-driven. Returns the
// state after the round.
func (b *Breaker) Observe(now uint64, completed, timedOut int) State {
	if b.state == StateOpen && now >= b.openedAt+b.cfg.Cooldown {
		b.transitionTo(now, StateHalfOpen)
	}
	n := completed + timedOut
	if n == 0 {
		return b.state
	}
	frac := float64(timedOut) / float64(n)
	if !b.seeded {
		b.ewma = frac
		b.seeded = true
	} else {
		b.ewma = ewmaAlpha*frac + (1-ewmaAlpha)*b.ewma
	}
	b.samples += n
	switch b.state {
	case StateClosed:
		if b.samples >= minSamples && b.ewma > openAbove {
			b.transitionTo(now, StateOpen)
		}
	case StateHalfOpen:
		if b.ewma > openAbove {
			b.transitionTo(now, StateOpen)
		} else if b.ewma <= closeBelow {
			b.transitionTo(now, StateClosed)
		}
	}
	return b.state
}

// Admit answers whether the shard may take the next arrival: always while
// closed, never while open, one probe in every probeEvery while half-open.
func (b *Breaker) Admit() bool {
	switch b.state {
	case StateOpen:
		return false
	case StateHalfOpen:
		b.probeN++
		return b.probeN%probeEvery == 1
	}
	return true
}

// SLO configures the brownout controller: a p99 budget and the request
// classes load is shed by.
type SLO struct {
	// P99Budget is the sliding-window p99 latency target in cycles; zero
	// disables the brownout.
	P99Budget uint64
	// Classes partitions requests into priority classes (request index mod
	// Classes; class 0 is the most important and never shed). Default 4.
	Classes int
	// HoldRounds is how many consecutive in-budget observation rounds must
	// pass before restoring a class. Default 4.
	HoldRounds int
}

// restoreMargin is the budget fraction the p99 must fall below before a shed
// class is restored — hysteresis against flapping.
const restoreMargin = 0.7

// withDefaults fills zero fields.
func (s SLO) withDefaults() SLO {
	if s.Classes == 0 {
		s.Classes = 4
	}
	if s.HoldRounds == 0 {
		s.HoldRounds = 4
	}
	return s
}

// Enabled reports whether the SLO drives a brownout.
func (s SLO) Enabled() bool { return s.P99Budget > 0 }

// Brownout sheds load class-by-class when the observed p99 exceeds the SLO
// budget, and restores classes (with hysteresis) when it recovers. Level is
// the number of classes currently shed; requests in the top Level classes
// are rejected at admission.
type Brownout struct {
	slo      SLO
	level    int
	maxLevel int
	okRounds int
}

// NewBrownout builds a brownout controller; the zero-field SLO defaults
// apply.
func NewBrownout(slo SLO) *Brownout {
	return &Brownout{slo: slo.withDefaults()}
}

// Observe feeds one round's sliding p99; it returns the shed level after the
// round and whether it changed.
func (b *Brownout) Observe(p99 uint64) (level int, changed bool) {
	switch {
	case p99 > b.slo.P99Budget:
		b.okRounds = 0
		if b.level < b.slo.Classes-1 {
			b.level++
			if b.level > b.maxLevel {
				b.maxLevel = b.level
			}
			return b.level, true
		}
	case float64(p99) <= float64(b.slo.P99Budget)*restoreMargin:
		b.okRounds++
		if b.okRounds >= b.slo.HoldRounds && b.level > 0 {
			b.level--
			b.okRounds = 0
			return b.level, true
		}
	default:
		b.okRounds = 0
	}
	return b.level, false
}

// Level is the number of classes currently shed.
func (b *Brownout) Level() int { return b.level }

// MaxLevel is the highest level the controller reached.
func (b *Brownout) MaxLevel() int { return b.maxLevel }

// Classes returns the configured class count.
func (b *Brownout) Classes() int { return b.slo.Classes }

// Admit answers whether a request of the given class may be served at the
// current shed level.
func (b *Brownout) Admit(class int) bool { return class < b.slo.Classes-b.level }
