// Package fault is the deterministic chaos layer of the serving stack: fault
// episodes scripted (or drawn from a seeded generator) against the simulated
// clock, plus the recovery-policy primitives — capped-backoff retry, hedged
// re-dispatch, a per-shard circuit breaker and an SLO brownout controller —
// that the serve coordinator composes into graceful degradation.
//
// Everything here is host-side policy state keyed on simulated cycles: the
// package never touches a core or advances the clock, so a fault run is
// bit-identical replayable from its schedule and seeds alone.
package fault

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"amac/internal/xrand"
)

// Kind discriminates fault episodes. The numeric codes are stable: the obs
// trace exports them (KindFault events) without importing this package.
type Kind uint8

const (
	// Slow inflates the shard's off-chip memory latency by Factor for the
	// episode — a degraded DIMM, a noisy neighbour, a thermal throttle.
	Slow Kind = iota
	// Freeze halts the shard entirely for the episode; queued and in-flight
	// work is preserved and resumes afterwards (a long GC pause, a live
	// migration).
	Freeze
	// Crash kills the shard: in-flight and queued requests are lost, and the
	// shard restarts Dur cycles later with cold private caches.
	Crash
	// Spike compresses the shard's arrivals inside the episode window by
	// Factor — a flash crowd hitting one shard's keyspace.
	Spike
)

// String renders the kind name used by the parser and the trace export.
func (k Kind) String() string {
	switch k {
	case Slow:
		return "slow"
	case Freeze:
		return "freeze"
	case Crash:
		return "crash"
	case Spike:
		return "spike"
	}
	return "fault"
}

// parseKind inverts String.
func parseKind(s string) (Kind, error) {
	for _, k := range []Kind{Slow, Freeze, Crash, Spike} {
		if s == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown kind %q (want slow, freeze, crash or spike)", s)
}

// Episode is one fault applied to one shard over [Start, Start+Dur) simulated
// cycles.
type Episode struct {
	Kind  Kind
	Shard int
	Start uint64
	Dur   uint64
	// Factor is the slowdown multiplier (Slow) or arrival-rate multiplier
	// (Spike); Freeze and Crash ignore it.
	Factor float64
}

// End is the first cycle after the episode. Parsed and validated episodes
// never wrap it.
func (e Episode) End() uint64 { return e.Start + e.Dur }

// validFactor reports whether f is a usable Slow or Spike multiplier: finite
// and at least 1. NaN fails the comparison.
func validFactor(f float64) bool { return f >= 1 && !math.IsInf(f, 1) }

// String renders the episode in the -faults flag grammar.
func (e Episode) String() string {
	s := fmt.Sprintf("%s:%d@%d+%d", e.Kind, e.Shard, e.Start, e.Dur)
	if e.Kind == Slow || e.Kind == Spike {
		s += fmt.Sprintf("x%g", e.Factor)
	}
	return s
}

// Schedule is a set of episodes, sorted by start cycle. A shard's episodes
// never overlap (Validate enforces it), so the per-shard injector carries at
// most one active episode.
type Schedule struct {
	Episodes []Episode
}

// Empty reports whether the schedule injects nothing.
func (s *Schedule) Empty() bool { return s == nil || len(s.Episodes) == 0 }

// String renders the schedule in the -faults flag grammar.
func (s *Schedule) String() string {
	if s.Empty() {
		return "none"
	}
	parts := make([]string, len(s.Episodes))
	for i, e := range s.Episodes {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// sortEpisodes orders by (Start, Shard, Kind, Dur, Factor) — a total,
// deterministic order, so a schedule re-parsed from its String is identical.
func sortEpisodes(eps []Episode) {
	slices.SortFunc(eps, func(a, b Episode) int {
		return cmp.Or(
			cmp.Compare(a.Start, b.Start),
			cmp.Compare(a.Shard, b.Shard),
			cmp.Compare(a.Kind, b.Kind),
			cmp.Compare(a.Dur, b.Dur),
			cmp.Compare(a.Factor, b.Factor),
		)
	})
}

// Validate checks every episode against the shard count: shards in range,
// positive durations that do not run past the last cycle, finite factors of
// at least 1, and no overlapping episodes on one shard.
func (s *Schedule) Validate(shards int) error {
	if s == nil {
		return nil
	}
	lastEnd := make(map[int]uint64, shards)
	sortEpisodes(s.Episodes)
	for _, e := range s.Episodes {
		if e.Shard < 0 || e.Shard >= shards {
			return fmt.Errorf("fault: episode %s names shard %d of %d", e, e.Shard, shards)
		}
		if e.Dur == 0 {
			return fmt.Errorf("fault: episode %s has zero duration", e)
		}
		if e.End() < e.Start {
			return fmt.Errorf("fault: episode %s ends past the last cycle", e)
		}
		if (e.Kind == Slow || e.Kind == Spike) && !validFactor(e.Factor) {
			return fmt.Errorf("fault: episode %s needs a finite factor >= 1", e)
		}
		if end, ok := lastEnd[e.Shard]; ok && e.Start < end {
			return fmt.Errorf("fault: episode %s overlaps an earlier episode on shard %d", e, e.Shard)
		}
		lastEnd[e.Shard] = e.End()
	}
	return nil
}

// ForShard returns the shard's episodes in start order.
func (s *Schedule) ForShard(w int) []Episode {
	if s == nil {
		return nil
	}
	var eps []Episode
	for _, e := range s.Episodes {
		if e.Shard == w {
			eps = append(eps, e)
		}
	}
	return eps
}

// Spec is a parsed -faults flag: either a fixed schedule, or a request for a
// seeded random one that Resolve materializes once the shard count and run
// horizon are known.
type Spec struct {
	Sched    *Schedule
	IsRand   bool
	RandSeed uint64
	RandN    int
}

// ParseSpec parses the -faults flag grammar: a comma-separated episode list
//
//	kind:shard@start+dur[xfactor]   e.g. slow:0@60000+120000x4
//
// or a seeded random request rand:<seed>[:<episodes>]. Cycle counts accept a
// k/M suffix (×1e3/×1e6).
func ParseSpec(spec string) (Spec, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return Spec{}, fmt.Errorf("fault: empty schedule")
	}
	if rest, ok := strings.CutPrefix(spec, "rand:"); ok {
		seedStr, nStr, hasN := strings.Cut(rest, ":")
		seed, err := strconv.ParseUint(seedStr, 10, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("fault: bad rand seed %q", seedStr)
		}
		n := 4
		if hasN {
			if n, err = strconv.Atoi(nStr); err != nil || n <= 0 {
				return Spec{}, fmt.Errorf("fault: bad rand episode count %q", nStr)
			}
		}
		return Spec{IsRand: true, RandSeed: seed, RandN: n}, nil
	}
	sched := &Schedule{}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			return Spec{}, fmt.Errorf("fault: empty episode in %q", spec)
		}
		ep, err := parseEpisode(tok)
		if err != nil {
			return Spec{}, err
		}
		sched.Episodes = append(sched.Episodes, ep)
	}
	sortEpisodes(sched.Episodes)
	return Spec{Sched: sched}, nil
}

// parseEpisode parses one kind:shard@start+dur[xfactor] token.
func parseEpisode(tok string) (Episode, error) {
	kindStr, rest, ok := strings.Cut(tok, ":")
	if !ok {
		return Episode{}, fmt.Errorf("fault: episode %q lacks a kind: prefix", tok)
	}
	kind, err := parseKind(kindStr)
	if err != nil {
		return Episode{}, err
	}
	shardStr, rest, ok := strings.Cut(rest, "@")
	if !ok {
		return Episode{}, fmt.Errorf("fault: episode %q lacks @start", tok)
	}
	shard, err := strconv.Atoi(shardStr)
	if err != nil || shard < 0 {
		return Episode{}, fmt.Errorf("fault: bad shard %q in %q", shardStr, tok)
	}
	startStr, rest, ok := strings.Cut(rest, "+")
	if !ok {
		return Episode{}, fmt.Errorf("fault: episode %q lacks +dur", tok)
	}
	start, err := parseCycles(startStr)
	if err != nil {
		return Episode{}, fmt.Errorf("fault: bad start %q in %q", startStr, tok)
	}
	durStr, factorStr, hasFactor := strings.Cut(rest, "x")
	dur, err := parseCycles(durStr)
	if err != nil || dur == 0 {
		return Episode{}, fmt.Errorf("fault: bad duration %q in %q", durStr, tok)
	}
	if start+dur < start {
		return Episode{}, fmt.Errorf("fault: episode %q ends past the last cycle", tok)
	}
	ep := Episode{Kind: kind, Shard: shard, Start: start, Dur: dur, Factor: 1}
	if hasFactor {
		if kind == Freeze || kind == Crash {
			return Episode{}, fmt.Errorf("fault: %s episodes take no factor (%q)", kind, tok)
		}
		f, err := strconv.ParseFloat(factorStr, 64)
		if err != nil || !validFactor(f) {
			return Episode{}, fmt.Errorf("fault: bad factor %q in %q", factorStr, tok)
		}
		ep.Factor = f
	} else if kind == Slow || kind == Spike {
		return Episode{}, fmt.Errorf("fault: %s episodes need an xfactor (%q)", kind, tok)
	}
	return ep, nil
}

// parseCycles parses a cycle count with an optional k or M suffix, rejecting
// a count the suffix would carry past 2^64-1.
func parseCycles(s string) (uint64, error) {
	mult := uint64(1)
	if n, ok := strings.CutSuffix(s, "k"); ok {
		s, mult = n, 1000
	} else if n, ok := strings.CutSuffix(s, "M"); ok {
		s, mult = n, 1000000
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, err
	}
	hi, lo := bits.Mul64(v, mult)
	if hi != 0 {
		return 0, fmt.Errorf("fault: cycle count %s overflows", s)
	}
	return lo, nil
}

// Resolve materializes the spec against a shard count and run horizon:
// random specs draw their episodes, fixed schedules are validated as-is.
func (sp Spec) Resolve(shards int, horizon uint64) (*Schedule, error) {
	sched := sp.Sched
	if sp.IsRand {
		sched = Random(sp.RandSeed, sp.RandN, shards, horizon)
	}
	if err := sched.Validate(shards); err != nil {
		return nil, err
	}
	return sched, nil
}

// Random draws up to n episodes from a seeded generator: kinds, shards,
// starts in the middle [1/8, 5/8) of the horizon, durations in [1/64, 3/16)
// of it, factors in 2..5. Episodes that would overlap an earlier one on the
// same shard are discarded rather than re-drawn, so the stream of random
// numbers consumed — and therefore the schedule — depends only on the seed.
func Random(seed uint64, n, shards int, horizon uint64) *Schedule {
	r := xrand.New(seed)
	sched := &Schedule{}
	for i := 0; i < n; i++ {
		ep := Episode{
			Kind:   Kind(r.Uint64n(4)),
			Shard:  int(r.Uint64n(uint64(shards))),
			Start:  horizon/8 + r.Uint64n(horizon/2),
			Dur:    horizon/64 + r.Uint64n(horizon/8),
			Factor: float64(2 + r.Uint64n(4)),
		}
		overlaps := false
		for _, prev := range sched.Episodes {
			if prev.Shard == ep.Shard && ep.Start < prev.End() && prev.Start < ep.End() {
				overlaps = true
				break
			}
		}
		if overlaps {
			continue
		}
		sched.Episodes = append(sched.Episodes, ep)
	}
	sortEpisodes(sched.Episodes)
	return sched
}

// Timeline walks one shard's episodes against the simulated clock: Advance
// reports, in order, every episode boundary (begin, then end) crossed since
// the previous call. Because a shard's episodes never overlap, at most one is
// active at a time.
type Timeline struct {
	eps    []Episode
	idx    int
	active int // index into eps, -1 when none
}

// NewTimeline builds a timeline over episodes already filtered to one shard
// and sorted by start (Schedule.ForShard's output).
func NewTimeline(eps []Episode) *Timeline {
	return &Timeline{eps: eps, active: -1}
}

// Advance applies every boundary at or before now: apply(ep, true) when an
// episode begins, apply(ep, false) when it ends. An episode wholly inside the
// step reports both in order.
func (t *Timeline) Advance(now uint64, apply func(ep Episode, begin bool)) {
	for {
		if t.active >= 0 {
			ep := t.eps[t.active]
			if ep.End() > now {
				return
			}
			t.active = -1
			apply(ep, false)
			continue
		}
		if t.idx < len(t.eps) && t.eps[t.idx].Start <= now {
			t.active = t.idx
			t.idx++
			apply(t.eps[t.active], true)
			continue
		}
		return
	}
}

// Active returns the currently active episode, if any.
func (t *Timeline) Active() (Episode, bool) {
	if t.active < 0 {
		return Episode{}, false
	}
	return t.eps[t.active], true
}

// ApplySpikes rewrites one shard's arrival schedule for its Spike episodes:
// arrivals inside [Start, End) are compressed toward Start by the factor, so
// the window's requests land at Factor times the rate followed by a lull —
// the same total load, delivered as a burst. Other kinds leave the schedule
// untouched (their effects are runtime state). The input is not modified; the
// result is freshly allocated only when a spike applies.
func ApplySpikes(arrivals []uint64, eps []Episode) []uint64 {
	var out []uint64
	for _, ep := range eps {
		if ep.Kind != Spike || ep.Factor <= 1 {
			continue
		}
		if out == nil {
			out = append([]uint64(nil), arrivals...)
		}
		for i, a := range out {
			if a >= ep.Start && a < ep.End() {
				out[i] = ep.Start + uint64(float64(a-ep.Start)/ep.Factor)
			}
		}
	}
	if out == nil {
		return arrivals
	}
	return out
}

// RetryPolicy is capped exponential backoff for timed-out requests.
type RetryPolicy struct {
	// Max is the number of retry attempts after the first try; zero disables
	// retries.
	Max int
	// Backoff is the delay before the first retry, in cycles; each further
	// attempt doubles it.
	Backoff uint64
	// Cap bounds the delay; zero means 8x Backoff.
	Cap uint64
}

// Enabled reports whether the policy retries at all.
func (r RetryPolicy) Enabled() bool { return r.Max > 0 }

// Delay returns the backoff before retry attempt (1-based), capped.
func (r RetryPolicy) Delay(attempt int) uint64 {
	if attempt < 1 {
		attempt = 1
	}
	cap := r.Cap
	if cap == 0 {
		cap = 8 * r.Backoff
	}
	d := r.Backoff
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= cap {
			return cap
		}
	}
	if d > cap {
		return cap
	}
	return d
}

// HedgePolicy duplicates slow requests onto a sibling shard.
type HedgePolicy struct {
	// Delay is how long after arrival a still-unserved request is hedged, in
	// cycles; zero disables hedging. The serving tier derives it from the
	// clean-run p99, per the classic tail-at-scale prescription.
	Delay uint64
}

// Enabled reports whether hedging is on.
func (h HedgePolicy) Enabled() bool { return h.Delay > 0 }
