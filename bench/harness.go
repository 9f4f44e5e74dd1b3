package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand/v2"
	"runtime"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer of the program. Spans
// nest workload → pass → run → call through Parent (0 = root).
type span struct {
	ID      int               `json:"id"`
	Parent  int               `json:"parent"`
	Name    string            `json:"name"`
	Layer   string            `json:"layer"`
	StartNs int64             `json:"start_ns"`
	EndNs   int64             `json:"end_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, which is the untraced state: timing still happens, spans do not.
type spanLog struct {
	t0    time.Time
	spans []span
	open  []int // indices into spans of the currently open spans
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under the innermost open span.
func (l *spanLog) begin(name, layer string, attrs map[string]string) {
	if l == nil {
		return
	}
	parent := 0
	if n := len(l.open); n > 0 {
		parent = l.spans[l.open[n-1]].ID
	}
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Name: name, Layer: layer,
		StartNs: time.Since(l.t0).Nanoseconds(), Attrs: attrs,
	})
	l.open = append(l.open, len(l.spans)-1)
}

// end closes the innermost open span.
func (l *spanLog) end() {
	if l == nil {
		return
	}
	i := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	l.spans[i].EndNs = time.Since(l.t0).Nanoseconds()
}

// attrs builds a span attribute map from key, value pairs.
func attrs(kv ...string) map[string]string {
	m := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

// pass is one execution of every simulated run of a workload. It times the
// layer calls of each run, checks every run against its reference, hashes
// every simulated statistic, and collects the simulated end-to-end values and
// the per-layer values the workload reports.
type pass struct {
	spans *spanLog // nil: untraced

	runs     map[string]runTime // host time of each timed run, by label
	runBusy  time.Duration      // host time of the current run's calls
	untimed  bool               // inside extra: runs are not recorded
	ops      int
	failures []string
	digest   hash.Hash64

	sim        map[string]float64 // simulated end-to-end values
	simSamples map[string]int     // their sample counts, where more than one
	layer      map[string]float64 // per-layer values
}

// runTime is the host time one run spent in layer calls, and how many
// simulated lookups it processed.
type runTime struct {
	lookups int
	d       time.Duration
}

func newPass(spans *spanLog) *pass {
	return &pass{
		spans: spans, digest: fnv.New64a(), runs: map[string]runTime{},
		sim: map[string]float64{}, simSamples: map[string]int{}, layer: map[string]float64{},
	}
}

// run executes one engine, service or pipeline run of the given number of
// lookups. The host time of its layer calls is recorded under label; every
// pass runs the same labels.
func (p *pass) run(label string, lookups int, a map[string]string, fn func()) {
	p.spans.begin(label, "run", a)
	p.runBusy = 0
	fn()
	if !p.untimed {
		p.runs[label] = runTime{lookups, p.runBusy}
	}
	p.spans.end()
}

// call times one call into a layer of the program; the time counts towards
// the current run. It returns the call's duration.
func (p *pass) call(name, layer string, fn func()) time.Duration {
	p.spans.begin(name, layer, nil)
	start := time.Now()
	fn()
	d := time.Since(start)
	p.spans.end()
	p.runBusy += d
	return d
}

// traced reports whether the pass records spans and the traced-only extras:
// allocation counts and the sinks repeats.
func (p *pass) traced() bool { return p.spans != nil }

// extra runs fn, a traced-only repeat, without recording its runs, so traced
// and untraced passes time the same work.
func (p *pass) extra(fn func()) {
	p.untimed = true
	fn()
	p.untimed = false
}

// hostRate combines the passes' run times into simulated lookups per host
// second: each run label's fastest time over the passes, summed over labels,
// divides the lookups of one pass. Other work on a shared host only ever
// slows a run down, and it does so for seconds at a time, so the fastest of
// many short runs estimates the program's own cost far more steadily than
// their median: across eight serve-chaos processes the spread was 13%
// against 23%. It also returns the number of timed runs it summarises.
func hostRate(passes []*pass) (rate float64, runs int) {
	if len(passes) == 0 {
		return 0, 0
	}
	var lookups int
	var secs float64
	for label, first := range passes[0].runs {
		fastest := first.d
		for _, p := range passes {
			fastest = min(fastest, p.runs[label].d)
		}
		lookups += first.lookups
		secs += fastest.Seconds()
		runs += len(passes)
	}
	return ratio(float64(lookups), secs), runs
}

// allocs counts the heap allocations fn makes; it reads runtime statistics
// twice, so it is used in traced passes only.
func allocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// check counts one operation and records a failure when ok is false.
func (p *pass) check(ok bool, format string, args ...any) {
	p.ops++
	if !ok {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// hash folds simulated results into the pass digest. %#v prints every field
// and ignores String methods, which print summaries. Values must not hold
// pointers: fmt would print their addresses.
func (p *pass) hash(vs ...any) {
	for _, v := range vs {
		fmt.Fprintf(p.digest, "%#v|", v)
	}
}

// setupClock times the named steps of a workload's set-up. Reference oracles
// run outside it, so setup_s is what a user of the library pays.
type setupClock struct {
	spans *spanLog
	steps map[string]float64 // per-layer set-up metric name -> seconds
}

// step runs fn as the set-up step that the per-layer metric name measures.
func (s *setupClock) step(name, layer string, fn func()) {
	s.spans.begin(name, layer, nil)
	start := time.Now()
	fn()
	s.steps[name] += time.Since(start).Seconds()
	s.spans.end()
}

// median returns the median of vs (0 for none).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of vs by the exclusive
// method of Python's statistics.quantiles(vs, n=4), so spreads printed here
// match spreads computed from the same values elsewhere.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// hostRefNs times a fixed pure-Go pointer chase that touches none of the
// program's code: ns per step, median of five repetitions. It moves only when
// the host does, so it explains host-time drift between two sets of runs.
func hostRefNs() float64 {
	const n = 1 << 20
	const steps = 1 << 19
	next := make([]uint32, n)
	perm := rand.New(rand.NewPCG(1, 2)).Perm(n)
	for i := range perm {
		next[perm[i]] = uint32(perm[(i+1)%n])
	}
	var reps []float64
	var at uint32
	for r := 0; r < 5; r++ {
		start := time.Now()
		for i := 0; i < steps; i++ {
			at = next[at]
		}
		reps = append(reps, float64(time.Since(start).Nanoseconds())/steps)
	}
	runtime.KeepAlive(at)
	return median(reps)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
