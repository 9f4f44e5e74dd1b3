package experiments

import (
	"fmt"
	"sync"

	"amac/internal/ops"
	"amac/internal/relation"
	"amac/internal/serve"
)

// Workload construction is seed-deterministic: a spec always generates the
// same relations, and materializing a probe-only workload performs the same
// arena allocation sequence, so the resulting address-space image — table
// layout, input arrays, output buffer address — is byte-identical every
// time. The sweeps exploit that: instead of regenerating the workload at
// every sweep point (figure 6 alone would otherwise build the same join 32
// times), each distinct workload is built once and reused, which is what
// makes paper-scale sweeps (10^6–10^8 tuples) tractable.
//
// Caching happens at two levels with different sharing rules:
//
//   - Generated relations and arrival schedules are plain Go data that
//     nothing ever mutates, so one process-wide copy serves every sweep
//     worker concurrently. Their caches are per-key sync.Once builds
//     (onceCache): under a parallel sweep the first worker to need a key
//     builds it while the others wait, and after publication access is
//     lock-free read-only.
//   - Materialized arena-backed workloads are NOT shareable across
//     goroutines: a measured run writes the arena image even when it
//     treats its probed structure as read-only, because output collectors,
//     pipes and latches live in the arena. They live in a workloadSet, of
//     which each sweep worker owns one (see runSweep). Deterministic
//     construction makes every worker's copy byte-identical in the
//     simulated address space, which is why a parallel sweep reproduces the
//     serial results bit for bit.
//
// Only workloads the measured phase treats as read-only are cached whole
// (probe-only joins, BST search, pre-built skip list search, serving joins);
// phases that mutate their structure (hash build, group-by, skip list
// insert) cache just the generated relations and re-materialize fresh.
// Either way a run observes exactly the state a fresh construction would
// have produced, so simulated results are bit-identical to the uncached
// path — the golden cycle-count tests enforce this.

// fifoCache is a small insertion-ordered cache: sweeps revisit a handful of
// specs, and the cap keeps a long `-exp all` session from pinning every
// workload it ever built.
type fifoCache[K comparable, V any] struct {
	entries map[K]V
	order   []K
	cap     int
}

func newFIFOCache[K comparable, V any](cap int) *fifoCache[K, V] {
	return &fifoCache[K, V]{entries: make(map[K]V), cap: cap}
}

func (c *fifoCache[K, V]) get(k K, build func() V) V {
	if v, ok := c.entries[k]; ok {
		return v
	}
	v := build()
	if len(c.order) >= c.cap {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
	c.entries[k] = v
	c.order = append(c.order, k)
	return v
}

// onceCache is a concurrency-safe cache for immutable values: each key is
// built exactly once (concurrent first requests for the same key block on
// one build) and is read-only after publication. Eviction follows the same
// FIFO rule as fifoCache; a builder holding an evicted entry simply
// completes against garbage-collected state.
type onceCache[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*onceEntry[V]
	order   []K
	cap     int
}

type onceEntry[V any] struct {
	once sync.Once
	v    V
}

func newOnceCache[K comparable, V any](cap int) *onceCache[K, V] {
	return &onceCache[K, V]{entries: make(map[K]*onceEntry[V]), cap: cap}
}

func (c *onceCache[K, V]) get(k K, build func() V) V {
	c.mu.Lock()
	e, ok := c.entries[k]
	if !ok {
		e = &onceEntry[V]{}
		if len(c.order) >= c.cap {
			delete(c.entries, c.order[0])
			c.order = c.order[1:]
		}
		c.entries[k] = e
		c.order = append(c.order, k)
	}
	c.mu.Unlock()
	e.once.Do(func() { e.v = build() })
	return e.v
}

type relPair struct{ build, probe *relation.Relation }

type joinKey struct {
	spec    relation.JoinSpec
	buckets int
}

type indexKey struct {
	n    int
	seed uint64
}

type arrivalKey struct {
	process string
	period  float64
	n       int
	seed    uint64
}

// probeJoin is a materialized probe-only join plus the output collector that
// was allocated right after it, preserving the fresh-construction layout.
type probeJoin struct {
	j   *ops.HashJoin
	out *ops.Output
}

// indexWorkload is a materialized read-only index-search workload (BST or
// pre-built skip list) plus its output collector.
type indexWorkload[W any] struct {
	w   W
	out *ops.Output
}

// shared holds the process-wide caches of immutable, goroutine-safe data:
// generated relations and arrival schedules.
var shared = struct {
	joins    *onceCache[relation.JoinSpec, relPair]
	groups   *onceCache[relation.GroupBySpec, *relation.Relation]
	index    *onceCache[indexKey, relPair]
	arrivals *onceCache[arrivalKey, []uint64]
}{
	joins:    newOnceCache[relation.JoinSpec, relPair](16),
	groups:   newOnceCache[relation.GroupBySpec, *relation.Relation](8),
	index:    newOnceCache[indexKey, relPair](8),
	arrivals: newOnceCache[arrivalKey, []uint64](32),
}

// cachedJoinRelations returns the generated (immutable) relations for spec.
// Safe for concurrent use.
func cachedJoinRelations(spec relation.JoinSpec) (build, probe *relation.Relation) {
	p := shared.joins.get(spec, func() relPair {
		b, pr, err := relation.BuildJoin(spec)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		return relPair{b, pr}
	})
	return p.build, p.probe
}

// cachedGroupByRelation returns the generated group-by input; the table is
// re-materialized per run because aggregation mutates it. Safe for
// concurrent use.
func cachedGroupByRelation(spec relation.GroupBySpec) *relation.Relation {
	return shared.groups.get(spec, func() *relation.Relation {
		rel, err := relation.BuildGroupBy(spec)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		return rel
	})
}

// cachedIndexRelations returns the generated index build/probe relations.
// Safe for concurrent use.
func cachedIndexRelations(n int, seed uint64) (build, probe *relation.Relation) {
	p := shared.index.get(indexKey{n, seed}, func() relPair {
		b, pr, err := relation.BuildIndexWorkload(n, seed)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		return relPair{b, pr}
	})
	return p.build, p.probe
}

// cachedArrivalSchedule returns the arrival schedule of the named process at
// the given mean period, built once per (process, rate, length, seed) so a
// load sweep constructs each open-loop schedule a single time no matter how
// many techniques replay it. The schedule is immutable; safe for concurrent
// use.
func cachedArrivalSchedule(process string, period float64, n int, seed uint64) []uint64 {
	return shared.arrivals.get(arrivalKey{process, period, n, seed}, func() []uint64 {
		proc, err := serve.ParseArrivals(process, period)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		return proc.Schedule(n, seed)
	})
}

// workloadSet holds materialized arena-backed workloads. A workloadSet is
// confined to one goroutine at a time — each parallel sweep worker owns a
// private set (see runSweep), and the process-wide defaultWorkloads set
// serves serial execution — because every run writes its workload's arena
// (output collectors, pipes and latches live there), and an arena written
// by one goroutine cannot be used by another. The mutex only guards against accidental cross-test
// overlap on the default set; it does not make concurrent simulation on one
// set safe.
type workloadSet struct {
	mu     sync.Mutex
	probes *fifoCache[joinKey, probeJoin]
	bsts   *fifoCache[indexKey, indexWorkload[*ops.BSTWorkload]]
	skips  *fifoCache[indexKey, indexWorkload[*ops.SkipListWorkload]]
	serves *fifoCache[servingKey, *servingJoin]
	faults *fifoCache[faultKey, *faultJoin]
	adapts *fifoCache[adaptKey, adaptExec]
	pipes  *fifoCache[pipeKey, *pipeWorkload]
}

func newWorkloadSet() *workloadSet {
	return &workloadSet{
		probes: newFIFOCache[joinKey, probeJoin](8),
		bsts:   newFIFOCache[indexKey, indexWorkload[*ops.BSTWorkload]](4),
		skips:  newFIFOCache[indexKey, indexWorkload[*ops.SkipListWorkload]](4),
		serves: newFIFOCache[servingKey, *servingJoin](2),
		faults: newFIFOCache[faultKey, *faultJoin](1),
		adapts: newFIFOCache[adaptKey, adaptExec](4),
		pipes:  newFIFOCache[pipeKey, *pipeWorkload](4),
	}
}

// defaultWorkloads serves serial execution and sweep worker 0, so a serial
// run and the first parallel worker reuse whatever earlier experiments in
// the same process already built.
var defaultWorkloads = newWorkloadSet()

// probeJoin returns a materialized probe-only join (table pre-built raw) and
// its output collector, reset for a fresh measured run. The probe machines
// never mutate the table or inputs, so reuse within the owning goroutine is
// read-only.
func (ws *workloadSet) probeJoin(spec relation.JoinSpec, buckets int) (*ops.HashJoin, *ops.Output) {
	build, probe := cachedJoinRelations(spec)
	ws.mu.Lock()
	defer ws.mu.Unlock()
	e := ws.probes.get(joinKey{spec, buckets}, func() probeJoin {
		var j *ops.HashJoin
		if buckets > 0 {
			j = ops.NewHashJoinWithBuckets(build, probe, buckets)
		} else {
			j = ops.NewHashJoin(build, probe)
		}
		j.PrebuildRaw()
		// Allocated after PrebuildRaw, exactly as a fresh run would.
		return probeJoin{j: j, out: ops.NewOutput(j.Arena, false)}
	})
	e.out.Reset()
	return e.j, e.out
}

// bstWorkload returns a materialized tree-search workload; searches never
// mutate the tree.
func (ws *workloadSet) bstWorkload(n int, seed uint64) (*ops.BSTWorkload, *ops.Output) {
	build, probe := cachedIndexRelations(n, seed)
	ws.mu.Lock()
	defer ws.mu.Unlock()
	e := ws.bsts.get(indexKey{n, seed}, func() indexWorkload[*ops.BSTWorkload] {
		w := ops.NewBSTWorkload(build, probe)
		return indexWorkload[*ops.BSTWorkload]{w: w, out: ops.NewOutput(w.Arena, false)}
	})
	e.out.Reset()
	return e.w, e.out
}

// skipListSearch returns a materialized, pre-built skip list search
// workload; searches never mutate the list.
func (ws *workloadSet) skipListSearch(n int, seed uint64) (*ops.SkipListWorkload, *ops.Output) {
	build, probe := cachedIndexRelations(n, seed)
	ws.mu.Lock()
	defer ws.mu.Unlock()
	e := ws.skips.get(indexKey{n, seed}, func() indexWorkload[*ops.SkipListWorkload] {
		w := ops.NewSkipListWorkload(build, probe)
		w.PrebuildRaw(seed)
		return indexWorkload[*ops.SkipListWorkload]{w: w, out: ops.NewOutput(w.Arena, false)}
	})
	e.out.Reset()
	return e.w, e.out
}

// cachedProbeJoin, cachedBSTWorkload and cachedSkipListSearch are the
// serial-path entry points over the default set, used by code that runs
// outside a sweep (the benchmark suite, tests).
func cachedProbeJoin(spec relation.JoinSpec, buckets int) (*ops.HashJoin, *ops.Output) {
	return defaultWorkloads.probeJoin(spec, buckets)
}

func cachedBSTWorkload(n int, seed uint64) (*ops.BSTWorkload, *ops.Output) {
	return defaultWorkloads.bstWorkload(n, seed)
}

func cachedSkipListSearch(n int, seed uint64) (*ops.SkipListWorkload, *ops.Output) {
	return defaultWorkloads.skipListSearch(n, seed)
}
