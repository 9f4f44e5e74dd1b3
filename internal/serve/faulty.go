package serve

import (
	"fmt"
	"sync"

	"amac/internal/adapt"
	"amac/internal/core"
	"amac/internal/exec"
	"amac/internal/fault"
	"amac/internal/memsim"
	"amac/internal/obs"
	"amac/internal/ops"
)

// FaultyOptions configures a fault-injected service run: the plain serving
// options plus a chaos schedule, per-request deadlines and the recovery
// policies layered on top of the shards.
type FaultyOptions struct {
	Options

	// Faults is the chaos schedule applied on the simulated clock (nil =
	// none). Slow episodes inflate the shard's off-chip latency, Freeze
	// pauses it, Crash aborts its in-flight and queued work and restarts it
	// with cold private caches, Spike compresses its arrival schedule.
	Faults *fault.Schedule

	// Deadline is the per-request cycle budget from arrival, enforced both
	// in the queue (expired entries are resolved at pop) and in flight
	// (the engine closes and drains the slot). Zero disables deadlines.
	Deadline uint64

	// Retry re-enqueues a request whose last live copy timed out or was
	// crash-dropped, with capped exponential backoff.
	Retry fault.RetryPolicy

	// Hedge dispatches a duplicate of a request still unresolved Delay
	// cycles after arrival to a healthy sibling shard; the first completion
	// wins and the loser is absorbed.
	Hedge fault.HedgePolicy

	// Breaker, when non-nil, gives every shard a circuit breaker fed each
	// round with the shard's copy outcomes; an open breaker redirects the
	// shard's arrivals to healthy siblings until probes succeed.
	Breaker *fault.BreakerConfig

	// Sched maps each worker's schedule positions to machine lookup
	// indices. Required whenever a recovery policy (retry, hedge, breaker)
	// is enabled: every worker's schedule must land in one shared index
	// space over replicated machines, with no index on two home shards, so
	// a request keeps its identity when a sibling serves it. Nil keeps the
	// per-worker identity mapping (valid only for unrouted runs).
	Sched [][]int32
}

// routed reports whether any cross-shard recovery policy is active.
func (o *FaultyOptions) routed() bool {
	return o.Retry.Enabled() || o.Hedge.Enabled() || o.Breaker != nil
}

// FaultInfo summarises a run's fault activity for one shard (or merged).
type FaultInfo struct {
	// Episodes is the number of fault episodes applied.
	Episodes int
	// MaxShedLevel is the highest brownout shed level reached.
	MaxShedLevel int
	// Breaker holds every circuit-breaker state transition, in cycle order
	// per shard; Transition carries the shard.
	Breaker []fault.Transition
}

// Merge folds another shard's fault summary into f.
func (f *FaultInfo) Merge(o *FaultInfo) {
	f.Episodes += o.Episodes
	if o.MaxShedLevel > f.MaxShedLevel {
		f.MaxShedLevel = o.MaxShedLevel
	}
	f.Breaker = append(f.Breaker, o.Breaker...)
}

// reqStatus is a routed request's lifecycle position.
type reqStatus uint8

const (
	reqUnseen reqStatus = iota
	reqPending
	reqServed
	reqDead
)

// reqState is the router's per-request record, indexed by machine lookup
// index (the request's global identity across replicas).
type reqState struct {
	status  reqStatus
	home    int16
	copies  int16 // live dispatches: queued or in flight anywhere
	attempt uint8
	hedged  bool
}

// router owns cross-shard recovery for a faulty service run: per-request
// copy tracking with first-completion-wins dedup, hedged re-dispatch,
// breaker-driven rerouting and retry re-enqueues. It is host-side policy
// state touched only from the coordinator goroutine, so every decision is
// deterministic for a fixed configuration.
type router struct {
	retry    fault.RetryPolicy
	hedge    fault.HedgePolicy
	breakers []*fault.Breaker // nil when breakers are disabled

	recs   []*Recorder
	trs    []*obs.CoreTrace
	down   []bool
	inject []func(extra)

	reqs        []reqState
	outstanding int

	// Per-round copy outcomes per executing shard, feeding the breakers.
	roundDone []int
	roundDead []int

	// Hedge scanning walks each home shard's arrival schedule directly, so
	// requests bound for a frozen or crashed shard are hedged even though
	// the shard never admitted them.
	scheds   [][]uint64
	schedIdx [][]int32
	hedgeCur []int
}

// state returns the request's record.
func (r *router) state(idx int32) *reqState { return &r.reqs[idx] }

// ensure registers the request under its home shard on first sight.
func (r *router) ensure(idx int32, home int) *reqState {
	st := &r.reqs[idx]
	if st.status == reqUnseen {
		st.status = reqPending
		st.home = int16(home)
	}
	return st
}

// pendingOrNew reports whether the request is still unresolved.
func (r *router) pendingOrNew(idx int32) bool {
	return r.reqs[idx].status <= reqPending
}

// healthy reports whether a shard can take traffic right now.
func (r *router) healthy(w int) bool {
	if r.down[w] {
		return false
	}
	if r.breakers != nil && r.breakers[w] != nil && r.breakers[w].State() != fault.StateClosed {
		return false
	}
	return true
}

// healthySibling picks a healthy shard other than home, rotating the start
// by the request index so recovered traffic spreads across siblings.
func (r *router) healthySibling(home int, idx int32) int {
	n := len(r.inject)
	if n <= 1 {
		return -1
	}
	start := int(uint32(idx)) % (n - 1)
	for d := 0; d < n-1; d++ {
		cand := (home + 1 + (start+d)%(n-1)) % n
		if cand != home && r.healthy(cand) {
			return cand
		}
	}
	return -1
}

// redirect is the breaker check at a home shard's admission: true means the
// arrival was dispatched to a healthy sibling instead.
func (r *router) redirect(home int, idx int32, arrival uint64) bool {
	st := r.ensure(idx, home)
	if st.status != reqPending {
		return false
	}
	if r.breakers == nil {
		return false
	}
	b := r.breakers[home]
	if b == nil || b.Admit() {
		return false
	}
	target := r.healthySibling(home, idx)
	if target < 0 {
		return false // nowhere healthier: admit locally and hope
	}
	st.copies++
	r.inject[target](extra{idx: idx, arrival: arrival, ready: arrival})
	r.trs[home].Reroute(arrival, int(idx), target)
	return true
}

// onAdmit notes a base arrival queued locally at its home shard.
func (r *router) onAdmit(home int, idx int32) {
	st := r.ensure(idx, home)
	if st.status == reqPending {
		st.copies++
	}
}

// onShed resolves a request rejected by the brownout at admission.
func (r *router) onShed(home int, idx int32) {
	st := r.ensure(idx, home)
	if st.status == reqPending {
		st.status = reqDead
		r.outstanding--
	}
}

// onDrop resolves a request rejected by a full Drop-policy queue.
func (r *router) onDrop(home int, idx int32) {
	r.onShed(home, idx)
}

// onCopyDead handles one dispatched copy dying at the executing shard — a
// queue-side deadline expiry, an in-flight timeout, or a crash drop. When it
// was the request's last live copy, the retry policy either re-enqueues the
// request (capped exponential backoff, preferring the healthy home) or the
// request is finally lost.
func (r *router) onCopyDead(shard int, idx int32, arrival, at uint64, kind exec.FailKind) {
	r.roundDead[shard]++
	st := r.state(idx)
	if st.status != reqPending {
		return
	}
	if st.copies > 0 {
		st.copies--
	}
	if st.copies > 0 {
		return // a sibling copy is still live
	}
	home := int(st.home)
	if r.retry.Enabled() && int(st.attempt) < r.retry.Max {
		st.attempt++
		st.copies++
		target := home
		if !r.healthy(home) {
			if s := r.healthySibling(home, idx); s >= 0 {
				target = s
			}
		}
		ready := at + r.retry.Delay(int(st.attempt))
		r.inject[target](extra{idx: idx, attempt: st.attempt, arrival: arrival, ready: ready})
		r.recs[home].Retried++
		r.trs[home].Requeue(at, int(idx), int(st.attempt))
		return
	}
	st.status = reqDead
	r.outstanding--
	if kind == exec.FailCrash {
		r.recs[home].Failed++
	} else {
		r.recs[home].TimedOut++
	}
}

// onComplete handles a completion at the executing shard; it reports whether
// this completion is the request's first (and should be recorded).
func (r *router) onComplete(shard int, idx int32) bool {
	r.roundDone[shard]++
	st := r.state(idx)
	if st.copies > 0 {
		st.copies--
	}
	if st.status != reqPending {
		if st.hedged {
			r.recs[st.home].HedgeWaste++
		}
		return false
	}
	st.status = reqServed
	r.outstanding--
	if st.hedged && shard != int(st.home) {
		r.recs[st.home].HedgeWins++
	}
	return true
}

// hedgeScan fires hedge duplicates at a round boundary: every scheduled
// request older than the hedge delay and still unresolved gets one duplicate
// on a healthy sibling.
func (r *router) hedgeScan(t uint64) {
	if !r.hedge.Enabled() {
		return
	}
	for home := range r.scheds {
		sched := r.scheds[home]
		cur := r.hedgeCur[home]
		for cur < len(sched) && sched[cur]+r.hedge.Delay <= t {
			arrival := sched[cur]
			idx := int32(cur)
			if r.schedIdx[home] != nil {
				idx = r.schedIdx[home][cur]
			}
			cur++
			st := r.ensure(idx, home)
			if st.status != reqPending || st.hedged {
				continue
			}
			target := r.healthySibling(home, idx)
			if target < 0 {
				continue
			}
			st.hedged = true
			st.copies++
			r.inject[target](extra{idx: idx, arrival: arrival, ready: t})
			r.recs[home].Hedged++
			r.trs[home].Hedge(t, int(idx), target)
		}
		r.hedgeCur[home] = cur
	}
}

// breakerRound feeds every breaker the round's copy outcomes and traces the
// resulting transitions.
func (r *router) breakerRound(t uint64) {
	if r.breakers == nil {
		return
	}
	for w, b := range r.breakers {
		before := len(b.Transitions())
		b.Observe(t, r.roundDone[w], r.roundDead[w])
		r.roundDone[w], r.roundDead[w] = 0, 0
		for _, tr := range b.Transitions()[before:] {
			r.trs[w].Breaker(t, int(tr.From), int(tr.To))
		}
	}
}

// roundCycles is the coordinator's round length in simulated cycles when
// something ticks at round edges: fault boundaries, hedging, breakers and a
// routed brownout apply every roundCycles cycles.
const roundCycles = 4096

// RunFaulty executes the sharded streaming service, optionally under
// deterministic fault injection and recovery policies. It is the package's
// one shard coordinator: every worker serves its own machine from its own
// queue-fed source on a private core, and the coordinator steps the shards
// in rounds of the simulated clock, so the chaos timeline, deadlines,
// hedging, breakers and brownout apply at identical simulated instants on
// every execution. Rounds exist only when something ticks at their edges —
// a fault schedule or a router (retry, hedge or breaker); otherwise the run
// is one round to the end of the stream. Pausing an engine at a round edge
// charges nothing simulated, so the round length never changes a result.
//
// The shards of a round run concurrently on goroutines unless a router
// couples them (it injects recovery traffic across shards mid-round), in
// which case they run in shard order. Either way the result is
// deterministic, because concurrent shards share nothing mutable.
//
// The socket models are recycled (memsim.AcquireSystem), so a load sweep
// reuses one System+Core pair per worker instead of rebuilding megabytes of
// cache metadata per point; a recycled pair is reset to exactly the
// fresh-construction state, so results are bit-identical either way.
//
// Faults, deadlines and recovery policies require the AMAC engine
// (timed-out and aborted slots reuse its shrink-drain machinery) and a
// non-adaptive configuration.
func RunFaulty[S any](opts FaultyOptions, workers []Worker[S]) Result {
	n := len(workers)
	if n == 0 {
		return Result{}
	}
	routed := opts.routed()
	if opts.Faults != nil || opts.Deadline != 0 || routed {
		if opts.Technique != ops.AMAC {
			panic("serve: faults, deadlines and recovery policies require the AMAC engine")
		}
		if opts.Adaptive != nil {
			panic("serve: faults, deadlines and recovery policies do not support adaptive control")
		}
	}
	if routed && opts.Sched == nil {
		panic("serve: recovery policies need a Sched map into a shared index space")
	}
	rounds := routed || opts.Faults != nil

	// Per-shard chaos timelines; spikes are pre-applied to the arrival
	// schedules (compression toward the episode start: a burst then a lull,
	// same total load).
	arr := make([][]uint64, n)
	timelines := make([]*fault.Timeline, n)
	for w := 0; w < n; w++ {
		eps := opts.Faults.ForShard(w)
		arr[w] = fault.ApplySpikes(workers[w].Arrivals, eps)
		timelines[w] = fault.NewTimeline(eps)
	}

	pooled := make([]*memsim.PooledSystem, n)
	cores := make([]*memsim.Core, n)
	sources := make([]*QueueSource[S], n)
	atts := make([]obs.Attached, n)
	trs := make([]*obs.CoreTrace, n)
	lws := make([]*obs.LatencyWindow, n)
	brown := make([]*fault.Brownout, n)
	sinks := obs.Sinks{Trace: opts.Trace, Metrics: opts.Metrics, Profile: opts.Profile}
	shared := opts.Hardware.ShareLLC(n)
	for w := 0; w < n; w++ {
		pooled[w] = memsim.AcquireSystem(shared)
		cores[w] = pooled[w].Core
		pooled[w].Sys.SetActiveThreads(n, cores[w])
		if opts.Prepare != nil {
			opts.Prepare(w, cores[w])
		}
		cores[w].ResetStats()
		// Cores attach here, in worker order on one goroutine, so the
		// exported layout is deterministic regardless of the goroutine
		// schedule.
		atts[w] = sinks.Attach(cores[w], fmt.Sprintf("worker %d", w))
		trs[w] = atts[w].Trace
		sources[w] = NewQueueSource(workers[w].Machine, arr[w], opts.QueueCap, opts.Policy, nil)
		sources[w].SetTrace(trs[w])
		if opts.Metrics != nil || opts.SLO.Enabled() {
			lws[w] = obs.NewLatencyWindow(0)
			sources[w].SetLatencyWindow(lws[w])
		}
		if opts.SLO.Enabled() {
			brown[w] = fault.NewBrownout(opts.SLO)
			sources[w].SetBrownout(brown[w])
		}
		sources[w].SetDeadline(opts.Deadline)
		if opts.Sched != nil {
			sources[w].SetSchedule(opts.Sched[w])
		}
		if cm := atts[w].Metrics; cm != nil {
			src, lw := sources[w], lws[w]
			cm.Gauge("queue_depth", func() float64 { return float64(src.Depth()) })
			cm.Gauge("p99_window", func() float64 { return float64(lw.Quantile(0.99)) })
		}
	}

	down := make([]bool, n)
	var r *router
	if routed {
		r = &router{
			retry:     opts.Retry,
			hedge:     opts.Hedge,
			recs:      make([]*Recorder, n),
			trs:       trs,
			down:      down,
			inject:    make([]func(extra), n),
			scheds:    arr,
			schedIdx:  opts.Sched,
			hedgeCur:  make([]int, n),
			roundDone: make([]int, n),
			roundDead: make([]int, n),
		}
		if opts.Breaker != nil {
			r.breakers = make([]*fault.Breaker, n)
			for w := range r.breakers {
				r.breakers[w] = fault.NewBreaker(w, *opts.Breaker)
			}
		}
		total := 0
		for w := 0; w < n; w++ {
			r.recs[w] = sources[w].Recorder()
			src := sources[w]
			r.inject[w] = func(e extra) { src.inject(e) }
			r.outstanding += len(arr[w])
			for _, idx := range opts.Sched[w][:len(arr[w])] {
				if int(idx) >= total {
					total = int(idx) + 1
				}
			}
			sources[w].bind(r, w)
		}
		r.reqs = make([]reqState, total)
	}

	// One shard step runs a shard up to the round edge. AMAC runs as a
	// resumable engine; the batch-boundary engines and adaptive control only
	// ever see one-round runs, so they run to the end of the stream.
	sched := make([]core.RunStats, n)
	engDone := make([]bool, n)
	var engines []*core.StreamEngine[S]
	var ctls []*adapt.Controller
	switch {
	case opts.Adaptive != nil:
		ctls = make([]*adapt.Controller, n)
		for w := range ctls {
			ctls[w] = adapt.NewController(*opts.Adaptive)
			ctls[w].SetTrace(trs[w])
			if b := brown[w]; b != nil {
				ctls[w].SetTailBias(func() bool { return b.Level() > 0 })
			}
		}
	case opts.Technique == ops.AMAC:
		engines = make([]*core.StreamEngine[S], n)
		for w := range engines {
			engines[w] = core.NewStreamEngine(cores[w], sources[w],
				core.Options{Width: opts.Window, Trace: trs[w], Deadline: opts.Deadline})
		}
	}
	step := func(w int, t uint64) {
		switch {
		case ctls != nil:
			sched[w] = adapt.RunStream(cores[w], sources[w], ctls[w], sources[w].Depth)
			engDone[w] = true
		case engines != nil:
			sources[w].setHorizon(t)
			engDone[w] = engines[w].Run(t)
		default:
			sched[w] = ops.RunSource(cores[w], sources[w], opts.Technique,
				core.Options{Width: opts.Window, Trace: trs[w]})
			engDone[w] = true
		}
	}

	downUntil := make([]uint64, n)
	infos := make([]FaultInfo, n)
	closed := false

	baseLat := cores[0].MemLatency()
	var wg sync.WaitGroup
	for {
		allDone := true
		for w := 0; w < n; w++ {
			if !engDone[w] {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
		// With nothing ticking at round edges the run is one round; once a
		// routed run is resolved, the engines drain unbounded.
		t := ^uint64(0)
		if rounds && !closed {
			t = nextRoundEdge(cores)
		}
		// Fault boundaries first, in shard order, then thaw.
		for w := 0; w < n; w++ {
			w := w
			timelines[w].Advance(t, func(ep fault.Episode, begin bool) {
				switch ep.Kind {
				case fault.Slow:
					if begin {
						infos[w].Episodes++
						scaled := uint64(float64(baseLat) * ep.Factor)
						cores[w].SetMemLatency(scaled)
						trs[w].Fault(ep.Start, ep.Dur, int(ep.Kind), int64(ep.Factor*1000))
					} else {
						cores[w].SetMemLatency(0)
					}
				case fault.Freeze:
					if begin {
						infos[w].Episodes++
						down[w] = true
						downUntil[w] = ep.End()
						trs[w].Fault(ep.Start, ep.Dur, int(ep.Kind), 1000)
					}
				case fault.Crash:
					if begin {
						infos[w].Episodes++
						engines[w].Abort()
						sources[w].failQueued(cores[w].Cycle())
						cores[w].FlushPrivate()
						down[w] = true
						downUntil[w] = ep.End()
						trs[w].Fault(ep.Start, ep.Dur, int(ep.Kind), 1000)
					}
				case fault.Spike:
					if begin {
						infos[w].Episodes++
						trs[w].Fault(ep.Start, ep.Dur, int(ep.Kind), int64(ep.Factor*1000))
					}
				}
			})
			if down[w] && downUntil[w] <= t {
				down[w] = false
				if !engDone[w] && cores[w].Cycle() < downUntil[w] {
					// The shard did nothing while down; its clock jumps to
					// the episode end as pure idle time, charged under the
					// "down" frame to keep it apart from queue idle.
					p := cores[w].Profiler()
					p.Push(p.Frame("down"))
					cores[w].AdvanceTo(downUntil[w])
					p.Pop()
				}
			}
		}
		// Run every live shard up to the round edge: in shard order when a
		// router couples them, otherwise concurrently.
		for w := 0; w < n; w++ {
			if engDone[w] || down[w] {
				continue
			}
			if r != nil {
				step(w, t)
				continue
			}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				step(w, t)
			}(w)
		}
		wg.Wait()
		// Recovery policies and the brownout tick at the round edge. After
		// close every request is resolved, so the unbounded drain round has
		// nothing to route — ticking it would only stamp sentinel-time
		// transitions into the breaker log. An unrouted run's queues observe
		// their own brownouts as requests arrive.
		if r != nil && !closed {
			r.hedgeScan(t)
			r.breakerRound(t)
		}
		if r != nil {
			for w, b := range brown {
				if b == nil {
					continue
				}
				if lvl, changed := b.Observe(lws[w].Quantile(0.99)); changed {
					trs[w].Brownout(t, lvl)
				}
			}
		}
		if r != nil && !closed && r.outstanding == 0 {
			scheduled := true
			for w := 0; w < n; w++ {
				if !sources[w].scheduleDone() {
					scheduled = false
					break
				}
			}
			if scheduled {
				closed = true
				for w := 0; w < n; w++ {
					sources[w].closeRouted()
				}
			}
		}
	}

	res := Result{Faults: &FaultInfo{}}
	if ctls != nil {
		res.Adapt = &adapt.Info{}
	}
	perStats := make([]memsim.Stats, n)
	for w := 0; w < n; w++ {
		if engines != nil {
			sched[w] = engines[w].Stats()
			engines[w].Close()
		}
		perStats[w] = cores[w].Stats()
	}
	res.Stats = memsim.MergeParallel(perStats)
	res.Sched = core.MergeRunStats(sched)
	for w := 0; w < n; w++ {
		if r != nil && r.breakers != nil {
			infos[w].Breaker = append(infos[w].Breaker, r.breakers[w].Transitions()...)
		}
		if brown[w] != nil {
			infos[w].MaxShedLevel = brown[w].MaxLevel()
		}
		info := infos[w]
		wr := WorkerResult{
			Stats:   perStats[w],
			Latency: sources[w].Recorder(),
			Sched:   sched[w],
			Faults:  &info,
		}
		if ctls != nil {
			ai := ctls[w].Info()
			wr.Adapt = &ai
			res.Adapt.Merge(ai)
		}
		res.PerWorker = append(res.PerWorker, wr)
		res.Latency.Merge(sources[w].Recorder())
		res.Faults.Merge(&info)
		sources[w].Close()
		atts[w].Detach() // pooled core: never leak a hook or profiler past the run
		pooled[w].Release()
	}
	return res
}

// nextRoundEdge picks the next round edge: one round past the most advanced
// core (so rounds always make progress even after long idle jumps).
func nextRoundEdge(cores []*memsim.Core) uint64 {
	var maxC uint64
	for _, c := range cores {
		if cy := c.Cycle(); cy > maxC {
			maxC = cy
		}
	}
	return (maxC/roundCycles + 1) * roundCycles
}
