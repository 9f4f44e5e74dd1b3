package serve_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"amac/internal/adapt"
	"amac/internal/core"
	"amac/internal/exec/exectest"
	"amac/internal/fault"
	"amac/internal/memsim"
	"amac/internal/ops"
	"amac/internal/serve"
)

// TestStreamEnginePauseResumeBitIdentical pins the resumable engine's core
// contract: running in arbitrary time slices is bit-identical to one
// uninterrupted run, because pauses happen between slot visits and charge
// nothing simulated.
func TestStreamEnginePauseResumeBitIdentical(t *testing.T) {
	const n = 200
	run := func(chunk uint64) (memsim.Stats, core.RunStats, serve.Recorder) {
		m := exectest.NewChainMachine(chainLengths(n, 3), 4)
		arrivals := serve.Deterministic{Period: 150}.Schedule(n, 1)
		src := serve.NewQueueSource[exectest.ChainState](m, arrivals, 0, serve.Block, nil)
		c := newCore()
		if chunk == 0 {
			core.RunStream(c, src, core.Options{Width: 6})
		} else {
			e := core.NewStreamEngine[exectest.ChainState](c, src, core.Options{Width: 6})
			for limit := chunk; !e.Run(limit); limit += chunk {
			}
			e.Close()
		}
		return c.Stats(), core.RunStats{}, *src.Recorder()
	}
	wantStats, _, wantRec := run(0)
	for _, chunk := range []uint64{97, 1000, 4096} {
		gotStats, _, gotRec := run(chunk)
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("chunk %d: stats diverged:\n got %+v\nwant %+v", chunk, gotStats, wantStats)
		}
		if !reflect.DeepEqual(gotRec, wantRec) {
			t.Fatalf("chunk %d: recorder diverged", chunk)
		}
	}
}

// TestStreamEngineDeadlineNoSlotLeak drives an engine with a deadline tight
// enough to expire requests both in the queue and in flight, and asserts the
// slot-leak invariant: every initiated request is accounted exactly once.
func TestStreamEngineDeadlineNoSlotLeak(t *testing.T) {
	const n = 150
	m := exectest.NewChainMachine(chainLengths(n, 6), 7)
	// Everything arrives at once: most of the backlog blows the deadline.
	src := serve.NewQueueSource[exectest.ChainState](m, make([]uint64, n), 0, serve.Block, nil)
	src.SetDeadline(3000)
	c := newCore()
	e := core.NewStreamEngine[exectest.ChainState](c, src, core.Options{Width: 4, Deadline: 3000})
	e.Run(^uint64(0))
	stats := e.Stats()
	e.Close()
	rec := src.Recorder()
	if stats.TimedOut == 0 {
		t.Fatal("expected in-flight deadline expiries")
	}
	if stats.Initiated != stats.Completed+stats.TimedOut+stats.Aborted {
		t.Fatalf("slot leak: initiated=%d completed=%d timedOut=%d aborted=%d",
			stats.Initiated, stats.Completed, stats.TimedOut, stats.Aborted)
	}
	if rec.Completed+rec.TimedOut != n {
		t.Fatalf("request leak: completed=%d timedOut=%d, want sum %d", rec.Completed, rec.TimedOut, n)
	}
	if rec.TimedOut == 0 || rec.Completed == 0 {
		t.Fatalf("want a mix of outcomes, got completed=%d timedOut=%d", rec.Completed, rec.TimedOut)
	}
}

// faultyWorkers builds W replica workers over one shared index space of n
// requests: worker w serves positions k -> index k*W+w at the given period.
func faultyWorkers(n, W int, period uint64, hops int) ([]serve.Worker[exectest.ChainState], [][]int32) {
	workers := make([]serve.Worker[exectest.ChainState], W)
	sched := make([][]int32, W)
	for w := 0; w < W; w++ {
		nw := n / W
		arrivals := serve.Deterministic{Period: period}.Schedule(nw, uint64(w+1))
		idx := make([]int32, nw)
		for k := 0; k < nw; k++ {
			idx[k] = int32(k*W + w)
		}
		workers[w] = serve.Worker[exectest.ChainState]{
			Machine:  exectest.NewChainMachine(chainLengths(n, hops), hops+1),
			Arrivals: arrivals,
		}
		sched[w] = idx
	}
	return workers, sched
}

// noopSlow returns a fault schedule of two Slow episodes per shard with
// Factor 1: they change no latency, but a fault schedule makes the
// coordinator step the shards in rounds instead of one run to the end.
func noopSlow(workers int) *fault.Schedule {
	var eps []fault.Episode
	for _, start := range []uint64{3000, 20000} {
		for w := 0; w < workers; w++ {
			eps = append(eps, fault.Episode{Kind: fault.Slow, Shard: w, Start: start, Dur: 9000, Factor: 1})
		}
	}
	return &fault.Schedule{Episodes: eps}
}

// sameRun fails the test unless two service runs agree on every simulated
// result: merged and per-worker core stats, latency recorders and AMAC
// scheduler stats.
func sameRun(t *testing.T, label string, got, want serve.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Fatalf("%s: stats diverged:\n got %+v\nwant %+v", label, got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Latency, want.Latency) {
		t.Fatalf("%s: latency recorders diverged:\n got %v\nwant %v", label, &got.Latency, &want.Latency)
	}
	if !reflect.DeepEqual(got.Sched, want.Sched) {
		t.Fatalf("%s: scheduler stats diverged:\n got %+v\nwant %+v", label, got.Sched, want.Sched)
	}
	for w := range want.PerWorker {
		if !reflect.DeepEqual(got.PerWorker[w].Stats, want.PerWorker[w].Stats) {
			t.Fatalf("%s: worker %d stats diverged", label, w)
		}
	}
}

// TestRunFaultyRoundsMatchOneRound pins the coordinator's cornerstone:
// stepping the shards in rounds is bit-identical to running them to the end
// in one round, because an engine paused at a round edge charges nothing.
// No-op Slow episodes force the rounds without changing any latency.
func TestRunFaultyRoundsMatchOneRound(t *testing.T) {
	build := func() []serve.Worker[exectest.ChainState] {
		ws, _ := faultyWorkers(160, 2, 400, 3)
		return ws
	}
	opts := serve.Options{
		Hardware:  memsim.XeonX5670(),
		Technique: ops.AMAC,
		Window:    6,
	}
	want := serve.RunFaulty(serve.FaultyOptions{Options: opts}, build())
	got := serve.RunFaulty(serve.FaultyOptions{Options: opts, Faults: noopSlow(2)}, build())
	sameRun(t, "rounds", got, want)
	if want.Faults == nil || want.Faults.Episodes != 0 {
		t.Fatalf("one-round faults summary = %+v, want zero episodes", want.Faults)
	}
	if got.Faults == nil || got.Faults.Episodes != 4 {
		t.Fatalf("rounds faults summary = %+v, want four episodes", got.Faults)
	}
}

// TestRunFaultySLOSheds pins that the serving options' SLO reaches the
// brownout of a fault-layer run: an overloaded shard with a tight budget
// sheds requests, exactly as many as plain Run sheds.
func TestRunFaultySLOSheds(t *testing.T) {
	const n = 1000
	build := func() []serve.Worker[exectest.ChainState] {
		return []serve.Worker[exectest.ChainState]{{
			Machine:  exectest.NewChainMachine(chainLengths(n, 5), 6),
			Arrivals: serve.Deterministic{Period: 40}.Schedule(n, 1),
		}}
	}
	opts := serve.Options{
		Hardware:  memsim.XeonX5670(),
		Technique: ops.AMAC,
		Window:    6,
		SLO:       fault.SLO{P99Budget: 500, Classes: 4, HoldRounds: 2},
	}
	res := serve.RunFaulty(serve.FaultyOptions{Options: opts}, build())
	if res.Latency.Shed == 0 {
		t.Fatal("an overloaded fault-layer run with an SLO must shed requests")
	}
	if res.Faults.MaxShedLevel == 0 {
		t.Fatalf("faults summary = %+v, want a nonzero shed level", res.Faults)
	}
	if plain := serve.Run(opts, build()); plain.Latency.Shed != res.Latency.Shed {
		t.Fatalf("shed %d, plain Run shed %d", res.Latency.Shed, plain.Latency.Shed)
	}
}

// TestRunFaultyUnroutedSLOMatchesRun pins the one brownout rule of an
// unrouted run: the queue observes the sliding p99 as requests arrive and
// the coordinator adds no observation at round edges, so a run stepped in
// rounds sheds exactly what a plain run with the same SLO sheds, from heavy
// overload down to light load.
func TestRunFaultyUnroutedSLOMatchesRun(t *testing.T) {
	const n, W = 1200, 2
	for _, period := range []uint64{20, 60, 120, 200} {
		build := func() []serve.Worker[exectest.ChainState] {
			ws, _ := faultyWorkers(n, W, period, 4)
			return ws
		}
		opts := serve.Options{
			Hardware:  memsim.XeonX5670(),
			Technique: ops.AMAC,
			Window:    6,
			SLO:       fault.SLO{P99Budget: 500, Classes: 4, HoldRounds: 2},
		}
		want := serve.Run(opts, build())
		got := serve.RunFaulty(serve.FaultyOptions{Options: opts, Faults: noopSlow(W)}, build())
		label := fmt.Sprintf("period %d", period)
		sameRun(t, label, got, want)
		if period == 20 && want.Latency.Shed == 0 {
			t.Fatalf("%s: overload should shed", label)
		}
	}
}

// TestRunFaultyPolicyPanics pins that faults, deadlines and recovery
// policies are refused for every engine but non-adaptive AMAC: timed-out and
// aborted slots need AMAC's shrink-drain machinery.
func TestRunFaultyPolicyPanics(t *testing.T) {
	engines := map[string]struct {
		opts serve.Options
		want string
	}{
		"Baseline": {serve.Options{Technique: ops.Baseline}, "AMAC engine"},
		"GP":       {serve.Options{Technique: ops.GP}, "AMAC engine"},
		"SPP":      {serve.Options{Technique: ops.SPP}, "AMAC engine"},
		"adaptive": {serve.Options{Technique: ops.AMAC, Adaptive: &adapt.Config{}}, "adaptive control"},
	}
	policies := map[string]serve.FaultyOptions{
		"deadline": {Deadline: 1000},
		"faults": {Faults: &fault.Schedule{Episodes: []fault.Episode{
			{Kind: fault.Slow, Shard: 0, Start: 1000, Dur: 1000, Factor: 2},
		}}},
		"retry": {Retry: fault.RetryPolicy{Max: 1, Backoff: 100}},
	}
	for ename, e := range engines {
		for pname, fo := range policies {
			t.Run(ename+"/"+pname, func(t *testing.T) {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, e.want) {
						t.Fatalf("panic %q, want one naming %q", msg, e.want)
					}
				}()
				ws, sched := faultyWorkers(8, 1, 100, 2)
				fo.Options = e.opts
				fo.Hardware = memsim.XeonX5670()
				fo.Sched = sched
				serve.RunFaulty(fo, ws)
			})
		}
	}
}

// TestRunFaultySlowShardRecovery injects a long 8x memory-latency episode on
// shard 0 and checks that deadlines, hedging and the breaker recover the
// traffic: every request is accounted exactly once, duplicates dedup, and
// the run is deterministic.
func TestRunFaultySlowShardRecovery(t *testing.T) {
	const n, W = 240, 3
	run := func() serve.Result {
		workers, sched := faultyWorkers(n, W, 500, 3)
		return serve.RunFaulty(serve.FaultyOptions{
			Options: serve.Options{
				Hardware:  memsim.XeonX5670(),
				Technique: ops.AMAC,
				Window:    6,
			},
			Faults: &fault.Schedule{Episodes: []fault.Episode{
				{Kind: fault.Slow, Shard: 0, Start: 4000, Dur: 30000, Factor: 8},
			}},
			Deadline: 2500,
			Retry:    fault.RetryPolicy{Max: 2, Backoff: 500},
			Hedge:    fault.HedgePolicy{Delay: 1500},
			Breaker:  &fault.BreakerConfig{Cooldown: 8192, MinSamples: 4, Alpha: 0.5},
			Sched:    sched,
		}, workers)
	}
	res := run()
	rec := res.Latency
	total := rec.Completed + rec.TimedOut + rec.Failed + rec.Shed + rec.Dropped
	if total != n {
		t.Fatalf("request accounting: completed=%d timedOut=%d failed=%d shed=%d dropped=%d, sum %d want %d",
			rec.Completed, rec.TimedOut, rec.Failed, rec.Shed, rec.Dropped, total, n)
	}
	if rec.Offered != n {
		t.Fatalf("offered=%d, want %d", rec.Offered, n)
	}
	if res.Sched.Initiated != res.Sched.Completed+res.Sched.TimedOut+res.Sched.Aborted {
		t.Fatalf("slot leak: %+v", res.Sched)
	}
	if rec.Hedged == 0 {
		t.Fatal("the slow episode should have fired hedges")
	}
	if rec.HedgeWins+rec.HedgeWaste > rec.Hedged {
		t.Fatalf("hedge outcomes exceed issues: wins=%d waste=%d issued=%d",
			rec.HedgeWins, rec.HedgeWaste, rec.Hedged)
	}
	if res.Faults == nil || res.Faults.Episodes != 1 {
		t.Fatalf("faults = %+v, want one episode", res.Faults)
	}
	// The whole degraded run must be deterministic.
	again := run()
	if !reflect.DeepEqual(res.Latency, again.Latency) || !reflect.DeepEqual(res.Stats, again.Stats) {
		t.Fatal("faulty runs must be bit-identical across executions")
	}
	if !reflect.DeepEqual(res.Faults, again.Faults) {
		t.Fatalf("fault summaries diverged: %+v vs %+v", res.Faults, again.Faults)
	}
}

// TestRunFaultyCrashRetries crashes a shard mid-run: its in-flight slots
// abort, its queue drops, and the retry policy re-dispatches the lost
// requests to siblings so most of them still complete.
func TestRunFaultyCrashRetries(t *testing.T) {
	const n, W = 160, 2
	workers, sched := faultyWorkers(n, W, 600, 3)
	res := serve.RunFaulty(serve.FaultyOptions{
		Options: serve.Options{
			Hardware:  memsim.XeonX5670(),
			Technique: ops.AMAC,
			Window:    6,
		},
		Faults: &fault.Schedule{Episodes: []fault.Episode{
			{Kind: fault.Crash, Shard: 1, Start: 8000, Dur: 16000},
		}},
		Retry: fault.RetryPolicy{Max: 3, Backoff: 1000},
		Sched: sched,
	}, workers)
	rec := res.Latency
	if res.Sched.Aborted == 0 {
		t.Fatal("the crash should have aborted in-flight slots")
	}
	if rec.Retried == 0 {
		t.Fatal("crash-dropped requests should have been retried")
	}
	if rec.Completed+rec.TimedOut+rec.Failed != n {
		t.Fatalf("accounting: completed=%d timedOut=%d failed=%d, want sum %d",
			rec.Completed, rec.TimedOut, rec.Failed, n)
	}
	if rec.Completed < uint64(n*9/10) {
		t.Fatalf("retries should recover most traffic: completed=%d of %d", rec.Completed, n)
	}
}

// TestRunSLOBrownoutSheds overloads a plain (non-faulty) service with an SLO
// attached and checks the brownout sheds load but never class 0.
func TestRunSLOBrownoutSheds(t *testing.T) {
	const n = 600
	m := exectest.NewChainMachine(chainLengths(n, 5), 6)
	// Offered load far above capacity: the sliding p99 blows any budget.
	workers := []serve.Worker[exectest.ChainState]{{
		Machine:  m,
		Arrivals: serve.Deterministic{Period: 40}.Schedule(n, 1),
	}}
	res := serve.Run(serve.Options{
		Hardware:  memsim.XeonX5670(),
		Technique: ops.AMAC,
		Window:    6,
		SLO:       fault.SLO{P99Budget: 2000, Classes: 4, HoldRounds: 2},
	}, workers)
	rec := res.Latency
	if rec.Shed == 0 {
		t.Fatal("sustained overload must shed load")
	}
	if rec.Completed+rec.Shed != n {
		t.Fatalf("accounting: completed=%d shed=%d, want sum %d", rec.Completed, rec.Shed, n)
	}
	// Class 0 (index % 4 == 0) is never shed, so at least every fourth
	// request completes.
	if rec.Completed < n/4 {
		t.Fatalf("class 0 must always be served: completed=%d", rec.Completed)
	}
}

// TestRecorderFaultEdgeCases covers the satellite edge cases: an
// all-timed-out recorder, merging with a zero-served shard, and quantiles
// with hedge duplicates resolved on both shards.
func TestRecorderFaultEdgeCases(t *testing.T) {
	// All-timed-out: quantiles and means stay defined (zero), counters hold.
	var dead serve.Recorder
	dead.Offered = 10
	dead.TimedOut = 10
	if dead.P99() != 0 || dead.MeanLatency() != 0 {
		t.Fatalf("all-timed-out quantiles: p99=%d mean=%f", dead.P99(), dead.MeanLatency())
	}

	// A served shard merged with a zero-served shard keeps its quantiles and
	// gains the dead shard's outcome counters.
	var served serve.Recorder
	served.Offered = 4
	for _, lat := range []uint64{100, 200, 300, 400} {
		served.RecordLatency(lat)
	}
	p99Before := served.P99()
	served.Merge(&dead)
	if served.P99() != p99Before {
		t.Fatalf("merge with zero-served shard moved p99: %d -> %d", p99Before, served.P99())
	}
	if served.TimedOut != 10 || served.Offered != 14 {
		t.Fatalf("merge lost counters: timedOut=%d offered=%d", served.TimedOut, served.Offered)
	}

	// Hedged duplicates completing on both shards: the winner records the
	// latency on the executing shard, the loser only bumps HedgeWaste — the
	// merged completion count stays one per request.
	var home, sibling serve.Recorder
	home.Offered = 1
	home.Hedged = 1
	home.HedgeWins = 1
	home.HedgeWaste = 1 // the home copy finished after the hedge had won
	sibling.RecordLatency(500)
	home.Merge(&sibling)
	if home.Completed != 1 {
		t.Fatalf("hedge dedup: completed=%d, want 1", home.Completed)
	}
	if home.P99() != 500 || home.MaxLatency != 500 {
		t.Fatalf("hedge winner's latency lost: p99=%d max=%d", home.P99(), home.MaxLatency)
	}

	// The nonzero fault counters surface in String; a clean recorder's
	// String must not mention them.
	if s := home.String(); len(s) == 0 || !contains(s, "hedged=1") {
		t.Fatalf("String misses fault counters: %q", s)
	}
	var clean serve.Recorder
	clean.RecordLatency(10)
	if contains(clean.String(), "hedged=") {
		t.Fatalf("clean String grew fault counters: %q", clean.String())
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
