package ops_test

import (
	"fmt"
	"testing"

	"amac/internal/core"
	"amac/internal/exec"
	"amac/internal/exec/exectest"
	"amac/internal/memsim"
	"amac/internal/ops"
	"amac/internal/xrand"
)

// pollCharge is what each engine charges for one pull, and so for one poll
// that finds the stream over.
var pollCharge = map[ops.Technique]uint64{
	ops.Baseline: exec.CostLoopIter,
	ops.GP:       exec.CostGPStage,
	ops.SPP:      exec.CostSPPStage,
	ops.AMAC:     core.CostStateSwap,
}

// liveSource hides a source's exec.Finite interface: the same requests in
// the same order, but the end of the stream shows only when a poll returns
// Exhausted, as with a live queue. It counts those polls and notes the
// instruction count at the first one (the poll's own charge included).
type liveSource[S any] struct {
	exec.Source[S]
	polls     int
	firstPoll uint64
}

func (l *liveSource[S]) Pull(c *memsim.Core, s *S, now uint64, pr *exec.PullResult) {
	l.Source.Pull(c, s, now, pr)
	if pr.Status == exec.Exhausted {
		if l.polls == 0 {
			l.firstPoll = c.Stats().Instructions
		}
		l.polls++
	}
}

// endOfStreamCase is one random workload: a chain or latch machine factory
// plus the window every technique runs it at.
type endOfStreamCase struct {
	name  string
	n     int
	width int
	run   func(c *memsim.Core, tech ops.Technique, width int, live bool) endOfStreamRun
}

// endOfStreamRun is what one engine run leaves behind.
type endOfStreamRun struct {
	stats     memsim.Stats
	sched     core.RunStats
	completed []int // request indices in completion order, from the source
	polls     int   // exhausted polls (live runs)
	firstPoll uint64
}

// runMachine runs m under tech over a MachineSource, directly or behind a
// liveSource, recording every completion the source sees.
func runMachine[S any](c *memsim.Core, m exec.Machine[S], tech ops.Technique, width int, live bool) endOfStreamRun {
	var r endOfStreamRun
	ms := exec.NewMachineSource(m)
	ms.OnComplete = func(req exec.Request, done uint64) { r.completed = append(r.completed, req.Index) }
	var src exec.Source[S] = ms
	var ls *liveSource[S]
	if live {
		ls = &liveSource[S]{Source: ms}
		src = ls
	}
	r.sched = ops.RunSource(c, src, tech, core.Options{Width: width})
	r.stats = c.Stats()
	if ls != nil {
		r.polls, r.firstPoll = ls.polls, ls.firstPoll
	}
	return r
}

func chainCase(lengths []int, width, provision int) endOfStreamCase {
	return endOfStreamCase{
		name: fmt.Sprintf("chain/n=%d/w=%d/p=%d", len(lengths), width, provision), n: len(lengths), width: width,
		run: func(c *memsim.Core, tech ops.Technique, width int, live bool) endOfStreamRun {
			return runMachine[exectest.ChainState](c, exectest.NewChainMachine(lengths, provision), tech, width, live)
		},
	}
}

func latchCase(n, width, provision int) endOfStreamCase {
	return endOfStreamCase{
		name: fmt.Sprintf("latch/n=%d/w=%d/p=%d", n, width, provision), n: n, width: width,
		run: func(c *memsim.Core, tech ops.Technique, width int, live bool) endOfStreamRun {
			return runMachine[exectest.LatchState](c, exectest.NewLatchMachine(n, provision), tech, width, live)
		},
	}
}

// endOfStreamCases draws workloads over both exectest machines, with widths
// 1–32 and lookup counts from 0 up, so widths above the lookup count and the
// empty stream occur. One fixed case has SPP finish its last request long
// before that slot's refill point.
func endOfStreamCases(count int) []endOfStreamCase {
	rng := xrand.New(7)
	cases := []endOfStreamCase{chainCase([]int{1, 1, 1, 1, 1}, 1, 5)}
	for i := 0; i < count; i++ {
		n := rng.Intn(48)
		if i%8 == 0 {
			n = 0
		}
		width := 1 + rng.Intn(32)
		provision := 1 + rng.Intn(6)
		if rng.Intn(3) == 0 {
			cases = append(cases, latchCase(n, width, provision))
			continue
		}
		lengths := make([]int, n)
		for j := range lengths {
			lengths[j] = 1 + rng.Intn(12)
		}
		cases = append(cases, chainCase(lengths, width, provision))
	}
	return cases
}

// checkCompletedOnce fails unless every request 0..n-1 completed exactly once.
func checkCompletedOnce(t *testing.T, completed []int, n int) {
	t.Helper()
	if len(completed) != n {
		t.Fatalf("%d completions for %d requests", len(completed), n)
	}
	seen := make([]bool, n)
	for _, idx := range completed {
		if seen[idx] {
			t.Fatalf("request %d completed twice", idx)
		}
		seen[idx] = true
	}
}

// TestEndOfStreamContract is the property behind running every batch through
// the streaming engines. Over random workloads, widths and all four
// techniques, a run over a finite source (a MachineSource) and over the same
// requests as a live stream must both complete every request exactly once,
// and AMAC must initiate exactly what it completes. The live run can only
// learn that the stream ended by polling, so it pays each engine's pull
// charge per exhausted poll and the finite run pays nothing: one poll for
// Baseline, SPP and AMAC; for GP one more when the last group was partial,
// since the poll that ended the gather launches that group and the next
// gather polls again. Up to their first exhausted poll the two runs are the
// same run, so the instruction counts differ by exactly the polls' charge.
// SPP alone can differ by more: the finite run stops the moment its last
// request finishes, while the live run reaches its first exhausted poll
// only when a slot comes to its static refill point. If that is after the
// finite run ended, the live run sweeps finished slots until then.
func TestEndOfStreamContract(t *testing.T) {
	for _, tc := range endOfStreamCases(64) {
		for _, tech := range ops.Techniques {
			t.Run(tc.name+"/"+tech.String(), func(t *testing.T) {
				finite := tc.run(newCore(), tech, tc.width, false)
				live := tc.run(newCore(), tech, tc.width, true)
				checkCompletedOnce(t, finite.completed, tc.n)
				checkCompletedOnce(t, live.completed, tc.n)
				if tech == ops.AMAC {
					for _, r := range []endOfStreamRun{finite, live} {
						if r.sched.Initiated != tc.n || r.sched.Completed != tc.n {
							t.Fatalf("AMAC initiated %d, completed %d of %d", r.sched.Initiated, r.sched.Completed, tc.n)
						}
					}
					if finite.sched.StageVisits != live.sched.StageVisits || finite.sched.Retries != live.sched.Retries {
						t.Fatalf("AMAC scheduling differs: finite %+v, live %+v", finite.sched, live.sched)
					}
				}

				wantPolls := 1
				if tech == ops.GP && tc.n%tc.width != 0 {
					wantPolls = 2
				}
				if live.polls != wantPolls {
					t.Fatalf("live run polled the ended stream %d times, want %d", live.polls, wantPolls)
				}
				charge := pollCharge[tech] * uint64(wantPolls)
				diff := live.stats.Instructions - finite.stats.Instructions
				if live.stats.Instructions < finite.stats.Instructions {
					t.Fatalf("live run executed fewer instructions (%d) than the finite run (%d)", live.stats.Instructions, finite.stats.Instructions)
				}
				if tech == ops.SPP && live.firstPoll-charge >= finite.stats.Instructions {
					if diff <= charge {
						t.Fatalf("live SPP polled after the finite run ended but cost only %d more instructions", diff)
					}
					return
				}
				if diff != charge {
					t.Fatalf("live run cost %d more instructions than the finite run, want the poll charge %d", diff, charge)
				}
				if live.stats.Loads != finite.stats.Loads {
					t.Fatalf("live run loaded %d times, finite run %d", live.stats.Loads, finite.stats.Loads)
				}
			})
		}
	}
}
