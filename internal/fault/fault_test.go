package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// parseSpecCases is the TestParseSpec table; FuzzParseSpec seeds its corpus
// from the same specs.
var parseSpecCases = []struct {
	name    string
	spec    string
	wantErr string // substring; empty means valid
	want    []Episode
}{
	{
		name: "slow with factor",
		spec: "slow:0@60000+120000x4",
		want: []Episode{{Kind: Slow, Shard: 0, Start: 60000, Dur: 120000, Factor: 4}},
	},
	{
		name: "suffixes and list",
		spec: "freeze:1@5k+3k,crash:2@1M+40k",
		want: []Episode{
			{Kind: Freeze, Shard: 1, Start: 5000, Dur: 3000, Factor: 1},
			{Kind: Crash, Shard: 2, Start: 1000000, Dur: 40000, Factor: 1},
		},
	},
	{
		name: "spike",
		spec: "spike:3@800+200x8",
		want: []Episode{{Kind: Spike, Shard: 3, Start: 800, Dur: 200, Factor: 8}},
	},
	{name: "unknown kind", spec: "melt:0@1+2", wantErr: "unknown kind"},
	{name: "missing kind", spec: "0@1+2", wantErr: "lacks a kind"},
	{name: "missing start", spec: "slow:0+2x2", wantErr: "lacks @start"},
	{name: "missing dur", spec: "slow:0@100x2", wantErr: "lacks +dur"},
	{name: "zero dur", spec: "slow:0@100+0x2", wantErr: "bad duration"},
	{name: "slow without factor", spec: "slow:0@100+50", wantErr: "need an xfactor"},
	{name: "freeze with factor", spec: "freeze:0@100+50x2", wantErr: "take no factor"},
	{name: "factor below one", spec: "slow:0@100+50x0.5", wantErr: "bad factor"},
	{name: "NaN factor", spec: "slow:0@0+10xNaN", wantErr: "bad factor"},
	{name: "infinite factor", spec: "slow:0@0+10x+Inf", wantErr: "bad factor"},
	{name: "infinite spike factor", spec: "spike:0@0+10xInf", wantErr: "bad factor"},
	{name: "k suffix overflows", spec: "slow:0@18446744073709551615k+1x2", wantErr: "bad start"},
	{name: "M suffix overflows", spec: "freeze:0@0+18446744073709552M", wantErr: "bad duration"},
	{name: "end wraps", spec: "freeze:0@18446744073709551615+1", wantErr: "past the last cycle"},
	{
		name: "end at the last cycle",
		spec: "freeze:0@18446744073709551614+1",
		want: []Episode{{Kind: Freeze, Shard: 0, Start: 1<<64 - 2, Dur: 1, Factor: 1}},
	},
	{name: "negative shard", spec: "slow:-1@100+50x2", wantErr: "bad shard"},
	{name: "empty token", spec: "slow:0@1+2x2,,", wantErr: "empty episode"},
	{name: "empty spec", spec: "", wantErr: "empty schedule"},
	{name: "bad rand seed", spec: "rand:nope", wantErr: "bad rand seed"},
	{name: "bad rand count", spec: "rand:7:zero", wantErr: "bad rand episode count"},
	{name: "rand count above the cap", spec: "rand:7:4097", wantErr: "bad rand episode count"},
}

func TestParseSpec(t *testing.T) {
	for _, tc := range parseSpecCases {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := ParseSpec(tc.spec)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sp.Sched.Episodes, tc.want) {
				t.Fatalf("episodes = %+v, want %+v", sp.Sched.Episodes, tc.want)
			}
		})
	}
}

func TestParseSpecRand(t *testing.T) {
	sp, err := ParseSpec("rand:99:6")
	if err != nil {
		t.Fatal(err)
	}
	if !sp.IsRand || sp.RandSeed != 99 || sp.RandN != 6 {
		t.Fatalf("spec = %+v", sp)
	}
	sched, err := sp.Resolve(4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := sp.Resolve(4, 1<<20)
	if !reflect.DeepEqual(sched, again) {
		t.Fatal("random schedules must be deterministic for a fixed seed")
	}
	if sched.Empty() {
		t.Fatal("six requested episodes produced none")
	}
}

func TestScheduleValidate(t *testing.T) {
	overlap := &Schedule{Episodes: []Episode{
		{Kind: Slow, Shard: 0, Start: 100, Dur: 100, Factor: 2},
		{Kind: Freeze, Shard: 0, Start: 150, Dur: 10, Factor: 1},
	}}
	if err := overlap.Validate(2); err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Fatalf("overlap not rejected: %v", err)
	}
	outOfRange := &Schedule{Episodes: []Episode{{Kind: Crash, Shard: 3, Start: 0, Dur: 1, Factor: 1}}}
	if err := outOfRange.Validate(2); err == nil || !strings.Contains(err.Error(), "shard") {
		t.Fatalf("out-of-range shard not rejected: %v", err)
	}
	disjoint := &Schedule{Episodes: []Episode{
		{Kind: Slow, Shard: 1, Start: 100, Dur: 50, Factor: 2},
		{Kind: Slow, Shard: 0, Start: 100, Dur: 50, Factor: 2}, // other shard: fine
		{Kind: Crash, Shard: 1, Start: 150, Dur: 10, Factor: 1},
	}}
	if err := disjoint.Validate(2); err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), 0.5} {
		bad := &Schedule{Episodes: []Episode{{Kind: Slow, Shard: 0, Start: 0, Dur: 10, Factor: f}}}
		if err := bad.Validate(1); err == nil || !strings.Contains(err.Error(), "factor") {
			t.Fatalf("factor %v not rejected: %v", f, err)
		}
	}
	// An End that wraps to a small cycle would slip past the overlap check
	// against the episode that follows it.
	wraps := &Schedule{Episodes: []Episode{
		{Kind: Freeze, Shard: 0, Start: 100, Dur: math.MaxUint64, Factor: 1},
		{Kind: Crash, Shard: 0, Start: 200, Dur: 10, Factor: 1},
	}}
	if err := wraps.Validate(1); err == nil || !strings.Contains(err.Error(), "past the last cycle") {
		t.Fatalf("wrapping episode not rejected: %v", err)
	}
}

// FuzzParseSpec checks that ParseSpec never panics, that every schedule it
// accepts holds the invariants Validate relies on, and that a schedule
// re-parsed from its String is the same schedule.
func FuzzParseSpec(f *testing.F) {
	for _, tc := range parseSpecCases {
		f.Add(tc.spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		sp, err := ParseSpec(spec)
		if err != nil || sp.IsRand {
			return
		}
		for _, e := range sp.Sched.Episodes {
			if math.IsNaN(e.Factor) || math.IsInf(e.Factor, 0) || e.Factor < 1 {
				t.Fatalf("%q: episode %+v has factor %v", spec, e, e.Factor)
			}
			if e.Dur == 0 || e.End() < e.Start {
				t.Fatalf("%q: episode %+v has a bad extent", spec, e)
			}
		}
		again, err := ParseSpec(sp.Sched.String())
		if err != nil {
			t.Fatalf("%q: re-parsing %q: %v", spec, sp.Sched.String(), err)
		}
		if !reflect.DeepEqual(again.Sched.Episodes, sp.Sched.Episodes) {
			t.Fatalf("%q: round trip through %q gave %+v, want %+v",
				spec, sp.Sched.String(), again.Sched.Episodes, sp.Sched.Episodes)
		}
	})
}

func TestTimelineAdvance(t *testing.T) {
	eps := []Episode{
		{Kind: Slow, Shard: 0, Start: 100, Dur: 50, Factor: 2},
		{Kind: Crash, Shard: 0, Start: 200, Dur: 30, Factor: 1},
	}
	tl := NewTimeline(eps)
	type change struct {
		kind  Kind
		begin bool
	}
	var got []change
	apply := func(ep Episode, begin bool) { got = append(got, change{ep.Kind, begin}) }

	tl.Advance(50, apply)
	if len(got) != 0 {
		t.Fatalf("changes before any start: %v", got)
	}
	tl.Advance(120, apply)
	if want := []change{{Slow, true}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if ep, ok := tl.current(); !ok || ep.Kind != Slow {
		t.Fatalf("active = %v, %v", ep, ok)
	}
	// A step over the slow end and the whole crash episode reports all three
	// boundaries in order.
	got = nil
	tl.Advance(500, apply)
	want := []change{{Slow, false}, {Crash, true}, {Crash, false}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if _, ok := tl.current(); ok {
		t.Fatal("nothing should be active after everything ended")
	}
}

func TestApplySpikes(t *testing.T) {
	arrivals := []uint64{0, 100, 200, 300, 400, 500}
	eps := []Episode{{Kind: Spike, Shard: 0, Start: 200, Dur: 200, Factor: 2}}
	got := ApplySpikes(arrivals, eps)
	want := []uint64{0, 100, 200, 250, 400, 500}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if arrivals[3] != 300 {
		t.Fatal("input schedule must not be modified")
	}
	// Monotonicity survives compression.
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("schedule not monotone at %d", i)
		}
	}
	// Non-spike episodes leave the schedule aliased and untouched.
	same := ApplySpikes(arrivals, []Episode{{Kind: Slow, Start: 0, Dur: 1000, Factor: 4}})
	if &same[0] != &arrivals[0] {
		t.Fatal("non-spike episodes should not copy the schedule")
	}
}

func TestRetryPolicyDelay(t *testing.T) {
	r := RetryPolicy{Max: 3, Backoff: 100, Cap: 350}
	if !r.Enabled() {
		t.Fatal("Max>0 must enable")
	}
	for attempt, want := range map[int]uint64{1: 100, 2: 200, 3: 350, 4: 350} {
		if got := r.Delay(attempt); got != want {
			t.Fatalf("Delay(%d) = %d, want %d", attempt, got, want)
		}
	}
	// Default cap is 8x the base.
	unc := RetryPolicy{Max: 10, Backoff: 10}
	if got := unc.Delay(9); got != 80 {
		t.Fatalf("default cap: Delay(9) = %d, want 80", got)
	}
	if (RetryPolicy{}).Enabled() {
		t.Fatal("zero policy must be disabled")
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b := NewBreaker(2, BreakerConfig{Cooldown: 1000})
	if b.State() != StateClosed {
		t.Fatal("breakers start closed")
	}
	// Healthy traffic keeps it closed.
	b.Observe(100, 20, 0)
	if b.State() != StateClosed || !b.Admit() {
		t.Fatal("healthy shard must stay closed")
	}
	// A burst of timeouts opens it (enough samples, EWMA above threshold).
	b.Observe(200, 0, 20)
	b.Observe(300, 0, 20)
	if b.State() != StateOpen {
		t.Fatalf("state = %v after sustained timeouts", b.State())
	}
	if b.Admit() {
		t.Fatal("open breaker must reroute")
	}
	// Before the cooldown nothing changes; after it, half-open.
	b.Observe(900, 0, 0)
	if b.State() != StateOpen {
		t.Fatal("cooldown not elapsed yet")
	}
	b.Observe(1300, 0, 0)
	if b.State() != StateHalfOpen {
		t.Fatalf("state = %v after cooldown", b.State())
	}
	// Half-open admits one probe in every probeEvery arrivals.
	admits := 0
	for i := 0; i < 2*probeEvery; i++ {
		if b.Admit() {
			admits++
		}
	}
	if admits != 2 {
		t.Fatalf("half-open admitted %d of %d, want 2", admits, 2*probeEvery)
	}
	// Successful probes close it.
	for now := uint64(1400); b.State() == StateHalfOpen; now += 100 {
		b.Observe(now, 4, 0)
	}
	if b.State() != StateClosed {
		t.Fatalf("state = %v after healthy probes", b.State())
	}
	// The transition log captured the full closed→open→half-open→closed arc.
	var arc []State
	for _, tr := range b.Transitions() {
		if tr.Shard != 2 {
			t.Fatalf("transition carries shard %d, want 2", tr.Shard)
		}
		arc = append(arc, tr.To)
	}
	want := []State{StateOpen, StateHalfOpen, StateClosed}
	if !reflect.DeepEqual(arc, want) {
		t.Fatalf("transition arc %v, want %v", arc, want)
	}
}

func TestBreakerHalfOpenReopens(t *testing.T) {
	b := NewBreaker(0, BreakerConfig{Cooldown: 100})
	b.Observe(10, 0, minSamples) // opens
	if b.State() != StateOpen {
		t.Fatalf("state = %v", b.State())
	}
	b.Observe(200, 0, 0) // half-open after cooldown
	if b.State() != StateHalfOpen {
		t.Fatalf("state = %v", b.State())
	}
	b.Observe(300, 0, 5) // probes failed: reopen
	if b.State() != StateOpen {
		t.Fatalf("state = %v after failed probes", b.State())
	}
}

func TestBrownoutShedAndRestore(t *testing.T) {
	b := NewBrownout(SLO{P99Budget: 1000, Classes: 4, HoldRounds: 2})
	if !b.Admit(3) {
		t.Fatal("nothing shed yet")
	}
	// Over budget: shed one class per round, never class 0.
	for i := 0; i < 10; i++ {
		b.Observe(5000)
	}
	if b.Level() != 3 {
		t.Fatalf("level = %d, want 3 (classes-1)", b.Level())
	}
	if b.Admit(1) || !b.Admit(0) {
		t.Fatal("level 3 must serve only class 0")
	}
	// In the hysteresis band: no restore.
	b.Observe(900)
	b.Observe(900)
	if b.Level() != 3 {
		t.Fatal("restore must need the margin, not just the budget")
	}
	// Well under budget for HoldRounds: restore one class at a time.
	b.Observe(100)
	if _, changed := b.Observe(100); !changed {
		t.Fatal("second in-margin round should restore a class")
	}
	if b.Level() != 2 {
		t.Fatalf("level = %d, want 2", b.Level())
	}
	if b.MaxLevel() != 3 {
		t.Fatalf("max level = %d, want 3", b.MaxLevel())
	}
}
