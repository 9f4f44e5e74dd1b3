package obs

import (
	"bytes"
	"strings"
	"testing"

	"amac/internal/memsim"
	"amac/internal/prof"
)

// run charges the core some compute and some cold loads.
func run(c *memsim.Core) {
	for i := 0; i < 64; i++ {
		c.Instr(50)
		c.Load(memsim.Addr(1<<20+i*4096), 8)
	}
}

// TestSinksAttachDisabled: with no sink set, Attach hands out nil handles,
// installs nothing, and neither it nor Detach allocates.
func TestSinksAttachDisabled(t *testing.T) {
	c := memsim.MustSystem(memsim.XeonX5670()).NewCore()
	a := Sinks{}.Attach(c, "core")
	if a.Trace != nil || a.Metrics != nil || c.Profiler() != nil {
		t.Fatalf("disabled Attach handed out %+v, profiler %v", a, c.Profiler())
	}
	a.Detach()
	if n := testing.AllocsPerRun(100, func() { Sinks{}.Attach(c, "core").Detach() }); n != 0 {
		t.Fatalf("disabled Attach+Detach allocates %.0f times", n)
	}
}

// TestSinksAttachMetricsOnly: metrics without a trace get an unregistered
// discard ring as the width holder, the shared gauges, and a sampling hook
// that Detach removes.
func TestSinksAttachMetricsOnly(t *testing.T) {
	c := memsim.MustSystem(memsim.XeonX5670()).NewCore()
	s := Sinks{Metrics: NewMetrics(64)}
	a := s.Attach(c, "core")
	if a.Trace == nil || a.Metrics == nil {
		t.Fatalf("metrics-only Attach handed out %+v", a)
	}
	run(c)
	n := a.Metrics.Samples()
	if n == 0 {
		t.Fatal("attached metrics recorded no samples")
	}
	a.Detach()
	run(c)
	if a.Metrics.Samples() != n {
		t.Fatal("detached core kept sampling")
	}
	// A registry reused for a later run still polls these gauges; they must
	// no longer read the detached core, which may be running elsewhere.
	c.Load(memsim.Addr(1<<30), 8)
	a.Metrics.Tick(c.Cycle())
	var b bytes.Buffer
	if err := s.Metrics.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	for _, g := range []string{"width", "mshr_outstanding", "stall_fraction"} {
		if !strings.Contains(lines[0], `"`+g+`"`) {
			t.Errorf("sample %s lacks gauge %s", lines[0], g)
		}
	}
	if want := `"values":{"mshr_outstanding":0,"stall_fraction":0,"width":0}}`; !strings.HasSuffix(lines[len(lines)-1], want) {
		t.Errorf("sample after Detach is %s, want every shared gauge 0", lines[len(lines)-1])
	}
}

// TestSinksAttachAll: every sink registers the core under its name, and the
// profiler attributes exactly the cycles the core ran while attached.
func TestSinksAttachAll(t *testing.T) {
	c := memsim.MustSystem(memsim.XeonX5670()).NewCore()
	s := Sinks{Trace: NewTrace(0), Metrics: NewMetrics(0), Profile: prof.NewProfile()}
	a := s.Attach(c, "core")
	if a.Trace != s.Trace.Core("core") || a.Metrics != s.Metrics.Core("core") || c.Profiler() != s.Profile.Core("core") {
		t.Fatal("Attach did not hand out the registered per-core sinks")
	}
	run(c)
	cycles := c.Cycle()
	a.Detach()
	if c.Profiler() != nil {
		t.Fatal("Detach left the profiler attached")
	}
	run(c)
	if got := s.Profile.TotalCycles(); got != cycles {
		t.Fatalf("profile attributed %d cycles, the core ran %d while attached", got, cycles)
	}
}
