package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so work moved into set-up shows without one slow set-up deciding.
const setupReps = 5

// runConfig is one workload run's settings.
type runConfig struct {
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
}

// metric is one reported measurement.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

// report is everything one workload run measured. A set of runs is a file of
// reports, one JSON object per line.
type report struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Trace     bool     `json:"trace"`
	Attempted int      `json:"ops_attempted"`
	Failed    int      `json:"ops_failed"`
	Failures  []string `json:"failures,omitempty"`
	SimDigest string   `json:"sim_digest"`
	HostRefNs float64  `json:"host_ref_ns"`
	Metrics   []metric `json:"metrics"`
}

// value returns the named metric.
func (r report) value(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// timedPass is one measured pass with its wall time.
type timedPass struct {
	p    *pass
	wall time.Duration
}

func passesOf(ts []timedPass) []*pass {
	var ps []*pass
	for _, t := range ts {
		ps = append(ps, t.p)
	}
	return ps
}

// runWorkload sets the workload up, runs an untimed warm-up pass and then
// timed passes for cfg.seconds, checking every run. A traced run spends half
// the time on untraced passes and half on traced ones, and reports the
// per-layer metrics instead of the end-to-end ones.
func runWorkload(wl workload, cfg runConfig) (report, error) {
	rep := report{Workload: wl.name, Seed: cfg.seed, Trace: cfg.trace, HostRefNs: hostRefNs()}
	var spans *spanLog
	if cfg.trace {
		spans = newSpanLog()
	}
	spans.begin(wl.name, "workload", attrs("workload", wl.name, "seed", strconv.FormatUint(cfg.seed, 10)))

	var inst instance
	var setups []float64
	steps := map[string][]float64{}
	for i := 0; i < setupReps; i++ {
		inst = nil
		runtime.GC()
		clock := &setupClock{spans: spans, steps: map[string]float64{}}
		spans.begin("setup", "setup", attrs("rep", strconv.Itoa(i)))
		start := time.Now()
		inst = wl.setup(cfg.seed, clock)
		setups = append(setups, time.Since(start).Seconds())
		spans.end()
		for name, s := range clock.steps {
			steps[name] = append(steps[name], s)
		}
	}
	inst.reference()

	warm := newPass(nil)
	inst.pass(warm)
	rep.SimDigest = fmt.Sprintf("%016x", warm.digest.Sum64())
	all := []*pass{warm}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 2
	}
	untraced := measure(inst, budget, nil)
	var traced []timedPass
	var cpu bytes.Buffer
	if cfg.trace {
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			return rep, fmt.Errorf("start cpu profile: %w", err)
		}
		traced = measure(inst, budget, spans)
		pprof.StopCPUProfile()
	}
	spans.end()

	var heap runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heap)
	runtime.KeepAlive(inst)

	for _, t := range append(append([]timedPass(nil), untraced...), traced...) {
		all = append(all, t.p)
		got := fmt.Sprintf("%016x", t.p.digest.Sum64())
		t.p.check(got == rep.SimDigest, "pass digest %s differs from the warm-up pass's %s", got, rep.SimDigest)
	}
	for _, p := range all {
		rep.Attempted += p.ops
		rep.Failed += len(p.failures)
		rep.Failures = append(rep.Failures, p.failures...)
	}

	rate, runs := hostRate(passesOf(untraced))
	if !cfg.trace {
		host := map[string]metric{
			"host_lookups_per_s": {Value: rate, Samples: runs},
			"setup_s":            {Value: median(setups), Samples: len(setups)},
			"live_heap_mb":       {Value: float64(heap.HeapAlloc) / 1e6, Samples: 1},
		}
		for _, d := range endToEnd {
			m, ok := host[d.name]
			if !ok { // simulated: the same in every pass
				m = metric{Value: warm.sim[d.name], Samples: max(warm.simSamples[d.name], 1)}
			}
			m.Name, m.Unit = d.name, d.unit
			rep.Metrics = append(rep.Metrics, m)
		}
		return rep, nil
	}

	// Per-layer metrics, all from the traced passes.
	values := map[string][]float64{}
	for name, v := range steps {
		values[name] = v
	}
	for _, t := range traced {
		for name, v := range t.p.layer {
			values[name] = append(values[name], v)
		}
	}
	tracedRate, _ := hostRate(passesOf(traced))
	values["host.ref_ns"] = []float64{rep.HostRefNs}
	values["trace_overhead_ratio"] = []float64{ratio(tracedRate, rate)}
	shares, err := hostShares(cpu.Bytes())
	if err != nil {
		return rep, err
	}
	for pkg, v := range shares {
		values["host_share."+pkg] = []float64{v}
	}
	for _, d := range perLayer() {
		rep.Metrics = append(rep.Metrics, metric{d.name, d.unit, median(values[d.name]), len(values[d.name])})
	}
	return rep, writeTrace(cfg.traceDir, wl.name, spans, cpu.Bytes())
}

// measure runs passes until the budget is spent, starting a pass only while
// the last one would still fit, and at least one. With a span log the passes
// are traced.
func measure(inst instance, budget time.Duration, spans *spanLog) []timedPass {
	var out []timedPass
	start := time.Now()
	for len(out) == 0 || time.Since(start)+out[len(out)-1].wall <= budget {
		p := newPass(spans)
		var before runtime.MemStats
		if p.traced() {
			runtime.ReadMemStats(&before)
		}
		spans.begin("pass", "pass", attrs("pass", strconv.Itoa(len(out))))
		t0 := time.Now()
		inst.pass(p)
		wall := time.Since(t0)
		spans.end()
		if p.traced() {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			p.layer["runtime.alloc_mb_per_pass"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
			p.layer["runtime.gc_per_pass"] = float64(after.NumGC - before.NumGC)
			p.layer["runtime.gc_pause_ms_per_pass"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
		}
		out = append(out, timedPass{p, wall})
	}
	return out
}

// writeTrace writes the spans, one JSON object per line, and the CPU profile
// of a traced run to dir/<workload>/.
func writeTrace(dir, workload string, spans *spanLog, cpu []byte) error {
	d := filepath.Join(dir, workload)
	if err := os.MkdirAll(d, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range spans.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("encode span: %w", err)
		}
	}
	if err := os.WriteFile(filepath.Join(d, "spans.jsonl"), b.Bytes(), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(filepath.Join(d, "cpu.pb.gz"), cpu, 0o644); err != nil {
		return fmt.Errorf("write cpu profile: %w", err)
	}
	return nil
}
