// Command amacbench regenerates the tables and figures of the AMAC paper
// (Kocberber, Falsafi, Grot: "Asynchronous Memory Access Chaining", VLDB
// 2015) on the simulated memory hierarchy.
//
// Usage:
//
//	amacbench -list                     # show every experiment id
//	amacbench -exp fig5b                # regenerate one artifact
//	amacbench -exp all                  # regenerate everything
//	amacbench -exp fig7 -scale tiny     # quick smoke run
//	amacbench -exp fig6 -window 15      # override the in-flight lookups
//	amacbench -exp fig6 -parallel 8     # fan sweep points over 8 host cores (same output)
//	amacbench -exp scaleN -workers 8    # sweep the parallel engine up to 8 workers
//	amacbench -exp serveN               # streaming service: arrival-rate sweep
//	amacbench -exp serveN -arrivals bursty -qcap 64  # bursty traffic, bounded drop queue
//	amacbench -exp adaptN               # adaptive execution vs every static config
//	amacbench -exp pipeN                # streaming multi-operator pipelines + mini-planner
//	amacbench -exp pipeN -plans mixed -burst 32  # one plan, smaller pump leases
//	amacbench -exp faultN               # fault injection: graceful-degradation ladder
//	amacbench -exp faultN -faults "slow:0@20000+40000x4,crash:1@90000+30000"
//	amacbench -exp faultN -slo 8000 -deadline 6000  # SLO brownout row, fixed deadline
//	amacbench -exp serveN -json         # machine-readable results, one JSON object per row
//	amacbench -exp adaptN -trace t.json # export a Perfetto-loadable event trace
//	amacbench -exp obsN -metrics m.jsonl -metrics-interval 2048  # gauge time series
//	amacbench -exp profN                # cycle attribution: category breakdown, stall hiding, MLP
//	amacbench -exp profN -flame f.txt -profile p.pb.gz  # flamegraph stacks + pprof proto
//	amacbench -exp fig6 -cpuprofile cpu.prof  # profile the simulator hot path
//
// Results are printed as aligned text tables whose rows and columns mirror
// the paper's artifacts; EXPERIMENTS.md maps each experiment id to its paper
// table or figure and records the paper-reported trend to compare the
// measured values against. With -json each table row is emitted as one JSON
// object on its own line (timing goes to stderr), so runs can be recorded
// and diffed mechanically.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"amac/internal/experiments"
	"amac/internal/fault"
	"amac/internal/obs"
	"amac/internal/prof"
	"amac/internal/profile"
	"amac/internal/serve"
)

// cliFlags holds every command-line value.
type cliFlags struct {
	list                bool
	exp, scale          string
	seed                uint64
	window, workers     int
	parallel            int
	arrivals            string
	qcap                int
	plans               string
	burst, pipeCap      int
	faults              string
	deadline, slo       int
	jsonOut             bool
	tracePath, metPath  string
	metEvery            int
	profPath, flamePath string
	cpuProf, memProf    string
}

// errUnknownExperiment marks the one flag error after which the experiment
// listing is printed.
var errUnknownExperiment = errors.New("unknown experiment")

func main() {
	var f cliFlags
	flag.BoolVar(&f.list, "list", false, "list available experiments and exit")
	flag.StringVar(&f.exp, "exp", "", "experiment id to run, or \"all\"")
	flag.StringVar(&f.scale, "scale", "small", "dataset scale: tiny, small or paper")
	flag.Uint64Var(&f.seed, "seed", 42, "workload generation seed")
	flag.IntVar(&f.window, "window", 0, "override the number of in-flight lookups (0 = per-experiment default)")
	flag.IntVar(&f.workers, "workers", 0, "cap the parallel experiments' worker sweep (0 = default sweep 1,2,4,8,16); serveN worker count")
	flag.IntVar(&f.parallel, "parallel", 0, "host workers for independent sweep points (0 = all cores, 1 = serial); results are identical for every value")
	flag.StringVar(&f.arrivals, "arrivals", "", "serving arrival process: deterministic, poisson (default) or bursty")
	flag.IntVar(&f.qcap, "qcap", 0, "bound the serving admission queue and drop on overflow (0 = unbounded blocking queue)")
	flag.StringVar(&f.plans, "plans", "", "pipeline plan filter: comma-separated case-insensitive substrings of pipeN plan names (empty = every plan)")
	flag.IntVar(&f.burst, "burst", 0, "pipeline pump lease size: admissions per upstream lease (0 = pipeline default)")
	flag.IntVar(&f.pipeCap, "pipecap", 0, "pipeline inter-stage pipe capacity in rows, the backpressure bound (0 = pipeline default)")
	flag.StringVar(&f.faults, "faults", "", "faultN chaos schedule: comma-separated \"kind:shard@start+dur[xfactor]\" episodes or \"rand:SEED[:N]\" (empty = default scenario)")
	flag.IntVar(&f.deadline, "deadline", 0, "faultN per-request deadline in cycles (0 = derive 2x the clean-run p99)")
	flag.IntVar(&f.slo, "slo", 0, "faultN p99 SLO budget in cycles; enables the brownout row (0 = omit it)")
	flag.BoolVar(&f.jsonOut, "json", false, "emit results as JSON Lines (one object per table row) instead of text tables")
	flag.StringVar(&f.tracePath, "trace", "", "write a Chrome/Perfetto trace of the experiment's designated cell to this file")
	flag.StringVar(&f.metPath, "metrics", "", "write the designated cell's gauge time series to this file as JSON Lines")
	flag.IntVar(&f.metEvery, "metrics-interval", 0, "metrics sampling period in simulated cycles (0 = default 4096); requires -metrics")
	flag.StringVar(&f.profPath, "profile", "", "write the designated cell's cycle-attribution profile to this file as a gzipped pprof proto (go tool pprof)")
	flag.StringVar(&f.flamePath, "flame", "", "write the designated cell's cycle attribution to this file as folded flamegraph stacks (flamegraph.pl, speedscope)")
	flag.StringVar(&f.cpuProf, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.StringVar(&f.memProf, "memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if f.list || f.exp == "" {
		listExperiments(os.Stdout)
		if !f.list {
			fmt.Println("\nrun with -exp <id> or -exp all")
		}
		return
	}
	if err := validateFlags(f, flag.Visit); err != nil {
		fmt.Fprintf(os.Stderr, "amacbench: %v\n", err)
		if errors.Is(err, errUnknownExperiment) {
			fmt.Fprintln(os.Stderr)
			listExperiments(os.Stderr)
		}
		os.Exit(2)
	}

	if f.cpuProf != "" {
		pf, err := os.Create(f.cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
		}()
	}
	if f.memProf != "" {
		defer func() {
			pf, err := os.Create(f.memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer pf.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(pf); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	// validateFlags has checked f.scale with experiments.ParseScale.
	cfg := experiments.Config{
		Scale: experiments.Scale(f.scale), Seed: f.seed, Window: f.window, Workers: f.workers,
		Arrivals: f.arrivals, QueueCap: f.qcap, Parallel: f.parallel,
		Plans: f.plans, Burst: f.burst, PipeCap: f.pipeCap,
		Faults: f.faults, Deadline: f.deadline, SLOBudget: f.slo,
	}
	if f.tracePath != "" {
		cfg.Trace = obs.NewTrace(0)
	}
	if f.metPath != "" {
		cfg.Metrics = obs.NewMetrics(f.metEvery)
	}
	if f.profPath != "" || f.flamePath != "" {
		cfg.Profile = prof.NewProfile()
	}

	ids := []string{f.exp}
	if f.exp == "all" {
		ids = nil
		for _, d := range experiments.Registry() {
			ids = append(ids, d.ID)
		}
	}

	for _, id := range ids {
		start := time.Now()
		tables, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if f.jsonOut {
			if err := profile.WriteJSONRows(os.Stdout, id, tables); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "(%s completed in %v)\n", id, time.Since(start).Round(time.Millisecond))
			continue
		}
		for _, t := range tables {
			t.Render(os.Stdout)
		}
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	if cfg.Trace != nil {
		if err := writeTrace(f.tracePath, cfg.Trace); err != nil {
			fmt.Fprintf(os.Stderr, "amacbench: %v\n", err)
			os.Exit(1)
		}
	}
	if cfg.Metrics != nil {
		if err := writeMetrics(f.metPath, cfg.Metrics); err != nil {
			fmt.Fprintf(os.Stderr, "amacbench: %v\n", err)
			os.Exit(1)
		}
	}
	if cfg.Profile != nil {
		if err := writeProfiles(f.profPath, f.flamePath, cfg.Profile); err != nil {
			fmt.Fprintf(os.Stderr, "amacbench: %v\n", err)
			os.Exit(1)
		}
	}
}

// validateFlags checks the whole command line before any file is created or
// workload built, so that every bad combination exits 2 with one message
// instead of panicking mid-run or silently ignoring a knob. visit is
// flag.Visit: it sees only the flags actually set.
func validateFlags(f cliFlags, visit func(func(*flag.Flag))) error {
	if _, ok := experiments.Find(f.exp); !ok && f.exp != "all" {
		return fmt.Errorf("%w %q", errUnknownExperiment, f.exp)
	}
	if err := validateExplicitZero(visit); err != nil {
		return err
	}
	for _, n := range []struct {
		name string
		v    int
	}{
		{"window", f.window}, {"workers", f.workers}, {"qcap", f.qcap},
		{"parallel", f.parallel}, {"burst", f.burst}, {"pipecap", f.pipeCap},
	} {
		if n.v < 0 {
			return fmt.Errorf("-%s must be non-negative, got %d", n.name, n.v)
		}
	}
	_, scaleErr := experiments.ParseScale(f.scale)
	_, arrivalsErr := serve.ParseArrivals(f.arrivals, 1)
	for _, err := range []error{
		scaleErr,
		arrivalsErr,
		validateServingFlags(f.exp, f.arrivals, f.qcap),
		experiments.ValidatePipePlans(f.plans),
		validatePipelineFlags(f.exp, f.plans, f.burst, f.pipeCap),
		validateObsFlags(f.exp, f.tracePath, f.metPath, f.metEvery),
		validateProfFlags(f.exp, f.profPath, f.flamePath),
		validateFaultFlags(f.exp, f.faults, f.slo, f.deadline),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

// writeTrace exports the accumulated event trace as Chrome trace-event JSON
// (Perfetto-loadable) and reports what was written on stderr, keeping stdout
// clean for -json pipelines.
func writeTrace(path string, tr *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	events := 0
	for _, c := range tr.Cores() {
		events += c.Len()
	}
	fmt.Fprintf(os.Stderr, "trace: wrote %s (%d core(s), %d event(s))\n", path, len(tr.Cores()), events)
	return nil
}

// writeMetrics exports the sampled gauge time series as JSON Lines.
func writeMetrics(path string, m *obs.Metrics) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteJSONL(f); err != nil {
		f.Close()
		return fmt.Errorf("writing metrics %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	samples := 0
	for _, c := range m.Cores() {
		samples += c.Samples()
	}
	fmt.Fprintf(os.Stderr, "metrics: wrote %s (%d core(s), %d sample(s))\n", path, len(m.Cores()), samples)
	return nil
}

// writeProfiles exports the accumulated cycle attribution: a gzipped pprof
// proto (-profile) and/or folded flamegraph stacks (-flame), reporting what
// was written on stderr so stdout stays clean for -json pipelines.
func writeProfiles(profPath, flamePath string, pr *prof.Profile) error {
	write := func(path, kind string, export func(f *os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := export(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s %s: %w", kind, path, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: wrote %s (%d core(s), %d attributed cycle(s))\n",
			kind, path, len(pr.Cores()), pr.TotalCycles())
		return nil
	}
	if profPath != "" {
		if err := write(profPath, "profile", func(f *os.File) error { return pr.WritePprof(f) }); err != nil {
			return err
		}
	}
	if flamePath != "" {
		if err := write(flamePath, "flame", func(f *os.File) error { return pr.WriteFolded(f) }); err != nil {
			return err
		}
	}
	return nil
}

// validateExplicitZero rejects knobs explicitly set to zero on the command
// line. Zero means "use the default" for these flags, so an explicit zero is
// always a mistake the run would otherwise silently ignore; flag.Visit sees
// only flags actually set, which is what distinguishes `-qcap 0` from no
// -qcap at all.
func validateExplicitZero(visit func(func(*flag.Flag))) error {
	var bad string
	visit(func(f *flag.Flag) {
		if bad != "" {
			return
		}
		switch f.Name {
		case "seed", "deadline", "qcap", "pipecap", "metrics-interval", "slo":
			if f.Value.String() == "0" {
				bad = f.Name
			}
		}
	})
	if bad != "" {
		return fmt.Errorf("-%s 0 is meaningless (zero selects the default; drop the flag instead)", bad)
	}
	return nil
}

// servingExperiments are the experiment ids whose runs consume the serving
// flags: -arrivals selects their traffic shape and -qcap their queue bound.
// Every other experiment ignores both.
var servingExperiments = map[string]bool{
	"serveN": true,
	"adaptN": true,
	"faultN": true,
}

// validateServingFlags rejects -arrivals/-qcap combinations that would
// silently no-op: the flags only affect the serving experiments, so asking
// for them alongside a non-serving experiment is a mistake, not a preference.
func validateServingFlags(exp, arrivals string, qcap int) error {
	if arrivals == "" && qcap == 0 {
		return nil
	}
	set := "-arrivals"
	if arrivals == "" {
		set = "-qcap"
	} else if qcap != 0 {
		set = "-arrivals/-qcap"
	}
	if exp == "all" || servingExperiments[exp] {
		return nil
	}
	return fmt.Errorf("%s only affects the serving experiments (serveN, adaptN, faultN), not %q; drop the flag or pick a serving experiment", set, exp)
}

// pipelineExperiments are the experiment ids whose runs consume the pipeline
// flags: -plans filters their plan set, -burst and -pipecap override the pump
// geometry. Every other experiment ignores all three.
var pipelineExperiments = map[string]bool{
	"pipeN": true,
}

// validatePipelineFlags rejects -plans/-burst/-pipecap combinations that
// would silently no-op, mirroring validateServingFlags: the flags only affect
// the pipeline experiments, so asking for them alongside anything else is a
// mistake, not a preference.
func validatePipelineFlags(exp, plans string, burst, pipeCap int) error {
	if plans == "" && burst == 0 && pipeCap == 0 {
		return nil
	}
	var set []string
	if plans != "" {
		set = append(set, "-plans")
	}
	if burst != 0 {
		set = append(set, "-burst")
	}
	if pipeCap != 0 {
		set = append(set, "-pipecap")
	}
	s := strings.Join(set, "/")
	if exp == "all" || pipelineExperiments[exp] {
		return nil
	}
	return fmt.Errorf("%s only affects the pipeline experiment (pipeN), not %q; drop the flag or pick the pipeline experiment", s, exp)
}

// traceExperiments are the experiment ids with a designated trace cell: the
// one run per experiment that a non-nil Config.Trace records.
var traceExperiments = map[string]bool{
	"serveN": true,
	"adaptN": true,
	"pipeN":  true,
	"obsN":   true,
	"faultN": true,
}

// metricsExperiments are the experiment ids whose designated cell samples the
// gauge time series (the serving experiments and the observability replay;
// pipeN's batch pipelines have no per-worker gauge set).
var metricsExperiments = map[string]bool{
	"serveN": true,
	"adaptN": true,
	"obsN":   true,
	"faultN": true,
}

// validateObsFlags rejects -trace/-metrics/-metrics-interval combinations
// that would silently produce an empty or meaningless export, mirroring the
// serving and pipeline flag guards: the sinks record one experiment's
// designated cell, so they need exactly one experiment that has one, and an
// interval is meaningless without a metrics file to sample into.
func validateObsFlags(exp, trace, metrics string, interval int) error {
	if interval < 0 {
		return fmt.Errorf("-metrics-interval must be non-negative, got %d", interval)
	}
	if interval > 0 && metrics == "" {
		return fmt.Errorf("-metrics-interval requires -metrics (there is no series to sample into)")
	}
	if trace == "" && metrics == "" {
		return nil
	}
	var set []string
	if trace != "" {
		set = append(set, "-trace")
	}
	if metrics != "" {
		set = append(set, "-metrics")
	}
	s := strings.Join(set, "/")
	if exp == "all" {
		return fmt.Errorf("%s needs a single experiment, not -exp all (each file holds one experiment's designated cell)", s)
	}
	if trace != "" && !traceExperiments[exp] {
		return fmt.Errorf("-trace only records the serving, pipeline and observability experiments (serveN, adaptN, pipeN, obsN, faultN), not %q", exp)
	}
	if metrics != "" && !metricsExperiments[exp] {
		return fmt.Errorf("-metrics only samples the serving and observability experiments (serveN, adaptN, obsN, faultN), not %q", exp)
	}
	return nil
}

// profExperiments are the experiment ids with a designated profile cell: the
// one run per experiment that a non-nil Config.Profile attributes.
var profExperiments = map[string]bool{
	"profN":  true,
	"serveN": true,
}

// validateProfFlags rejects -profile/-flame combinations that would silently
// produce an empty export, mirroring validateObsFlags: the profiler records
// one experiment's designated cell, so it needs exactly one experiment that
// has one.
func validateProfFlags(exp, profPath, flamePath string) error {
	if profPath == "" && flamePath == "" {
		return nil
	}
	var set []string
	if profPath != "" {
		set = append(set, "-profile")
	}
	if flamePath != "" {
		set = append(set, "-flame")
	}
	s := strings.Join(set, "/")
	if exp == "all" {
		return fmt.Errorf("%s needs a single experiment, not -exp all (each file holds one experiment's designated cell)", s)
	}
	if !profExperiments[exp] {
		return fmt.Errorf("%s only records the profiling experiments (profN, serveN), not %q", s, exp)
	}
	return nil
}

// faultExperiments are the experiment ids whose runs consume the fault
// flags: -faults scripts their chaos schedule, -deadline and -slo override
// the derived cycle budgets. Every other experiment ignores all three.
var faultExperiments = map[string]bool{
	"faultN": true,
}

// validateFaultFlags rejects -faults/-deadline/-slo combinations that would
// silently no-op, mirroring the other flag guards, and parses the -faults
// spec up front so a malformed schedule fails before any workload is built.
func validateFaultFlags(exp, faults string, slo, deadline int) error {
	if deadline < 0 {
		return fmt.Errorf("-deadline must be non-negative, got %d", deadline)
	}
	if slo < 0 {
		return fmt.Errorf("-slo must be non-negative, got %d", slo)
	}
	if faults != "" {
		if _, err := fault.ParseSpec(faults); err != nil {
			return fmt.Errorf("-faults: %v", err)
		}
	}
	if faults == "" && slo == 0 && deadline == 0 {
		return nil
	}
	var set []string
	if faults != "" {
		set = append(set, "-faults")
	}
	if deadline != 0 {
		set = append(set, "-deadline")
	}
	if slo != 0 {
		set = append(set, "-slo")
	}
	s := strings.Join(set, "/")
	if exp == "all" || faultExperiments[exp] {
		return nil
	}
	return fmt.Errorf("%s only affects the fault experiment (faultN), not %q; drop the flag or pick the fault experiment", s, exp)
}

// listExperiments prints every registered experiment id and title.
func listExperiments(w *os.File) {
	fmt.Fprintln(w, "Available experiments:")
	for _, d := range experiments.Registry() {
		fmt.Fprintf(w, "  %-12s %s\n", d.ID, d.Title)
	}
}
