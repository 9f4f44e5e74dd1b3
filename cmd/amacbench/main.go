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
//	amacbench -exp pipeN -plans mixed   # one plan only
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
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"amac/internal/experiments"
	"amac/internal/fault"
	"amac/internal/obs"
	"amac/internal/prof"
	"amac/internal/serve"
	"amac/internal/table"
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
	defineFlags(flag.CommandLine, &f)
	flag.Parse()

	if err := validateFlags(f, flag.Visit); err != nil {
		fmt.Fprintf(os.Stderr, "amacbench: %v\n", err)
		if errors.Is(err, errUnknownExperiment) {
			fmt.Fprintln(os.Stderr)
			listExperiments(os.Stderr)
		}
		os.Exit(2)
	}
	if f.list || f.exp == "" {
		listExperiments(os.Stdout)
		if !f.list {
			fmt.Println("\nrun with -exp <id> or -exp all")
		}
		return
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
		Plans: f.plans, Faults: f.faults, Deadline: f.deadline, SLOBudget: f.slo,
	}
	if f.tracePath != "" {
		cfg.Sinks.Trace = obs.NewTrace(0)
	}
	if f.metPath != "" {
		cfg.Sinks.Metrics = obs.NewMetrics(f.metEvery)
	}
	if f.profPath != "" || f.flamePath != "" {
		cfg.Sinks.Profile = prof.NewProfile()
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
			if err := table.WriteJSONRows(os.Stdout, id, tables); err != nil {
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

	if err := writeExports(f, cfg.Sinks); err != nil {
		fmt.Fprintf(os.Stderr, "amacbench: %v\n", err)
		os.Exit(1)
	}
}

// defineFlags registers every command-line flag on fs, bound to f.
func defineFlags(fs *flag.FlagSet, f *cliFlags) {
	fs.BoolVar(&f.list, "list", false, "list available experiments and exit")
	fs.StringVar(&f.exp, "exp", "", "experiment id to run, or \"all\"")
	fs.StringVar(&f.scale, "scale", "small", "dataset scale: tiny, small or paper")
	fs.Uint64Var(&f.seed, "seed", 42, "workload generation seed")
	fs.IntVar(&f.window, "window", 0, "override the number of in-flight lookups (0 = per-experiment default)")
	fs.IntVar(&f.workers, "workers", 0, "scaleN's worker sweep cap (0 = default sweep 1,2,4,8,16); the worker count of serveN, adaptN and faultN")
	fs.IntVar(&f.parallel, "parallel", 0, "host workers for independent sweep points (0 = all cores, 1 = serial); results are identical for every value")
	fs.StringVar(&f.arrivals, "arrivals", "", "serving arrival process: deterministic, poisson (default) or bursty")
	fs.IntVar(&f.qcap, "qcap", 0, "bound the serving admission queue and drop on overflow (0 = unbounded blocking queue)")
	fs.StringVar(&f.plans, "plans", "", "pipeline plan filter: comma-separated case-insensitive substrings of pipeN plan names (empty = every plan)")
	fs.StringVar(&f.faults, "faults", "", "faultN chaos schedule: comma-separated \"kind:shard@start+dur[xfactor]\" episodes or \"rand:SEED[:N]\" with N <= 4096 (empty = default scenario)")
	fs.IntVar(&f.deadline, "deadline", 0, "faultN per-request deadline in cycles (0 = derive 2x the clean-run p99)")
	fs.IntVar(&f.slo, "slo", 0, "faultN p99 SLO budget in cycles; enables the brownout row (0 = omit it)")
	fs.BoolVar(&f.jsonOut, "json", false, "emit results as JSON Lines (one object per table row) instead of text tables")
	fs.StringVar(&f.tracePath, "trace", "", "write a Chrome/Perfetto trace of the experiment's designated cell to this file")
	fs.StringVar(&f.metPath, "metrics", "", "write the designated cell's gauge time series to this file as JSON Lines")
	fs.IntVar(&f.metEvery, "metrics-interval", 0, "metrics sampling period in simulated cycles (0 = default 4096); requires -metrics")
	fs.StringVar(&f.profPath, "profile", "", "write the designated cell's cycle-attribution profile to this file as a gzipped pprof proto (go tool pprof)")
	fs.StringVar(&f.flamePath, "flame", "", "write the designated cell's cycle attribution to this file as folded flamegraph stacks (flamegraph.pl, speedscope)")
	fs.StringVar(&f.cpuProf, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&f.memProf, "memprofile", "", "write a heap profile at exit to this file")
}

// flagScopes maps every experiment-specific flag to the Uses bit an
// experiment must declare for the flag to reach it; the registry's Uses
// declarations are the only record of which experiment reads what. withAll
// marks the knobs -exp all may carry (the experiments that do not read them
// run unchanged); a sink file holds one experiment's designated cell, so the
// sink flags need a single experiment.
var flagScopes = []struct {
	flag    string
	use     experiments.Uses
	withAll bool
	verb    string
}{
	{"workers", experiments.UsesWorkers, true, "affects"},
	{"arrivals", experiments.UsesServing, true, "affects"},
	{"qcap", experiments.UsesServing, true, "affects"},
	{"plans", experiments.UsesPipeline, true, "affects"},
	{"faults", experiments.UsesFaults, true, "affects"},
	{"deadline", experiments.UsesFaults, true, "affects"},
	{"slo", experiments.UsesFaults, true, "affects"},
	{"trace", experiments.UsesTrace, false, "records"},
	{"metrics", experiments.UsesMetrics, false, "samples"},
	{"profile", experiments.UsesProfile, false, "records"},
	{"flame", experiments.UsesProfile, false, "records"},
}

// validateFlags checks the whole command line before any file is created or
// workload built, so that every bad combination exits 2 with one message
// instead of panicking mid-run or silently ignoring a knob. visit is
// flag.Visit: it sees only the flags actually set.
func validateFlags(f cliFlags, visit func(func(*flag.Flag))) error {
	set := map[string]bool{}
	var first string // the first set flag, in lexical order, that needs -exp
	visit(func(fl *flag.Flag) {
		set[fl.Name] = true
		if first == "" && fl.Name != "list" && fl.Name != "exp" {
			first = fl.Name
		}
	})
	d, found := experiments.Find(f.exp)
	switch {
	case f.exp == "" && first != "":
		return fmt.Errorf("-%s needs -exp <id> or -exp all", first)
	case f.exp != "" && f.exp != "all" && !found:
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
		{"parallel", f.parallel},
		{"deadline", f.deadline}, {"slo", f.slo}, {"metrics-interval", f.metEvery},
	} {
		if n.v < 0 {
			return fmt.Errorf("-%s must be non-negative, got %d", n.name, n.v)
		}
	}
	_, scaleErr := experiments.ParseScale(f.scale)
	_, arrivalsErr := serve.ParseArrivals(f.arrivals, 1)
	for _, err := range []error{scaleErr, arrivalsErr, experiments.ValidatePipePlans(f.plans)} {
		if err != nil {
			return err
		}
	}
	if f.faults != "" {
		if _, err := fault.ParseSpec(f.faults); err != nil {
			return fmt.Errorf("-faults: %v", err)
		}
	}
	if set["metrics-interval"] && !set["metrics"] {
		return fmt.Errorf("-metrics-interval requires -metrics (there is no series to sample into)")
	}

	// Out-of-scope flags: report every offender of the first failing kind
	// together, e.g. "-arrivals/-qcap".
	var bad []string
	var badUse experiments.Uses
	verb := ""
	for _, s := range flagScopes {
		if !set[s.flag] {
			continue
		}
		if f.exp == "all" {
			if !s.withAll {
				bad = append(bad, "-"+s.flag)
			}
			continue
		}
		if d.Uses&s.use != 0 || (badUse != 0 && s.use != badUse) {
			continue
		}
		badUse, verb = s.use, s.verb
		bad = append(bad, "-"+s.flag)
	}
	switch {
	case len(bad) == 0:
		return nil
	case f.exp == "all":
		return fmt.Errorf("%s needs a single experiment, not -exp all (each file holds one experiment's designated cell)", strings.Join(bad, "/"))
	default:
		return fmt.Errorf("%s only %s the %v experiments (%s), not %q; drop the flag or pick one of those",
			strings.Join(bad, "/"), verb, badUse, strings.Join(experiments.Using(badUse), ", "), f.exp)
	}
}

// writeExports writes every export the run's sinks collected and reports
// each on stderr, keeping stdout clean for -json pipelines.
func writeExports(f cliFlags, s obs.Sinks) error {
	profiled := func() string {
		return fmt.Sprintf("%d core(s), %d attributed cycle(s)", len(s.Profile.Cores()), s.Profile.TotalCycles())
	}
	exports := []struct {
		path, kind string
		write      func(io.Writer) error
		summary    func() string
	}{
		{f.tracePath, "trace", s.Trace.WriteChrome, func() string {
			events := 0
			for _, c := range s.Trace.Cores() {
				events += c.Len()
			}
			return fmt.Sprintf("%d core(s), %d event(s)", len(s.Trace.Cores()), events)
		}},
		{f.metPath, "metrics", s.Metrics.WriteJSONL, func() string {
			samples := 0
			for _, c := range s.Metrics.Cores() {
				samples += c.Samples()
			}
			return fmt.Sprintf("%d core(s), %d sample(s)", len(s.Metrics.Cores()), samples)
		}},
		{f.profPath, "profile", s.Profile.WritePprof, profiled},
		{f.flamePath, "flame", s.Profile.WriteFolded, profiled},
	}
	for _, e := range exports {
		if e.path == "" {
			continue
		}
		out, err := os.Create(e.path)
		if err != nil {
			return err
		}
		if err := e.write(out); err != nil {
			out.Close()
			return fmt.Errorf("writing %s %s: %w", e.kind, e.path, err)
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: wrote %s (%s)\n", e.kind, e.path, e.summary())
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
		case "seed", "deadline", "qcap", "metrics-interval", "slo":
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

// listExperiments prints every registered experiment id and title.
func listExperiments(w *os.File) {
	fmt.Fprintln(w, "Available experiments:")
	for _, d := range experiments.Registry() {
		fmt.Fprintf(w, "  %-12s %s\n", d.ID, d.Title)
	}
}
