// Command bench is the repository's benchmark: five workloads run through
// the public amac API, each checked against a reference, reporting host-clock
// and simulated-clock end-to-end metrics, and per-layer metrics from a
// separate traced run. See README.md for the catalogue.
//
//	bash bench/run.sh --workload join-dram --seed 42 --seconds 20 --trace 0
//	bash bench/run.sh                    # every workload, one child process each
//	bash bench/run.sh -compare a.jsonl b.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// reportPrefix marks the line carrying a run's full report on standard
// output; the last line is the short result object.
const reportPrefix = "REPORT "

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run in this process (empty: every workload, each in a child process)")
	seed := fs.Uint64("seed", 42, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 20, "host seconds of timed passes per workload")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "directory a traced run writes <workload>/spans.jsonl and cpu.pb.gz to")
	out := fs.String("out", "", "append each workload's full report to this file, one JSON object per line")
	compare := fs.Bool("compare", false, "compare two report files given as arguments: -compare A.jsonl B.jsonl")
	bounds := fs.String("bounds", "BENCHMARK.json", "benchmark definition whose bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two report files")
			return 2
		}
		return compareSets(stdout, *bounds, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: want --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir}

	var reps []report
	if *name == "" {
		var err error
		if reps, err = runChildren(cfg, stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	} else {
		wl, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		rep, err := runWorkload(wl, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printReport(stdout, rep)
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s%s\n", reportPrefix, line)
		reps = []report{rep}
	}
	if *out != "" {
		if err := appendReports(*out, reps); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	ok, err := printResult(stdout, reps, *name == "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// printReport prints every metric with its unit and sample count, then the
// digest and the failure account.
func printReport(w io.Writer, rep report) {
	fmt.Fprintf(w, "workload %s seed %d trace %v\n", rep.Workload, rep.Seed, rep.Trace)
	for _, m := range rep.Metrics {
		fmt.Fprintf(w, "  %-44s %18.6f %-8s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	fmt.Fprintf(w, "  sim_digest %s\n", rep.SimDigest)
	fmt.Fprintf(w, "  ops_failed %d of ops_attempted %d\n", rep.Failed, rep.Attempted)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints the result line. With several workloads, metric names
// are prefixed by the workload. It reports whether every check passed.
func printResult(w io.Writer, reps []report, prefixed bool) (bool, error) {
	res := result{Correct: true, Metrics: map[string]resultValue{}}
	for _, rep := range reps {
		res.Attempted += rep.Attempted
		res.Failed += rep.Failed
		for _, m := range rep.Metrics {
			key := m.Name
			if prefixed {
				key = rep.Workload + "/" + m.Name
			}
			res.Metrics[key] = resultValue{m.Value, m.Unit}
		}
	}
	res.Correct = res.Failed == 0 && len(reps) > 0
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return res.Correct, nil
}

// runChildren runs every workload, one after another, each in a fresh child
// process of this binary, and collects their reports.
func runChildren(cfg runConfig, stdout io.Writer) ([]report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	var reps []report
	for _, wl := range workloads {
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		cmd := exec.Command(self, "--workload", wl.name,
			"--seed", strconv.FormatUint(cfg.seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"--trace", trace, "--trace-dir", cfg.traceDir)
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start %s: %w", wl.name, err)
		}
		var rep *report
		sc := bufio.NewScanner(pipe)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		var lines []string
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		scanErr := sc.Err()
		waitErr := cmd.Wait()
		// Forward everything but the child's own result line.
		for i, line := range lines {
			if body, ok := strings.CutPrefix(line, reportPrefix); ok {
				var r report
				if err := json.Unmarshal([]byte(body), &r); err != nil {
					return nil, fmt.Errorf("%s report: %w", wl.name, err)
				}
				rep = &r
				continue
			}
			if i < len(lines)-1 {
				fmt.Fprintln(stdout, line)
			}
		}
		if scanErr != nil {
			return nil, fmt.Errorf("read %s output: %w", wl.name, scanErr)
		}
		var exitErr *exec.ExitError
		if waitErr != nil && !errors.As(waitErr, &exitErr) {
			return nil, fmt.Errorf("wait for %s: %w", wl.name, waitErr)
		}
		if rep == nil {
			return nil, fmt.Errorf("%s printed no report (%v)", wl.name, waitErr)
		}
		reps = append(reps, *rep)
	}
	return reps, nil
}

// appendReports appends reports to a set file, one JSON object per line.
func appendReports(path string, reps []report) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("open report file: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, r := range reps {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return fmt.Errorf("write report: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close report file: %w", err)
	}
	return nil
}
