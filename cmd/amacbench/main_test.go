package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"amac/internal/experiments"
	"amac/internal/obs"
)

// validateArgs parses a command line the way main does and validates it.
func validateArgs(args ...string) error {
	var f cliFlags
	fs := flag.NewFlagSet("amacbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	defineFlags(fs, &f)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return validateFlags(f, fs.Visit)
}

// validateCase is one command line and the validator's verdict on it.
type validateCase struct {
	name    string
	args    []string
	wantErr string // substring; empty means valid
}

// checkValidate runs each case's command line through validateFlags.
func checkValidate(t *testing.T, cases []validateCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateArgs(tc.args...)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected an error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// checkScope runs args against every registered experiment: the validator
// must accept them exactly when the experiment's Uses declares use, and a
// rejection must name every experiment that does.
func checkScope(t *testing.T, use experiments.Uses, args ...string) {
	t.Helper()
	users := strings.Join(experiments.Using(use), ", ")
	if users == "" {
		t.Fatalf("no registered experiment declares %v", use)
	}
	for _, d := range experiments.Registry() {
		err := validateArgs(append([]string{"-exp", d.ID}, args...)...)
		switch {
		case d.Uses&use != 0 && err != nil:
			t.Errorf("%s declares %v but %v is rejected: %v", d.ID, use, args, err)
		case d.Uses&use == 0 && err == nil:
			t.Errorf("%s does not declare %v but %v is accepted", d.ID, use, args)
		case err != nil && !strings.Contains(err.Error(), "("+users+")"):
			t.Errorf("%s: error %q does not list %s", d.ID, err, users)
		}
	}
}

// TestValidateServingFlags: -arrivals/-qcap must be rejected whenever they
// would silently no-op — any experiment that does not declare UsesServing —
// and accepted for the serving experiments and -exp all.
func TestValidateServingFlags(t *testing.T) {
	checkValidate(t, []validateCase{
		{"no serving flags", []string{"-exp", "fig6"}, ""},
		{"serveN with arrivals", []string{"-exp", "serveN", "-arrivals", "bursty"}, ""},
		{"serveN with qcap", []string{"-exp", "serveN", "-qcap", "64"}, ""},
		{"adaptN with both", []string{"-exp", "adaptN", "-arrivals", "poisson", "-qcap", "32"}, ""},
		{"pipeN with both", []string{"-exp", "pipeN", "-arrivals", "bursty", "-qcap", "16"}, ""},
		{"all includes serving", []string{"-exp", "all", "-arrivals", "deterministic"}, ""},
		{"fig6 with arrivals", []string{"-exp", "fig6", "-arrivals", "bursty"}, "-arrivals only affects"},
		{"fig5b with qcap", []string{"-exp", "fig5b", "-qcap", "8"}, "-qcap only affects"},
		{"table3 with both", []string{"-exp", "table3", "-arrivals", "poisson", "-qcap", "4"}, "-arrivals/-qcap only affects"},
		{"scaleN with qcap", []string{"-exp", "scaleN", "-qcap", "16"}, "only affects the serving experiments"},
	})
}

// TestServingExperimentsRegistered: the serving flags reach exactly the
// experiments whose Uses declares UsesServing.
func TestServingExperimentsRegistered(t *testing.T) {
	checkScope(t, experiments.UsesServing, "-arrivals", "bursty", "-qcap", "8")
}

// TestValidatePipelineFlags: -plans must be rejected whenever it would
// silently no-op — any non-pipeline experiment — and accepted for the
// pipeline experiment and -exp all. The removed pump-geometry flags
// -burst/-pipecap fail in the flag parser.
func TestValidatePipelineFlags(t *testing.T) {
	checkValidate(t, []validateCase{
		{"no pipeline flags", []string{"-exp", "fig6"}, ""},
		{"pipeN with plans", []string{"-exp", "pipeN", "-plans", "mixed"}, ""},
		{"pipeN with burst", []string{"-exp", "pipeN", "-burst", "32"}, "flag provided but not defined: -burst"},
		{"pipeN with pipecap", []string{"-exp", "pipeN", "-pipecap", "64"}, "flag provided but not defined: -pipecap"},
		{"pipeN with all three", []string{"-exp", "pipeN", "-plans", "bst,chain", "-burst", "16", "-pipecap", "32"}, "flag provided but not defined: -burst"},
		{"all includes pipeline", []string{"-exp", "all", "-plans", "chain"}, ""},
		{"fig6 with plans", []string{"-exp", "fig6", "-plans", "mixed"}, "-plans only affects"},
		{"fig5b with burst", []string{"-exp", "fig5b", "-burst", "8"}, "flag provided but not defined: -burst"},
		{"serveN with pipecap", []string{"-exp", "serveN", "-pipecap", "8"}, "flag provided but not defined: -pipecap"},
		{"table3 with plans and burst", []string{"-exp", "table3", "-plans", "agg", "-burst", "8"}, "flag provided but not defined: -burst"},
		{"scaleN with all three", []string{"-exp", "scaleN", "-plans", "bst", "-burst", "4", "-pipecap", "8"}, "flag provided but not defined: -burst"},
	})
}

// TestPipelineExperimentsRegistered: -plans reaches exactly the experiments
// whose Uses declares UsesPipeline.
func TestPipelineExperimentsRegistered(t *testing.T) {
	checkScope(t, experiments.UsesPipeline, "-plans", "mixed")
}

// TestWorkersExperimentsRegistered: -workers reaches exactly the experiments
// whose Uses declares UsesWorkers, and -exp all may carry it.
func TestWorkersExperimentsRegistered(t *testing.T) {
	checkScope(t, experiments.UsesWorkers, "-workers", "2")
	if err := validateArgs("-exp", "all", "-workers", "2"); err != nil {
		t.Fatalf("-exp all -workers 2: %v", err)
	}
}

// TestValidateObsFlags: -trace/-metrics/-metrics-interval must be rejected
// whenever they would silently produce an empty or meaningless export — an
// experiment that does not declare the sink, -exp all, or an interval with
// no metrics file — and accepted for the experiments that declare it.
func TestValidateObsFlags(t *testing.T) {
	checkValidate(t, []validateCase{
		{"no obs flags", []string{"-exp", "fig6"}, ""},
		{"serveN with trace", []string{"-exp", "serveN", "-trace", "t.json"}, ""},
		{"adaptN with trace and metrics", []string{"-exp", "adaptN", "-trace", "t.json", "-metrics", "m.jsonl"}, ""},
		{"pipeN with trace", []string{"-exp", "pipeN", "-trace", "t.json"}, ""},
		{"obsN with everything", []string{"-exp", "obsN", "-trace", "t.json", "-metrics", "m.jsonl", "-metrics-interval", "2048"}, ""},
		{"obsN metrics only", []string{"-exp", "obsN", "-metrics", "m.jsonl"}, ""},
		{"negative interval", []string{"-exp", "obsN", "-metrics", "m.jsonl", "-metrics-interval", "-1"}, "must be non-negative"},
		{"interval without metrics", []string{"-exp", "obsN", "-trace", "t.json", "-metrics-interval", "2048"}, "-metrics-interval requires -metrics"},
		{"trace with fig6", []string{"-exp", "fig6", "-trace", "t.json"}, "-trace only records"},
		{"metrics with fig5b", []string{"-exp", "fig5b", "-metrics", "m.jsonl"}, "-metrics only samples"},
		// pipeN's designated core gets the shared gauges from obs.Sinks.Attach.
		{"metrics with pipeN", []string{"-exp", "pipeN", "-metrics", "m.jsonl"}, ""},
		{"metrics with profN", []string{"-exp", "profN", "-metrics", "m.jsonl"}, "-metrics only samples"},
		{"trace with exp all", []string{"-exp", "all", "-trace", "t.json"}, "not -exp all"},
		{"metrics with exp all", []string{"-exp", "all", "-metrics", "m.jsonl"}, "not -exp all"},
	})
}

// TestObsExperimentsRegistered: -trace and -metrics each reach exactly the
// experiments whose Uses declares that sink.
func TestObsExperimentsRegistered(t *testing.T) {
	checkScope(t, experiments.UsesTrace, "-trace", "t.json")
	checkScope(t, experiments.UsesMetrics, "-metrics", "m.jsonl")
}

// TestValidateProfFlags: -profile/-flame must be rejected whenever they
// would silently produce an empty export — an experiment that does not
// declare UsesProfile, or -exp all — and accepted for the experiments that
// declare it.
func TestValidateProfFlags(t *testing.T) {
	checkValidate(t, []validateCase{
		{"no prof flags", []string{"-exp", "fig6"}, ""},
		{"profN with profile", []string{"-exp", "profN", "-profile", "p.pb.gz"}, ""},
		{"profN with flame", []string{"-exp", "profN", "-flame", "f.txt"}, ""},
		{"profN with both", []string{"-exp", "profN", "-profile", "p.pb.gz", "-flame", "f.txt"}, ""},
		{"serveN with flame", []string{"-exp", "serveN", "-flame", "f.txt"}, ""},
		{"profile with fig6", []string{"-exp", "fig6", "-profile", "p.pb.gz"}, "-profile only records"},
		// obsN and adaptN profile their designated cells through obs.Sinks.Attach.
		{"flame with obsN", []string{"-exp", "obsN", "-flame", "f.txt"}, ""},
		{"flame with fig5b", []string{"-exp", "fig5b", "-flame", "f.txt"}, "-flame only records"},
		{"both with adaptN", []string{"-exp", "adaptN", "-profile", "p.pb.gz", "-flame", "f.txt"}, ""},
		{"both with table3", []string{"-exp", "table3", "-profile", "p.pb.gz", "-flame", "f.txt"}, "-profile/-flame only records"},
		{"profile with exp all", []string{"-exp", "all", "-profile", "p.pb.gz"}, "not -exp all"},
	})
}

// TestProfExperimentsRegistered: -profile/-flame reach exactly the
// experiments whose Uses declares UsesProfile.
func TestProfExperimentsRegistered(t *testing.T) {
	checkScope(t, experiments.UsesProfile, "-profile", "p.pb.gz", "-flame", "f.txt")
}

// TestValidateExplicitZero: knobs whose zero value means "use the default"
// must reject an explicit `-flag 0` on the command line — it would silently
// behave as if the flag were absent — while an unset flag, a nonzero value,
// or an explicit zero on an unrelated flag all pass. The removed -pipecap
// fails in the flag parser.
func TestValidateExplicitZero(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring; empty means valid
	}{
		{name: "no flags", args: nil},
		{name: "nonzero qcap", args: []string{"-qcap", "64"}},
		{name: "nonzero deadline and slo", args: []string{"-deadline", "6000", "-slo", "8000"}},
		{name: "unrelated zero", args: []string{"-window", "0"}},
		{name: "explicit zero qcap", args: []string{"-qcap", "0"}, wantErr: "-qcap 0 is meaningless"},
		{name: "explicit zero deadline", args: []string{"-deadline", "0"}, wantErr: "-deadline 0 is meaningless"},
		{name: "explicit zero slo", args: []string{"-slo", "0"}, wantErr: "-slo 0 is meaningless"},
		{name: "explicit zero pipecap", args: []string{"-pipecap", "0"}, wantErr: "flag provided but not defined: -pipecap"},
		{name: "explicit zero metrics-interval", args: []string{"-metrics-interval", "0"}, wantErr: "-metrics-interval 0 is meaningless"},
		{name: "zero among valid flags", args: []string{"-qcap", "32", "-slo", "0"}, wantErr: "-slo 0 is meaningless"},
		{name: "nonzero seed", args: []string{"-seed", "7"}},
		{name: "explicit zero seed", args: []string{"-seed", "0"}, wantErr: "-seed 0 is meaningless"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("amacbench", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			defineFlags(fs, &cliFlags{})
			err := fs.Parse(tc.args)
			if err == nil {
				err = validateExplicitZero(fs.Visit)
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected an error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestValidateFaultFlags: -faults/-deadline/-slo must be rejected whenever
// they would silently no-op — any non-fault experiment — or carry a malformed
// schedule or negative budget; and accepted for the fault experiment and
// -exp all.
func TestValidateFaultFlags(t *testing.T) {
	checkValidate(t, []validateCase{
		{"no fault flags", []string{"-exp", "fig6"}, ""},
		{"faultN plain", []string{"-exp", "faultN"}, ""},
		{"faultN with scripted schedule", []string{"-exp", "faultN", "-faults", "slow:0@20000+40000x4,crash:1@90000+30000"}, ""},
		{"faultN with random schedule", []string{"-exp", "faultN", "-faults", "rand:7:3"}, ""},
		{"faultN with deadline", []string{"-exp", "faultN", "-deadline", "6000"}, ""},
		{"faultN with slo", []string{"-exp", "faultN", "-slo", "8000"}, ""},
		{"all includes fault", []string{"-exp", "all", "-faults", "freeze:0@1000+2000"}, ""},
		{"malformed schedule", []string{"-exp", "faultN", "-faults", "slow:0@bogus"}, "-faults"},
		{"slow without factor", []string{"-exp", "faultN", "-faults", "slow:0@1000+2000"}, "-faults"},
		{"negative deadline", []string{"-exp", "faultN", "-deadline", "-1"}, "-deadline must be non-negative"},
		{"negative slo", []string{"-exp", "faultN", "-slo", "-5"}, "-slo must be non-negative"},
		{"fig6 with faults", []string{"-exp", "fig6", "-faults", "rand:1"}, "-faults only affects"},
		{"serveN with deadline", []string{"-exp", "serveN", "-deadline", "4000"}, "-deadline only affects"},
		{"serveN with slo", []string{"-exp", "serveN", "-slo", "4000"}, "-slo only affects"},
		{"table3 with all three", []string{"-exp", "table3", "-faults", "rand:1", "-slo", "2", "-deadline", "3"}, "-faults/-deadline/-slo only affects"},
	})
}

// TestFaultExperimentsRegistered: the fault flags reach exactly the
// experiments whose Uses declares UsesFaults.
func TestFaultExperimentsRegistered(t *testing.T) {
	checkScope(t, experiments.UsesFaults, "-faults", "rand:3", "-slo", "100", "-deadline", "100")
}

// TestTraceJSONRoundTrip runs the observability replay with a trace attached
// and parses the Chrome export back: the file must be a single valid JSON
// object in trace-event format, name its process and fixed tracks, carry
// decision instants on the controller track, and keep every track's B/E spans
// balanced (never more ends than begins).
func TestTraceJSONRoundTrip(t *testing.T) {
	tr := obs.NewTrace(0)
	if _, err := experiments.Run("obsN", experiments.Config{Scale: experiments.Tiny, Sinks: obs.Sinks{Trace: tr}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   uint64         `json:"ts"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want \"ms\"", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace export holds no events")
	}

	var haveProcess, haveController, haveDecision, haveSlotSpan bool
	depth := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "" {
			t.Fatalf("event %+v has no phase", ev)
		}
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			haveProcess = true
		case ev.Ph == "M" && ev.Name == "thread_name" && ev.Args["name"] == "controller":
			haveController = true
		case ev.Ph == "i" && ev.Tid == 0 && ev.Name == obs.DecisionName(obs.DecSwitch):
			haveDecision = true
		}
		key := fmt.Sprintf("%d/%d", ev.Pid, ev.Tid)
		switch ev.Ph {
		case "B":
			depth[key]++
			if ev.Tid >= 3 {
				haveSlotSpan = true
			}
		case "E":
			depth[key]--
			if depth[key] < 0 {
				t.Fatalf("track %s closes more spans than it opens", key)
			}
		}
	}
	if !haveProcess || !haveController {
		t.Fatalf("missing metadata: process=%v controller=%v", haveProcess, haveController)
	}
	if !haveDecision {
		t.Fatal("no technique-switch decision instant on the controller track (the shift workload must switch)")
	}
	if !haveSlotSpan {
		t.Fatal("no slot lifecycle span in the export")
	}
}

// TestValidatePipePlans: every -plans token must select at least one pipeN
// plan; matching is a case-insensitive substring over the plan names.
func TestValidatePipePlans(t *testing.T) {
	cases := []struct {
		name    string
		filter  string
		wantErr string
	}{
		{name: "empty filter", filter: ""},
		{name: "mixed", filter: "mixed"},
		{name: "case-insensitive", filter: "BST"},
		{name: "multiple tokens", filter: "agg, chain"},
		{name: "full name", filter: "probe→BST filter (steady)"},
		{name: "unknown token", filter: "mixed,nosuchplan", wantErr: "matches no pipeN plan"},
		{name: "empty token", filter: "mixed,,agg", wantErr: "empty token"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := experiments.ValidatePipePlans(tc.filter)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected an error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// runAsMainEnv makes the test binary run amacbench's main on its arguments
// instead of the tests, so the flag tests can drive the real command line.
const runAsMainEnv = "AMACBENCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runAmacbench runs amacbench with args in an empty working directory and
// returns its exit code, its standard error, and the names of the files it
// left in that directory.
func runAmacbench(t *testing.T, args ...string) (int, string, []string) {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), runAsMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	var exitErr *exec.ExitError
	if errors.As(err, &exitErr) {
		code = exitErr.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	return code, stderr.String(), files
}

// undefinedFlag starts the flag parser's message for a flag amacbench does
// not define.
const undefinedFlag = "flag provided but not defined: "

// panicTrace matches a Go panic's message or goroutine header, but not the
// flag usage text the parser prints for an undefined flag (it mentions "a
// goroutine blocking profile").
var panicTrace = regexp.MustCompile(`panic:|goroutine \d+ \[`)

// TestInvalidFlagMatrix runs amacbench on every kind of invalid command line:
// negative values, explicit zeros, unknown names, malformed specs, flags
// outside their experiment's scope and removed flags. Each must exit 2 with
// one amacbench: message (the flag parser's own message for a removed flag),
// never panic, and create no file before giving up.
func TestInvalidFlagMatrix(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the message after "amacbench: "
	}{
		{"negative window", []string{"-exp", "fig6", "-window", "-1"}, "-window must be non-negative"},
		{"negative workers", []string{"-exp", "scaleN", "-workers", "-2"}, "-workers must be non-negative"},
		{"negative parallel", []string{"-exp", "fig6", "-parallel", "-1"}, "-parallel must be non-negative"},
		{"negative qcap", []string{"-exp", "serveN", "-qcap", "-1"}, "-qcap must be non-negative"},
		{"negative burst", []string{"-exp", "pipeN", "-burst", "-1"}, undefinedFlag + "-burst"},
		{"negative pipecap", []string{"-exp", "pipeN", "-pipecap", "-8"}, undefinedFlag + "-pipecap"},
		{"negative deadline", []string{"-exp", "faultN", "-deadline", "-1"}, "-deadline must be non-negative"},
		{"negative slo", []string{"-exp", "faultN", "-slo", "-5"}, "-slo must be non-negative"},
		{"negative metrics interval", []string{"-exp", "obsN", "-metrics", "m.jsonl", "-metrics-interval", "-1"}, "-metrics-interval must be non-negative"},
		{"explicit zero seed", []string{"-exp", "fig3", "-seed", "0"}, "-seed 0 is meaningless"},
		{"explicit zero qcap", []string{"-exp", "serveN", "-qcap", "0"}, "-qcap 0 is meaningless"},
		{"explicit zero pipecap", []string{"-exp", "pipeN", "-pipecap", "0"}, undefinedFlag + "-pipecap"},
		{"explicit zero deadline", []string{"-exp", "faultN", "-deadline", "0"}, "-deadline 0 is meaningless"},
		{"explicit zero slo", []string{"-exp", "faultN", "-slo", "0"}, "-slo 0 is meaningless"},
		{"explicit zero metrics interval", []string{"-exp", "obsN", "-metrics", "m.jsonl", "-metrics-interval", "0"}, "-metrics-interval 0 is meaningless"},
		{"unknown experiment", []string{"-exp", "fig99"}, `unknown experiment "fig99"`},
		{"unknown scale", []string{"-exp", "fig6", "-scale", "huge"}, `unknown scale "huge"`},
		{"unknown arrivals", []string{"-exp", "serveN", "-arrivals", "uniform"}, `unknown arrival process "uniform"`},
		{"malformed faults", []string{"-exp", "faultN", "-faults", "slow:0@bogus"}, "-faults"},
		{"slow fault without factor", []string{"-exp", "faultN", "-faults", "slow:0@1000+2000"}, "-faults"},
		{"empty plans token", []string{"-exp", "pipeN", "-plans", "mixed,,agg"}, "empty token"},
		{"unknown plans token", []string{"-exp", "pipeN", "-plans", "nosuchplan"}, "matches no pipeN plan"},
		{"arrivals outside serving", []string{"-exp", "fig6", "-arrivals", "bursty"}, "-arrivals only affects"},
		{"burst outside pipeline", []string{"-exp", "fig6", "-burst", "8"}, undefinedFlag + "-burst"},
		{"workers outside its experiments", []string{"-exp", "fig12b", "-workers", "8"}, "-workers only affects the workers experiments (adaptN, faultN, scaleN, serveN)"},
		{"workers with pipeN", []string{"-exp", "pipeN", "-workers", "2"}, "-workers only affects the workers experiments (adaptN, faultN, scaleN, serveN)"},
		{"faults outside faultN", []string{"-exp", "serveN", "-faults", "rand:1"}, "-faults only affects"},
		{"trace outside its experiments", []string{"-exp", "fig6", "-trace", "t.json"}, "-trace only records"},
		{"trace with exp all", []string{"-exp", "all", "-trace", "t.json"}, "not -exp all"},
		{"metrics outside its experiments", []string{"-exp", "profN", "-metrics", "m.jsonl"}, "-metrics only samples"},
		{"metrics interval without metrics", []string{"-exp", "obsN", "-metrics-interval", "2048"}, "-metrics-interval requires -metrics"},
		{"profile outside its experiments", []string{"-exp", "fig6", "-profile", "p.pb.gz"}, "-profile only records"},
		{"flame with exp all", []string{"-exp", "all", "-flame", "f.txt"}, "not -exp all"},
		{"cpuprofile with a bad flag", []string{"-exp", "fig6", "-window", "-1", "-cpuprofile", "cpu.prof"}, "-window must be non-negative"},
		{"negative window without exp", []string{"-window", "-1"}, "-window needs -exp"},
		{"trace without exp", []string{"-trace", "t.json"}, "-trace needs -exp"},
		{"list with a bad flag", []string{"-list", "-window", "-1"}, "-window needs -exp"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr, files := runAmacbench(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit code %d, want 2; stderr:\n%s", code, stderr)
			}
			prefix := "amacbench: "
			if strings.HasPrefix(tc.wantErr, undefinedFlag) {
				prefix = undefinedFlag
			}
			if !strings.HasPrefix(stderr, prefix) || !strings.Contains(stderr, tc.wantErr) {
				t.Fatalf("stderr does not start with %q or lacks %q:\n%s", prefix, tc.wantErr, stderr)
			}
			if panicTrace.MatchString(stderr) {
				t.Fatalf("stderr shows a panic:\n%s", stderr)
			}
			if len(files) != 0 {
				t.Fatalf("rejected run created %v", files)
			}
		})
	}
}

// TestRemovedBenchFlags: the old benchmark-ledger flags are gone, so the
// flag parser rejects them with exit code 2.
func TestRemovedBenchFlags(t *testing.T) {
	for _, args := range [][]string{{"-bench"}, {"-bench", "-exp", "fig6"}} {
		code, stderr, _ := runAmacbench(t, args...)
		if code != 2 || !strings.Contains(stderr, undefinedFlag+args[0]) {
			t.Fatalf("%v: exit code %d, stderr:\n%s", args, code, stderr)
		}
	}
}

// TestListing: bare amacbench and amacbench -list print the experiment
// listing and exit 0.
func TestListing(t *testing.T) {
	for _, args := range [][]string{nil, {"-list"}} {
		code, stderr, files := runAmacbench(t, args...)
		if code != 0 || stderr != "" || len(files) != 0 {
			t.Fatalf("%v: exit code %d, files %v, stderr:\n%s", args, code, files, stderr)
		}
	}
}
