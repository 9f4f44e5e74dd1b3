package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"amac/internal/experiments"
	"amac/internal/obs"
)

// TestValidateServingFlags: -arrivals/-qcap must be rejected whenever they
// would silently no-op — any non-serving experiment — and accepted for the
// serving experiments and -exp all.
func TestValidateServingFlags(t *testing.T) {
	cases := []struct {
		name     string
		exp      string
		arrivals string
		qcap     int
		wantErr  string // substring; empty means valid
	}{
		{name: "no serving flags", exp: "fig6"},
		{name: "serveN with arrivals", exp: "serveN", arrivals: "bursty"},
		{name: "serveN with qcap", exp: "serveN", qcap: 64},
		{name: "adaptN with both", exp: "adaptN", arrivals: "poisson", qcap: 32},
		{name: "all includes serving", exp: "all", arrivals: "deterministic"},
		{name: "fig6 with arrivals", exp: "fig6", arrivals: "bursty", wantErr: "-arrivals only affects"},
		{name: "fig5b with qcap", exp: "fig5b", qcap: 8, wantErr: "-qcap only affects"},
		{name: "table3 with both", exp: "table3", arrivals: "poisson", qcap: 4, wantErr: "-arrivals/-qcap only affects"},
		{name: "scaleN with qcap", exp: "scaleN", qcap: 16, wantErr: "only affects the serving experiments"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateServingFlags(tc.exp, tc.arrivals, tc.qcap)
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

// TestServingExperimentsRegistered: the validator's notion of which
// experiments consume the serving flags must match the registry, so a
// future serving experiment cannot silently fall out of the allowlist.
func TestServingExperimentsRegistered(t *testing.T) {
	for id := range servingExperiments {
		if err := validateServingFlags(id, "bursty", 8); err != nil {
			t.Fatalf("serving experiment %q rejected: %v", id, err)
		}
	}
}

// TestValidatePipelineFlags: -plans/-burst/-pipecap must be rejected whenever
// they would silently no-op — any non-pipeline experiment — and accepted for
// the pipeline experiment and -exp all.
func TestValidatePipelineFlags(t *testing.T) {
	cases := []struct {
		name    string
		exp     string
		plans   string
		burst   int
		pipeCap int
		wantErr string // substring; empty means valid
	}{
		{name: "no pipeline flags", exp: "fig6"},
		{name: "pipeN with plans", exp: "pipeN", plans: "mixed"},
		{name: "pipeN with burst", exp: "pipeN", burst: 32},
		{name: "pipeN with pipecap", exp: "pipeN", pipeCap: 64},
		{name: "pipeN with all three", exp: "pipeN", plans: "bst,chain", burst: 16, pipeCap: 32},
		{name: "all includes pipeline", exp: "all", burst: 16},
		{name: "fig6 with plans", exp: "fig6", plans: "mixed", wantErr: "-plans only affects"},
		{name: "fig5b with burst", exp: "fig5b", burst: 8, wantErr: "-burst only affects"},
		{name: "serveN with pipecap", exp: "serveN", pipeCap: 8, wantErr: "-pipecap only affects"},
		{name: "table3 with plans and burst", exp: "table3", plans: "agg", burst: 8, wantErr: "-plans/-burst only affects"},
		{name: "scaleN with all three", exp: "scaleN", plans: "bst", burst: 4, pipeCap: 8, wantErr: "-plans/-burst/-pipecap only affects"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validatePipelineFlags(tc.exp, tc.plans, tc.burst, tc.pipeCap)
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

// TestPipelineExperimentsRegistered mirrors the serving allowlist check for
// the pipeline flags.
func TestPipelineExperimentsRegistered(t *testing.T) {
	for id := range pipelineExperiments {
		if err := validatePipelineFlags(id, "mixed", 8, 16); err != nil {
			t.Fatalf("pipeline experiment %q rejected: %v", id, err)
		}
	}
}

// TestValidateObsFlags: -trace/-metrics/-metrics-interval must be rejected
// whenever they would silently produce an empty or meaningless export — an
// experiment without a designated cell, -exp all, or an interval with no
// metrics file — and accepted for the allowlisted experiments.
func TestValidateObsFlags(t *testing.T) {
	cases := []struct {
		name     string
		exp      string
		trace    string
		metrics  string
		interval int
		wantErr  string // substring; empty means valid
	}{
		{name: "no obs flags", exp: "fig6"},
		{name: "serveN with trace", exp: "serveN", trace: "t.json"},
		{name: "adaptN with trace and metrics", exp: "adaptN", trace: "t.json", metrics: "m.jsonl"},
		{name: "pipeN with trace", exp: "pipeN", trace: "t.json"},
		{name: "obsN with everything", exp: "obsN", trace: "t.json", metrics: "m.jsonl", interval: 2048},
		{name: "obsN metrics only", exp: "obsN", metrics: "m.jsonl"},
		{name: "negative interval", exp: "obsN", metrics: "m.jsonl", interval: -1, wantErr: "must be non-negative"},
		{name: "interval without metrics", exp: "obsN", trace: "t.json", interval: 2048, wantErr: "-metrics-interval requires -metrics"},
		{name: "trace with fig6", exp: "fig6", trace: "t.json", wantErr: "-trace only records"},
		{name: "metrics with fig5b", exp: "fig5b", metrics: "m.jsonl", wantErr: "-metrics only samples"},
		{name: "metrics with pipeN", exp: "pipeN", metrics: "m.jsonl", wantErr: "-metrics only samples"},
		{name: "trace with exp all", exp: "all", trace: "t.json", wantErr: "not -exp all"},
		{name: "metrics with exp all", exp: "all", metrics: "m.jsonl", wantErr: "not -exp all"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateObsFlags(tc.exp, tc.trace, tc.metrics, tc.interval)
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

// TestObsExperimentsRegistered: every experiment in the trace and metrics
// allowlists must exist in the registry and be accepted by the validator, so
// a renamed experiment cannot leave a dangling allowlist entry.
func TestObsExperimentsRegistered(t *testing.T) {
	for id := range traceExperiments {
		if _, ok := experiments.Find(id); !ok {
			t.Fatalf("trace allowlist entry %q is not a registered experiment", id)
		}
		if err := validateObsFlags(id, "t.json", "", 0); err != nil {
			t.Fatalf("trace experiment %q rejected: %v", id, err)
		}
	}
	for id := range metricsExperiments {
		if _, ok := experiments.Find(id); !ok {
			t.Fatalf("metrics allowlist entry %q is not a registered experiment", id)
		}
		if err := validateObsFlags(id, "", "m.jsonl", 0); err != nil {
			t.Fatalf("metrics experiment %q rejected: %v", id, err)
		}
	}
}

// TestValidateProfFlags: -profile/-flame must be rejected whenever they
// would silently produce an empty export — an experiment without a
// designated profile cell or -exp all — and accepted for the allowlisted
// experiments.
func TestValidateProfFlags(t *testing.T) {
	cases := []struct {
		name    string
		exp     string
		prof    string
		flame   string
		wantErr string // substring; empty means valid
	}{
		{name: "no prof flags", exp: "fig6"},
		{name: "profN with profile", exp: "profN", prof: "p.pb.gz"},
		{name: "profN with flame", exp: "profN", flame: "f.txt"},
		{name: "profN with both", exp: "profN", prof: "p.pb.gz", flame: "f.txt"},
		{name: "serveN with flame", exp: "serveN", flame: "f.txt"},
		{name: "profile with fig6", exp: "fig6", prof: "p.pb.gz", wantErr: "-profile only records"},
		{name: "flame with obsN", exp: "obsN", flame: "f.txt", wantErr: "-flame only records"},
		{name: "both with adaptN", exp: "adaptN", prof: "p.pb.gz", flame: "f.txt", wantErr: "-profile/-flame only records"},
		{name: "profile with exp all", exp: "all", prof: "p.pb.gz", wantErr: "not -exp all"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateProfFlags(tc.exp, tc.prof, tc.flame)
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

// TestProfExperimentsRegistered mirrors the obs allowlist check for the
// profiling flags: every allowlisted id must exist in the registry and be
// accepted by the validator.
func TestProfExperimentsRegistered(t *testing.T) {
	for id := range profExperiments {
		if _, ok := experiments.Find(id); !ok {
			t.Fatalf("profile allowlist entry %q is not a registered experiment", id)
		}
		if err := validateProfFlags(id, "p.pb.gz", "f.txt"); err != nil {
			t.Fatalf("profiled experiment %q rejected: %v", id, err)
		}
	}
}

// TestValidateExplicitZero: knobs whose zero value means "use the default"
// must reject an explicit `-flag 0` on the command line — it would silently
// behave as if the flag were absent — while an unset flag, a nonzero value,
// or an explicit zero on an unrelated flag all pass.
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
		{name: "explicit zero pipecap", args: []string{"-pipecap", "0"}, wantErr: "-pipecap 0 is meaningless"},
		{name: "explicit zero metrics-interval", args: []string{"-metrics-interval", "0"}, wantErr: "-metrics-interval 0 is meaningless"},
		{name: "zero among valid flags", args: []string{"-qcap", "32", "-pipecap", "0"}, wantErr: "-pipecap 0 is meaningless"},
		{name: "nonzero seed", args: []string{"-seed", "7"}},
		{name: "explicit zero seed", args: []string{"-seed", "0"}, wantErr: "-seed 0 is meaningless"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("amacbench", flag.ContinueOnError)
			fs.Int("window", 0, "")
			fs.Int("qcap", 0, "")
			fs.Int("pipecap", 0, "")
			fs.Int("metrics-interval", 0, "")
			fs.Int("deadline", 0, "")
			fs.Int("slo", 0, "")
			fs.Uint64("seed", 42, "")
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			err := validateExplicitZero(fs.Visit)
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
	cases := []struct {
		name     string
		exp      string
		faults   string
		slo      int
		deadline int
		wantErr  string // substring; empty means valid
	}{
		{name: "no fault flags", exp: "fig6"},
		{name: "faultN plain", exp: "faultN"},
		{name: "faultN with scripted schedule", exp: "faultN", faults: "slow:0@20000+40000x4,crash:1@90000+30000"},
		{name: "faultN with random schedule", exp: "faultN", faults: "rand:7:3"},
		{name: "faultN with deadline", exp: "faultN", deadline: 6000},
		{name: "faultN with slo", exp: "faultN", slo: 8000},
		{name: "all includes fault", exp: "all", faults: "freeze:0@1000+2000"},
		{name: "malformed schedule", exp: "faultN", faults: "slow:0@bogus", wantErr: "-faults"},
		{name: "slow without factor", exp: "faultN", faults: "slow:0@1000+2000", wantErr: "-faults"},
		{name: "negative deadline", exp: "faultN", deadline: -1, wantErr: "-deadline must be non-negative"},
		{name: "negative slo", exp: "faultN", slo: -5, wantErr: "-slo must be non-negative"},
		{name: "fig6 with faults", exp: "fig6", faults: "rand:1", wantErr: "-faults only affects"},
		{name: "serveN with deadline", exp: "serveN", deadline: 4000, wantErr: "-deadline only affects"},
		{name: "serveN with slo", exp: "serveN", slo: 4000, wantErr: "-slo only affects"},
		{name: "table3 with all three", exp: "table3", faults: "rand:1", slo: 2, deadline: 3, wantErr: "-faults/-deadline/-slo only affects"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFaultFlags(tc.exp, tc.faults, tc.slo, tc.deadline)
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

// TestFaultExperimentsRegistered mirrors the serving allowlist check for the
// fault flags: every allowlisted id must exist in the registry and be
// accepted by the validator.
func TestFaultExperimentsRegistered(t *testing.T) {
	for id := range faultExperiments {
		if _, ok := experiments.Find(id); !ok {
			t.Fatalf("fault allowlist entry %q is not a registered experiment", id)
		}
		if err := validateFaultFlags(id, "rand:3", 100, 100); err != nil {
			t.Fatalf("fault experiment %q rejected: %v", id, err)
		}
	}
}

// TestTraceJSONRoundTrip runs the observability replay with a trace attached
// and parses the Chrome export back: the file must be a single valid JSON
// object in trace-event format, name its process and fixed tracks, carry
// decision instants on the controller track, and keep every track's B/E spans
// balanced (never more ends than begins).
func TestTraceJSONRoundTrip(t *testing.T) {
	tr := obs.NewTrace(0)
	if _, err := experiments.Run("obsN", experiments.Config{Scale: experiments.Tiny, Trace: tr}); err != nil {
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

// TestInvalidFlagMatrix runs amacbench on every kind of invalid command line:
// negative values, explicit zeros, unknown names, malformed specs and flags
// outside their experiment's scope. Each must exit 2 with one amacbench:
// message, never panic, and create no file before giving up.
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
		{"negative burst", []string{"-exp", "pipeN", "-burst", "-1"}, "-burst must be non-negative"},
		{"negative pipecap", []string{"-exp", "pipeN", "-pipecap", "-8"}, "-pipecap must be non-negative"},
		{"negative deadline", []string{"-exp", "faultN", "-deadline", "-1"}, "-deadline must be non-negative"},
		{"negative slo", []string{"-exp", "faultN", "-slo", "-5"}, "-slo must be non-negative"},
		{"negative metrics interval", []string{"-exp", "obsN", "-metrics", "m.jsonl", "-metrics-interval", "-1"}, "-metrics-interval must be non-negative"},
		{"explicit zero seed", []string{"-exp", "fig3", "-seed", "0"}, "-seed 0 is meaningless"},
		{"explicit zero qcap", []string{"-exp", "serveN", "-qcap", "0"}, "-qcap 0 is meaningless"},
		{"explicit zero pipecap", []string{"-exp", "pipeN", "-pipecap", "0"}, "-pipecap 0 is meaningless"},
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
		{"burst outside pipeline", []string{"-exp", "fig6", "-burst", "8"}, "-burst only affects"},
		{"faults outside faultN", []string{"-exp", "serveN", "-faults", "rand:1"}, "-faults only affects"},
		{"trace outside its experiments", []string{"-exp", "fig6", "-trace", "t.json"}, "-trace only records"},
		{"trace with exp all", []string{"-exp", "all", "-trace", "t.json"}, "not -exp all"},
		{"metrics outside its experiments", []string{"-exp", "pipeN", "-metrics", "m.jsonl"}, "-metrics only samples"},
		{"metrics interval without metrics", []string{"-exp", "obsN", "-metrics-interval", "2048"}, "-metrics-interval requires -metrics"},
		{"profile outside its experiments", []string{"-exp", "fig6", "-profile", "p.pb.gz"}, "-profile only records"},
		{"flame with exp all", []string{"-exp", "all", "-flame", "f.txt"}, "not -exp all"},
		{"cpuprofile with a bad flag", []string{"-exp", "fig6", "-window", "-1", "-cpuprofile", "cpu.prof"}, "-window must be non-negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr, files := runAmacbench(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit code %d, want 2; stderr:\n%s", code, stderr)
			}
			if !strings.HasPrefix(stderr, "amacbench: ") || !strings.Contains(stderr, tc.wantErr) {
				t.Fatalf("stderr does not start with \"amacbench: \" or lacks %q:\n%s", tc.wantErr, stderr)
			}
			if strings.Contains(stderr, "panic:") || strings.Contains(stderr, "goroutine ") {
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
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+args[0]) {
			t.Fatalf("%v: exit code %d, stderr:\n%s", args, code, stderr)
		}
	}
}
