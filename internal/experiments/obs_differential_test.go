package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"amac/internal/obs"
	"amac/internal/prof"
	"amac/internal/table"
)

// renderRun executes an experiment and renders its tables exactly the way
// cmd/amacbench does — text via Table.Render and JSON Lines via
// table.WriteJSONRows — so byte-comparing the two forms covers both output
// paths of the CLI.
func renderRun(t *testing.T, id string, cfg Config) (text, jsonl string) {
	t.Helper()
	tables, err := Run(id, cfg)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var tb, jb bytes.Buffer
	for _, tab := range tables {
		tab.Render(&tb)
	}
	if err := table.WriteJSONRows(&jb, id, tables); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return tb.String(), jb.String()
}

// goldenRows splits testdata/exp_tiny.json — what amacbench -exp all -scale
// tiny -parallel 1 -json prints — into each experiment's -json rows.
func goldenRows(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../../testdata/exp_tiny.json")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if line == "" {
			continue
		}
		var id string
		if rest, ok := strings.CutPrefix(line, `{"experiment":"`); ok {
			id, _, _ = strings.Cut(rest, `"`)
		}
		rows[id] += line
	}
	return rows
}

// sinkRun is one tiny-scale experiment run with sinks attached: its rendered
// output, every export its sinks can write, and the sinks that recorded
// anything.
type sinkRun struct {
	text, jsonl string
	exports     map[string]string
	recorded    Uses
}

// runWithSinks runs experiment id at tiny scale on parallel sweep workers
// with the sinks named by attach.
func runWithSinks(t *testing.T, id string, parallel int, attach Uses) sinkRun {
	t.Helper()
	var s obs.Sinks
	if attach&UsesTrace != 0 {
		s.Trace = obs.NewTrace(0)
	}
	if attach&UsesMetrics != 0 {
		s.Metrics = obs.NewMetrics(0)
	}
	if attach&UsesProfile != 0 {
		s.Profile = prof.NewProfile()
	}
	var r sinkRun
	r.text, r.jsonl = renderRun(t, id, Config{Scale: Tiny, Parallel: parallel, Sinks: s})

	r.exports = map[string]string{}
	export := func(name string, write func(io.Writer) error) {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatalf("%s export: %v", name, err)
		}
		r.exports[name] = b.String()
	}
	if s.Trace != nil {
		export("chrome", s.Trace.WriteChrome)
		for _, c := range s.Trace.Cores() {
			if c.Len() > 0 {
				r.recorded |= UsesTrace
			}
		}
	}
	if s.Metrics != nil {
		export("jsonl", s.Metrics.WriteJSONL)
		for _, c := range s.Metrics.Cores() {
			if c.Samples() > 0 {
				r.recorded |= UsesMetrics
			}
		}
	}
	if s.Profile != nil {
		export("folded", s.Profile.WriteFolded)
		export("pprof", s.Profile.WritePprof)
		if s.Profile.TotalCycles() > 0 {
			r.recorded |= UsesProfile
		}
	}
	return r
}

// TestObservabilityDifferential holds every registered experiment to its
// Uses declaration and to the sinks' central invariant: attaching sinks
// changes no simulated result byte. Each experiment runs serially with all
// three sinks attached; its -json rows must equal testdata/exp_tiny.json,
// every sink it declares must record something (a trivially empty export
// would pass the diff while proving nothing) and every sink it does not
// declare must record nothing. An experiment that declares sinks then runs
// on 4 sweep workers, where only its designated cell may record: with all
// sinks, with none, and with a declared trace or metrics sink alone (which
// covers paths such as metrics without a trace; TestProfiledDifferential
// runs the profile sink alone). Every export must match the serial
// run's byte for byte, and so must the text tables. Under the race detector
// only the all-sinks runs of the sink-declaring experiments execute: the
// others are serial or touch the sinks from one goroutine, so they would add
// minutes, not concurrency.
func TestObservabilityDifferential(t *testing.T) {
	golden := goldenRows(t)
	for _, d := range Registry() {
		d := d
		declared := d.Uses & UsesSinks
		if declared == 0 && (testing.Short() || raceEnabled) {
			continue
		}
		var serial sinkRun
		check := func(t *testing.T, r sinkRun, attached Uses) {
			t.Helper()
			if r.jsonl != golden[d.ID] {
				t.Errorf("-json rows differ from testdata/exp_tiny.json with %v attached:\n--- golden ---\n%s\n--- got ---\n%s", attached, golden[d.ID], r.jsonl)
			}
			if r.text != serial.text {
				t.Errorf("text tables differ from the serial run with every sink attached:\n--- serial ---\n%s\n--- got ---\n%s", serial.text, r.text)
			}
			if want := attached & declared; r.recorded != want {
				t.Errorf("with %v attached, %v recorded; Uses declares %v", attached, r.recorded, want)
			}
			for name, got := range r.exports {
				if got != serial.exports[name] {
					t.Errorf("%s export differs from the serial run with every sink attached", name)
				}
			}
		}
		t.Run(d.ID, func(t *testing.T) {
			t.Run("parallel=1", func(t *testing.T) {
				serial = runWithSinks(t, d.ID, 1, UsesSinks)
				check(t, serial, UsesSinks)
			})
			if declared == 0 {
				return
			}
			t.Run("parallel=4", func(t *testing.T) {
				check(t, runWithSinks(t, d.ID, 4, UsesSinks), UsesSinks)
			})
			if raceEnabled {
				return
			}
			t.Run("unobserved", func(t *testing.T) {
				check(t, runWithSinks(t, d.ID, 4, 0), 0)
			})
			for _, u := range []Uses{UsesTrace, UsesMetrics} {
				if declared&u == 0 {
					continue
				}
				u := u
				t.Run("only="+u.String(), func(t *testing.T) {
					check(t, runWithSinks(t, d.ID, 4, u), u)
				})
			}
		})
	}
}

// TestProfiledDifferential holds the profile sink alone to the same
// invariant, for every experiment that declares UsesProfile: with only a
// profile attached, serially and on 4 sweep workers, the text tables must
// equal an unobserved serial run's, the -json rows must equal
// testdata/exp_tiny.json, the run must attribute cycles and record no other
// sink, and the folded and pprof exports must not depend on the worker
// count. Under the race detector only the -parallel 4 runs execute, checked
// against testdata/exp_tiny.json alone: the others are serial.
func TestProfiledDifferential(t *testing.T) {
	golden := goldenRows(t)
	parallels := []int{1, 4}
	if raceEnabled {
		parallels = []int{4}
	}
	for _, id := range Using(UsesProfile) {
		id := id
		t.Run(id, func(t *testing.T) {
			var base, serial sinkRun
			if !raceEnabled {
				base = runWithSinks(t, id, 1, 0)
			}
			for _, parallel := range parallels {
				parallel := parallel
				t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
					r := runWithSinks(t, id, parallel, UsesProfile)
					if r.jsonl != golden[id] {
						t.Errorf("-json rows differ from testdata/exp_tiny.json when profiled:\n--- golden ---\n%s\n--- got ---\n%s", golden[id], r.jsonl)
					}
					if r.recorded != UsesProfile {
						t.Errorf("with a profile attached, %v recorded; want profile", r.recorded)
					}
					if raceEnabled {
						return
					}
					if r.text != base.text {
						t.Errorf("text tables differ profiled vs unprofiled:\n--- unprofiled ---\n%s\n--- profiled ---\n%s", base.text, r.text)
					}
					if parallel == 1 {
						serial = r
						return
					}
					for name, got := range r.exports {
						if got != serial.exports[name] {
							t.Errorf("%s export differs from the serial profiled run", name)
						}
					}
				})
			}
		})
	}
}
