package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchmarkDef is the part of BENCHMARK.json that -compare reads.
type benchmarkDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readReports reads a set file: JSON report objects, one per line.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var reps []report
	dec := json.NewDecoder(f)
	for {
		var r report
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			return reps, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		reps = append(reps, r)
	}
}

// compareSets prints, for every (workload, metric) pair, each set's median
// and quartiles and a verdict: simulated values must be exactly equal seed
// by seed; host values must stay within their BENCHMARK.json bound, and are
// unresolved where a set's own spread is wider than the bound. It returns
// the exit code: 1 when a simulated value differs or a host value regressed.
func compareSets(w io.Writer, boundsPath, pathA, pathB string) int {
	var def benchmarkDef
	raw, err := os.ReadFile(boundsPath)
	if err == nil {
		err = json.Unmarshal(raw, &def)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: read bounds:", err)
		return 2
	}
	setA, errA := readReports(pathA)
	setB, errB := readReports(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	bad := false
	fmt.Fprintf(w, "A = %s (%d reports), B = %s (%d reports)\n", pathA, len(setA), pathB, len(setB))
	fmt.Fprintf(w, "%-15s %-42s %14s %14s %14s %14s %14s %14s  %s\n",
		"workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "verdict")
	for _, wl := range workloads {
		a, b := ofWorkload(setA, wl.name), ofWorkload(setB, wl.name)
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, name := range metricNames(a, b) {
			va, vb := values(a, name), values(b, name)
			qa1, qa3 := quartiles(va)
			qb1, qb3 := quartiles(vb)
			verdict := "-" // per-layer host metrics have no bound
			if simulated(name) {
				verdict = exactVerdict(a, b, name)
			}
			for _, e := range def.EndToEnd {
				if e.Name == name && !simulated(name) {
					verdict = boundVerdict(va, vb, e.Better, e.Bound)
				}
			}
			bad = bad || verdict == "DIFFERS" || strings.HasPrefix(verdict, "REGRESSED")
			fmt.Fprintf(w, "%-15s %-42s %14.6g %14.6g %14.6g %14.6g %14.6g %14.6g  %s\n",
				wl.name, name, qa1, median(va), qa3, qb1, median(vb), qb3, verdict)
		}
		digest := digestVerdict(a, b)
		bad = bad || digest == "DIFFERS"
		fmt.Fprintf(w, "%-15s %-42s %s\n", wl.name, "sim_digest", digest)
	}

	var refA, refB []float64
	for _, r := range setA {
		refA = append(refA, r.HostRefNs)
	}
	for _, r := range setB {
		refB = append(refB, r.HostRefNs)
	}
	fmt.Fprintf(w, "host.ref_ns: A median %.4f, B median %.4f, drift %+.1f%% (host speed, not the program)\n",
		median(refA), median(refB), 100*(ratio(median(refB), median(refA))-1))
	if bad {
		return 1
	}
	return 0
}

func ofWorkload(set []report, name string) []report {
	var out []report
	for _, r := range set {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

// metricNames lists the metrics both sets report, in report order.
func metricNames(a, b []report) []string {
	var names []string
	for _, m := range a[0].Metrics {
		if _, ok := b[0].value(m.Name); ok {
			names = append(names, m.Name)
		}
	}
	return names
}

func values(set []report, name string) []float64 {
	var vs []float64
	for _, r := range set {
		if m, ok := r.value(name); ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// exactVerdict compares a simulated metric seed by seed.
func exactVerdict(a, b []report, name string) string {
	bySeed := map[uint64]float64{}
	for _, r := range a {
		if m, ok := r.value(name); ok {
			bySeed[r.Seed] = m.Value
		}
	}
	common := 0
	for _, r := range b {
		m, ok := r.value(name)
		va, seen := bySeed[r.Seed]
		if !ok || !seen {
			continue
		}
		common++
		if m.Value != va {
			return "DIFFERS"
		}
	}
	if common == 0 {
		return "no common seed"
	}
	return "exact"
}

// digestVerdict compares the simulated-statistics digests seed by seed.
func digestVerdict(a, b []report) string {
	bySeed := map[uint64]string{}
	for _, r := range a {
		bySeed[r.Seed] = r.SimDigest
	}
	common := 0
	for _, r := range b {
		d, ok := bySeed[r.Seed]
		if !ok {
			continue
		}
		common++
		if d != r.SimDigest {
			return "DIFFERS"
		}
	}
	if common == 0 {
		return "no common seed"
	}
	return "exact"
}

// boundVerdict judges a host metric: B's median may be worse than A's by at
// most bound (a share of A's median). Where either set's quartile spread is
// wider than the bound the comparison is unresolved, unless every B run
// reads better than every A run.
func boundVerdict(va, vb []float64, better string, bound float64) string {
	ma, mb := median(va), median(vb)
	worse := ratio(mb-ma, ma)
	if better == "higher" {
		worse = -worse
	}
	spread := func(vs []float64) float64 {
		q1, q3 := quartiles(vs)
		return ratio(q3-q1, median(vs))
	}
	if max(spread(va), spread(vb)) > bound && !allBetter(va, vb, better) {
		return fmt.Sprintf("unresolved (spread %.1f%% > bound %.0f%%)", 100*max(spread(va), spread(vb)), 100*bound)
	}
	if worse > bound {
		return fmt.Sprintf("REGRESSED %.1f%% > bound %.0f%%", 100*worse, 100*bound)
	}
	return fmt.Sprintf("within bound (%+.1f%% worse, bound %.0f%%)", 100*worse, 100*bound)
}

// allBetter reports whether every value of vb is better than every value of va.
func allBetter(va, vb []float64, better string) bool {
	for _, a := range va {
		for _, b := range vb {
			if (better == "higher" && b <= a) || (better != "higher" && b >= a) {
				return false
			}
		}
	}
	return len(va) > 0 && len(vb) > 0
}
