package ops_test

import (
	"sort"
	"testing"

	"amac/internal/ht"
	"amac/internal/memsim"
	"amac/internal/ops"
	"amac/internal/relation"
)

func newCore() *memsim.Core {
	sys := memsim.MustSystem(memsim.XeonX5670())
	return sys.NewCore()
}

func joinSpec(zr, zs float64) relation.JoinSpec {
	return relation.JoinSpec{BuildSize: 1 << 12, ProbeSize: 1 << 12, ZipfBuild: zr, ZipfProbe: zs, Seed: 42}
}

func buildJoin(t *testing.T, spec relation.JoinSpec) *ops.HashJoin {
	t.Helper()
	build, probe, err := relation.BuildJoin(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ops.NewHashJoin(build, probe)
}

func TestProbeAllTechniquesMatchReference(t *testing.T) {
	specs := map[string]relation.JoinSpec{
		"uniform":     joinSpec(0, 0),
		"skewed-R":    joinSpec(1.0, 0),
		"skewed-both": joinSpec(0.75, 0.75),
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			for _, tech := range ops.Techniques {
				t.Run(tech.String(), func(t *testing.T) {
					j := buildJoin(t, spec)
					j.PrebuildRaw()
					wantCount, wantSum := j.ReferenceJoin()

					out := ops.NewOutput(j.Arena, false)
					m := j.ProbeMachine(out, false)
					ops.RunMachine(newCore(), m, tech, ops.Params{Window: 8})

					if out.Count != wantCount || out.Checksum != wantSum {
						t.Fatalf("%s: count=%d checksum=%x, want count=%d checksum=%x",
							tech, out.Count, out.Checksum, wantCount, wantSum)
					}
				})
			}
		})
	}
}

func TestProbeEarlyExitMatchesFirstMatchReference(t *testing.T) {
	j := buildJoin(t, joinSpec(0, 0))
	j.PrebuildRaw()
	wantCount, wantSum := j.ReferenceJoinFirstMatch()
	for _, tech := range ops.Techniques {
		out := ops.NewOutput(j.Arena, false)
		ops.RunMachine(newCore(), j.ProbeMachine(out, true), tech, ops.Params{Window: 10})
		if out.Count != wantCount || out.Checksum != wantSum {
			t.Fatalf("%s: early-exit results differ from reference", tech)
		}
	}
}

func TestProbeResultsIdenticalAcrossTechniques(t *testing.T) {
	j := buildJoin(t, joinSpec(0.5, 0.5))
	j.PrebuildRaw()
	var ref []ops.JoinRow
	for i, tech := range ops.Techniques {
		out := ops.NewOutput(j.Arena, true)
		ops.RunMachine(newCore(), j.ProbeMachine(out, false), tech, ops.Params{Window: 6})
		rows := append([]ops.JoinRow(nil), out.Rows...)
		sort.Slice(rows, func(a, b int) bool {
			if rows[a].RID != rows[b].RID {
				return rows[a].RID < rows[b].RID
			}
			return rows[a].BuildPayload < rows[b].BuildPayload
		})
		if i == 0 {
			ref = rows
			continue
		}
		if len(rows) != len(ref) {
			t.Fatalf("%s produced %d rows, baseline produced %d", tech, len(rows), len(ref))
		}
		for k := range rows {
			if rows[k] != ref[k] {
				t.Fatalf("%s row %d = %+v, baseline row = %+v", tech, k, rows[k], ref[k])
			}
		}
	}
}

func TestBuildAllTechniquesProduceCorrectTable(t *testing.T) {
	for _, zr := range []float64{0, 1.0} {
		for _, tech := range ops.Techniques {
			spec := joinSpec(zr, 0)
			build, probe, err := relation.BuildJoin(spec)
			if err != nil {
				t.Fatal(err)
			}
			j := ops.NewHashJoin(build, probe)
			ops.RunMachine(newCore(), j.BuildMachine(), tech, ops.Params{Window: 8})

			stats := j.Table.ComputeStats()
			if stats.Tuples != uint64(build.Len()) {
				t.Fatalf("%s zr=%v: table holds %d tuples, want %d", tech, zr, stats.Tuples, build.Len())
			}
			// Every build tuple must be findable with its own payload.
			ref := make(map[uint64]map[uint64]int)
			for _, tup := range build.Tuples {
				if ref[tup.Key] == nil {
					ref[tup.Key] = map[uint64]int{}
				}
				ref[tup.Key][tup.Payload]++
			}
			for key, payloads := range ref {
				got := j.Table.LookupAllRaw(key)
				if len(got) != lenPayloads(payloads) {
					t.Fatalf("%s zr=%v: key %d has %d entries, want %d", tech, zr, key, len(got), lenPayloads(payloads))
				}
				for _, p := range got {
					if payloads[p] == 0 {
						t.Fatalf("%s zr=%v: key %d has unexpected payload %d", tech, zr, key, p)
					}
					payloads[p]--
				}
			}
			// No latch may be left held.
			for b := uint64(0); b < j.Table.NumBuckets(); b++ {
				if j.Table.LatchHeld(j.Table.BucketAddr(b)) {
					t.Fatalf("%s zr=%v: bucket %d latch left held", tech, zr, b)
				}
			}
		}
	}
}

func lenPayloads(m map[uint64]int) int {
	n := 0
	for _, c := range m {
		n += c
	}
	return n
}

func TestBuildThenProbeEndToEnd(t *testing.T) {
	// Build with one technique, probe with another: the output must always
	// match the reference, demonstrating the phases compose.
	spec := joinSpec(0.5, 0)
	for _, buildTech := range ops.Techniques {
		build, probe, err := relation.BuildJoin(spec)
		if err != nil {
			t.Fatal(err)
		}
		j := ops.NewHashJoin(build, probe)
		c := newCore()
		ops.RunMachine(c, j.BuildMachine(), buildTech, ops.Params{Window: 10})
		wantCount, wantSum := j.ReferenceJoin()
		out := ops.NewOutput(j.Arena, false)
		ops.RunMachine(c, j.ProbeMachine(out, false), ops.AMAC, ops.Params{Window: 10})
		if out.Count != wantCount || out.Checksum != wantSum {
			t.Fatalf("build with %s then probe: results differ from reference", buildTech)
		}
	}
}

func TestGroupByAllTechniquesMatchReference(t *testing.T) {
	for _, zipf := range []float64{0, 0.5, 1.0} {
		rel, err := relation.BuildGroupBy(relation.GroupBySpec{Size: 6000, Repeats: 3, Zipf: zipf, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, tech := range ops.Techniques {
			g := ops.NewGroupBy(rel, rel.Len()/3)
			ref := g.ReferenceGroups()
			ops.RunMachine(newCore(), g.Machine(), tech, ops.Params{Window: 8})

			groups := g.Table.Groups()
			if len(groups) != len(ref) {
				t.Fatalf("%s zipf=%v: %d groups, want %d", tech, zipf, len(groups), len(ref))
			}
			for _, got := range groups {
				want, ok := ref[got.Key]
				if !ok {
					t.Fatalf("%s zipf=%v: unexpected group %d", tech, zipf, got.Key)
				}
				if got != want {
					t.Fatalf("%s zipf=%v: group %d = %+v, want %+v", tech, zipf, got.Key, got, want)
				}
			}
			for b := uint64(0); b < g.Table.NumBuckets(); b++ {
				if g.Table.LatchHeld(g.Table.BucketAddr(b)) {
					t.Fatalf("%s zipf=%v: bucket %d latch left held", tech, zipf, b)
				}
			}
		}
	}
}

func TestBSTSearchAllTechniquesMatchReference(t *testing.T) {
	build, probe, err := relation.BuildIndexWorkload(1<<12, 5)
	if err != nil {
		t.Fatal(err)
	}
	w := ops.NewBSTWorkload(build, probe)
	ref := make(map[uint64]uint64, build.Len())
	for _, tup := range build.Tuples {
		ref[tup.Key] = tup.Payload
	}
	for _, tech := range ops.Techniques {
		out := ops.NewOutput(w.Arena, true)
		ops.RunMachine(newCore(), w.SearchMachine(out), tech, ops.Params{Window: 10})
		if int(out.Count) != probe.Len() {
			t.Fatalf("%s: %d matches, want %d", tech, out.Count, probe.Len())
		}
		for _, row := range out.Rows {
			if ref[row.Key] != row.BuildPayload {
				t.Fatalf("%s: key %d matched payload %d, want %d", tech, row.Key, row.BuildPayload, ref[row.Key])
			}
		}
	}
}

func TestSkipListSearchAllTechniquesMatchReference(t *testing.T) {
	build, probe, err := relation.BuildIndexWorkload(1<<11, 9)
	if err != nil {
		t.Fatal(err)
	}
	w := ops.NewSkipListWorkload(build, probe)
	w.PrebuildRaw(1)
	ref := make(map[uint64]uint64, build.Len())
	for _, tup := range build.Tuples {
		ref[tup.Key] = tup.Payload
	}
	for _, tech := range ops.Techniques {
		out := ops.NewOutput(w.Arena, true)
		ops.RunMachine(newCore(), w.SearchMachine(out), tech, ops.Params{Window: 10})
		if int(out.Count) != probe.Len() {
			t.Fatalf("%s: %d matches, want %d", tech, out.Count, probe.Len())
		}
		for _, row := range out.Rows {
			if ref[row.Key] != row.BuildPayload {
				t.Fatalf("%s: key %d matched payload %d, want %d", tech, row.Key, row.BuildPayload, ref[row.Key])
			}
		}
	}
}

func TestSkipListInsertAllTechniquesBuildCorrectList(t *testing.T) {
	build, _, err := relation.BuildIndexWorkload(1<<11, 13)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := make([]uint64, 0, build.Len())
	ref := make(map[uint64]uint64, build.Len())
	for _, tup := range build.Tuples {
		wantKeys = append(wantKeys, tup.Key)
		ref[tup.Key] = tup.Payload
	}
	sort.Slice(wantKeys, func(i, j int) bool { return wantKeys[i] < wantKeys[j] })

	for _, tech := range ops.Techniques {
		w := ops.NewSkipListWorkload(build, build)
		m := w.InsertMachine(99)
		ops.RunMachine(newCore(), m, tech, ops.Params{Window: 8})

		if m.Inserted != build.Len() {
			t.Fatalf("%s: inserted %d of %d", tech, m.Inserted, build.Len())
		}
		got := w.List.Keys()
		if len(got) != len(wantKeys) {
			t.Fatalf("%s: list has %d keys, want %d", tech, len(got), len(wantKeys))
		}
		for i := range got {
			if got[i] != wantKeys[i] {
				t.Fatalf("%s: key %d at position %d, want %d", tech, got[i], i, wantKeys[i])
			}
		}
		for _, k := range wantKeys {
			p, ok := w.List.SearchRaw(k)
			if !ok || p != ref[k] {
				t.Fatalf("%s: key %d payload %d,%v want %d", tech, k, p, ok, ref[k])
			}
		}
	}
}

func TestSkipListInsertDuplicatesSkipped(t *testing.T) {
	build, _, err := relation.BuildIndexWorkload(256, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate the input: each key appears twice; only the first insert
	// of each key may succeed.
	dup := &relation.Relation{Tuples: append(append([]relation.Tuple(nil), build.Tuples...), build.Tuples...)}
	w := ops.NewSkipListWorkload(dup, dup)
	m := w.InsertMachine(5)
	ops.RunMachine(newCore(), m, ops.AMAC, ops.Params{Window: 8})
	if m.Inserted != 256 {
		t.Fatalf("inserted %d, want 256 (duplicates skipped)", m.Inserted)
	}
	if w.List.Len() != 256 {
		t.Fatalf("list length %d, want 256", w.List.Len())
	}
}

// FuzzParseTechnique: any label either fails to parse or names a technique
// whose String is that label.
func FuzzParseTechnique(f *testing.F) {
	for _, seed := range []string{"Baseline", "GP", "SPP", "AMAC", "amac", "", " GP", "Technique(4)", "nope"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, label string) {
		tech, err := ops.ParseTechnique(label)
		if err == nil && tech.String() != label {
			t.Fatalf("ParseTechnique(%q) = %v, which renders as %q", label, tech, tech.String())
		}
	})
}

func TestTechniqueStringAndParse(t *testing.T) {
	for _, tech := range ops.Techniques {
		parsed, err := ops.ParseTechnique(tech.String())
		if err != nil || parsed != tech {
			t.Fatalf("round trip failed for %v", tech)
		}
	}
	if _, err := ops.ParseTechnique("nope"); err == nil {
		t.Fatal("unknown technique should fail to parse")
	}
	if ops.Technique(99).String() == "" {
		t.Fatal("unknown technique should still render")
	}
	if len(ops.PrefetchingTechniques) != 3 {
		t.Fatal("expected three prefetching techniques")
	}
}

func TestInputMaterialization(t *testing.T) {
	rel := &relation.Relation{Tuples: []relation.Tuple{{Key: 3, Payload: 30}, {Key: 7, Payload: 70}}}
	j := ops.NewHashJoin(rel, rel)
	if j.Probe.Len() != 2 || j.Probe.Bytes() != 32 {
		t.Fatalf("Len/Bytes = %d/%d", j.Probe.Len(), j.Probe.Bytes())
	}
	k, p := j.Probe.ReadRaw(1)
	if k != 7 || p != 70 {
		t.Fatalf("ReadRaw = %d,%d", k, p)
	}
	c := newCore()
	k, p = j.Probe.Read(c, 0)
	if k != 3 || p != 30 {
		t.Fatalf("Read = %d,%d", k, p)
	}
	if c.Stats().Loads != 1 {
		t.Fatal("charged read should perform exactly one load")
	}
	if j.Probe.TupleAddr(1) != j.Probe.Base()+16 {
		t.Fatal("tuples must be densely packed")
	}
}

func TestOutputChecksumOrderIndependent(t *testing.T) {
	j := buildJoin(t, joinSpec(0, 0))
	a := ops.NewOutput(j.Arena, false)
	b := ops.NewOutput(j.Arena, false)
	c := newCore()
	a.Emit(c, 1, 10, 100, 1000)
	a.Emit(c, 2, 20, 200, 2000)
	b.Emit(c, 2, 20, 200, 2000)
	b.Emit(c, 1, 10, 100, 1000)
	if a.Checksum != b.Checksum || a.Count != b.Count {
		t.Fatal("checksum must not depend on emission order")
	}
	d := ops.NewOutput(j.Arena, false)
	d.Emit(c, 1, 10, 100, 1001)                         // different probe payload
	if d.Checksum == a.Checksum-b.Checksum+a.Checksum { // arbitrary different value check
		t.Fatal("checksum should be sensitive to payload values")
	}
}

func TestGroupByAggregatesIncludeAvg(t *testing.T) {
	rel := &relation.Relation{Tuples: []relation.Tuple{{Key: 1, Payload: 2}, {Key: 1, Payload: 4}}}
	g := ops.NewGroupBy(rel, 1)
	ops.RunMachine(newCore(), g.Machine(), ops.Baseline, ops.Params{})
	agg, ok := g.Table.LookupGroupRaw(1)
	if !ok || agg.Avg() != 3 {
		t.Fatalf("avg = %v ok=%v", agg.Avg(), ok)
	}
}

func TestHashJoinDefaultBucketSizing(t *testing.T) {
	build, probe, err := relation.BuildJoin(joinSpec(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	j := ops.NewHashJoin(build, probe)
	if j.Table.NumBuckets() != uint64(build.Len()/ht.TuplesPerNode) {
		t.Fatalf("buckets = %d, want |R|/%d", j.Table.NumBuckets(), ht.TuplesPerNode)
	}
	// Dense unique keys fill each bucket header exactly, with no overflow.
	j.PrebuildRaw()
	if j.Table.OverflowNodes() != 0 {
		t.Fatalf("uniform dense build should not need overflow nodes, got %d", j.Table.OverflowNodes())
	}
}
