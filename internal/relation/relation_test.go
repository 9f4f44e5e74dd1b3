package relation

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBuildJoinUniformUniqueForeignKey(t *testing.T) {
	spec := JoinSpec{BuildSize: 1 << 10, ProbeSize: 1 << 10, Seed: 1}
	build, probe, err := BuildJoin(spec)
	if err != nil {
		t.Fatal(err)
	}
	if build.Len() != 1<<10 || probe.Len() != 1<<10 {
		t.Fatalf("sizes %d/%d", build.Len(), probe.Len())
	}
	if build.distinctKeys() != build.Len() {
		t.Fatal("uniform build relation must have unique keys")
	}
	if probe.distinctKeys() != probe.Len() {
		t.Fatal("equal-size uniform probe relation must contain each key once")
	}
	if build.minKey() != 1 || build.maxKey() != uint64(build.Len()) {
		t.Fatalf("dense key domain expected, got [%d,%d]", build.minKey(), build.maxKey())
	}
}

func TestBuildJoinProbeKeysAlwaysInBuildDomain(t *testing.T) {
	f := func(seed uint64) bool {
		spec := JoinSpec{BuildSize: 256, ProbeSize: 1024, ZipfProbe: 0.75, Seed: seed}
		build, probe, err := BuildJoin(spec)
		if err != nil {
			return false
		}
		domain := make(map[uint64]bool, build.Len())
		for _, tup := range build.Tuples {
			domain[tup.Key] = true
		}
		for _, tup := range probe.Tuples {
			if !domain[tup.Key] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildJoinSkewedBuildHasDuplicates(t *testing.T) {
	spec := JoinSpec{BuildSize: 1 << 12, ProbeSize: 1 << 12, ZipfBuild: 1.0, Seed: 3}
	build, _, err := BuildJoin(spec)
	if err != nil {
		t.Fatal(err)
	}
	if build.distinctKeys() >= build.Len() {
		t.Fatal("Zipf(1.0) build keys should contain duplicates")
	}
}

func TestBuildJoinSmallerBuildRestrictsProbeRange(t *testing.T) {
	spec := JoinSpec{BuildSize: 128, ProbeSize: 4096, Seed: 7}
	build, probe, err := BuildJoin(spec)
	if err != nil {
		t.Fatal(err)
	}
	if probe.maxKey() > build.maxKey() {
		t.Fatal("probe keys must stay within the build key range")
	}
}

func TestBuildJoinDeterministic(t *testing.T) {
	spec := JoinSpec{BuildSize: 512, ProbeSize: 512, ZipfBuild: 0.5, ZipfProbe: 0.5, Seed: 11}
	b1, p1, _ := BuildJoin(spec)
	b2, p2, _ := BuildJoin(spec)
	for i := range b1.Tuples {
		if b1.Tuples[i] != b2.Tuples[i] {
			t.Fatal("build generation is not deterministic")
		}
	}
	for i := range p1.Tuples {
		if p1.Tuples[i] != p2.Tuples[i] {
			t.Fatal("probe generation is not deterministic")
		}
	}
}

func TestBuildJoinPayloadsDisjoint(t *testing.T) {
	build, probe, err := BuildJoin(JoinSpec{BuildSize: 100, ProbeSize: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, bt := range build.Tuples {
		for _, pt := range probe.Tuples {
			if bt.Payload == pt.Payload {
				t.Fatal("build and probe payloads should be disjoint for verifiability")
			}
		}
	}
}

func TestBuildJoinRejectsBadSpecs(t *testing.T) {
	bad := []JoinSpec{
		{BuildSize: 0, ProbeSize: 10},
		{BuildSize: 10, ProbeSize: 0},
		{BuildSize: 10, ProbeSize: 10, ZipfBuild: -1},
		{BuildSize: 10, ProbeSize: 10, ZipfProbe: -1},
		{BuildSize: 10, ProbeSize: 10, ZipfBuild: math.NaN()},
		{BuildSize: 10, ProbeSize: 10, ZipfProbe: math.NaN()},
		{BuildSize: 10, ProbeSize: 10, ZipfBuild: math.Inf(1)},
		{BuildSize: 10, ProbeSize: 10, ZipfProbe: math.Inf(1)},
		{BuildSize: 10, ProbeSize: 10, ZipfBuild: math.Inf(-1)},
	}
	for _, spec := range bad {
		if _, _, err := BuildJoin(spec); err == nil {
			t.Fatalf("spec %+v should be rejected", spec)
		}
	}
	if (JoinSpec{BuildSize: 4, ProbeSize: 4}).String() == "" {
		t.Fatal("String should render")
	}
}

func TestBuildGroupByUniformRepeats(t *testing.T) {
	rel, err := BuildGroupBy(GroupBySpec{Size: 3000, Repeats: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[uint64]int)
	for _, tup := range rel.Tuples {
		counts[tup.Key]++
	}
	if len(counts) != 1000 {
		t.Fatalf("distinct keys = %d, want 1000", len(counts))
	}
	for k, c := range counts {
		if c != 3 {
			t.Fatalf("key %d appears %d times, want 3", k, c)
		}
	}
}

func TestBuildGroupByPayloadsDistinct(t *testing.T) {
	rel, err := BuildGroupBy(GroupBySpec{Size: 300, Repeats: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for _, tup := range rel.Tuples {
		if seen[tup.Payload] {
			t.Fatal("payloads must be distinct")
		}
		seen[tup.Payload] = true
	}
}

func TestBuildGroupBySkewed(t *testing.T) {
	rel, err := BuildGroupBy(GroupBySpec{Size: 30000, Repeats: 3, Zipf: 1.0, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[uint64]int)
	max := 0
	for _, tup := range rel.Tuples {
		counts[tup.Key]++
		if counts[tup.Key] > max {
			max = counts[tup.Key]
		}
	}
	if max <= 10 {
		t.Fatalf("Zipf(1.0) should produce a heavily repeated key, max count %d", max)
	}
}

func TestBuildGroupByRejectsBadSpecs(t *testing.T) {
	bad := []GroupBySpec{
		{Size: 0, Repeats: 3},
		{Size: 10, Repeats: 0},
		{Size: 10, Repeats: 3, Zipf: -0.5},
		{Size: 10, Repeats: 3, Zipf: math.NaN()},
		{Size: 10, Repeats: 3, Zipf: math.Inf(1)},
		{Size: 10, Repeats: 3, Zipf: math.Inf(-1)},
	}
	for _, spec := range bad {
		if _, err := BuildGroupBy(spec); err == nil {
			t.Fatalf("spec %+v should be rejected", spec)
		}
	}
}

func TestBuildGroupByTinyRelation(t *testing.T) {
	rel, err := BuildGroupBy(GroupBySpec{Size: 2, Repeats: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("len = %d", rel.Len())
	}
}

func TestBuildIndexWorkload(t *testing.T) {
	build, probe, err := BuildIndexWorkload(1<<10, 9)
	if err != nil {
		t.Fatal(err)
	}
	if build.distinctKeys() != build.Len() {
		t.Fatal("index build keys must be unique")
	}
	if probe.Len() != build.Len() {
		t.Fatal("probe size must equal index size")
	}
	// Every probe key exists in the index exactly once.
	keys := make(map[uint64]int)
	for _, tup := range build.Tuples {
		keys[tup.Key]++
	}
	for _, tup := range probe.Tuples {
		keys[tup.Key]--
	}
	for k, c := range keys {
		if c != 0 {
			t.Fatalf("key %d unbalanced between build and probe (%d)", k, c)
		}
	}
	if _, _, err := BuildIndexWorkload(0, 1); err == nil {
		t.Fatal("zero-size workload should be rejected")
	}
}

func TestRelationHelpers(t *testing.T) {
	r := &Relation{Tuples: []Tuple{{Key: 5, Payload: 1}, {Key: 2, Payload: 2}, {Key: 9, Payload: 3}}}
	if r.minKey() != 2 || r.maxKey() != 9 {
		t.Fatalf("min/max = %d/%d", r.minKey(), r.maxKey())
	}
	if r.Bytes() != 3*TupleBytes {
		t.Fatalf("Bytes = %d", r.Bytes())
	}
	empty := &Relation{}
	if empty.minKey() != 0 || empty.maxKey() != 0 || empty.distinctKeys() != 0 {
		t.Fatal("empty relation helpers wrong")
	}
}
