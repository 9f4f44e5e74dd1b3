package experiments

import (
	"strings"
	"sync"
	"testing"

	"amac/internal/relation"
	"amac/internal/serve"
	"amac/internal/table"
)

// TestSharedCachesConcurrentFirstBuild hammers the process-wide immutable
// caches from many goroutines racing on the same keys, the exact pattern
// parallel sweep workers produce on a cold cache. Run under -race in CI.
// Every goroutine must observe the same published value (per-key build runs
// exactly once).
func TestSharedCachesConcurrentFirstBuild(t *testing.T) {
	spec := relation.JoinSpec{BuildSize: 1 << 10, ProbeSize: 1 << 10, ZipfBuild: 0.5, Seed: 971}
	gspec := relation.GroupBySpec{Size: 1 << 10, Repeats: 3, Zipf: 0.5, Seed: 971}

	const workers = 16
	type seen struct {
		build, probe *relation.Relation
		group        *relation.Relation
		idx          *relation.Relation
		arr          *uint64 // first element of the shared schedule
		arrLen       int
	}
	got := make([]seen, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				b, p := cachedJoinRelations(spec)
				ib, _ := cachedIndexRelations(1<<9, 971)
				g := cachedGroupByRelation(gspec)
				a := cachedArrivalSchedule("poisson", 123.5, 1<<10, 971)
				got[w] = seen{build: b, probe: p, group: g, idx: ib, arr: &a[0], arrLen: len(a)}
			}
		}(w)
	}
	wg.Wait()

	for w := 1; w < workers; w++ {
		if got[w] != got[0] {
			t.Fatalf("worker %d observed different cache entries than worker 0: %+v vs %+v", w, got[w], got[0])
		}
	}
	if got[0].arrLen != 1<<10 {
		t.Fatalf("arrival schedule has %d entries, want %d", got[0].arrLen, 1<<10)
	}
}

// TestArrivalScheduleCacheMatchesFreshBuild pins the cache to the uncached
// construction: same process, rate, length and seed must yield the same
// schedule a direct build produces.
func TestArrivalScheduleCacheMatchesFreshBuild(t *testing.T) {
	for _, name := range []string{"deterministic", "poisson", "bursty"} {
		got := cachedArrivalSchedule(name, 333.25, 500, 7)
		fresh := mustSchedule(t, name, 333.25, 500, 7)
		if len(got) != len(fresh) {
			t.Fatalf("%s: cached length %d, fresh %d", name, len(got), len(fresh))
		}
		for i := range got {
			if got[i] != fresh[i] {
				t.Fatalf("%s: arrival %d: cached %d, fresh %d", name, i, got[i], fresh[i])
			}
		}
	}
}

// renderAll flattens tables into one comparable string.
func renderAll(tables []*table.Table) string {
	var b strings.Builder
	for _, tab := range tables {
		tab.Render(&b)
	}
	return b.String()
}

// TestSweepParallelMatchesSerial is the tentpole invariant: fanning sweep
// points over host workers must reproduce the serial run byte for byte —
// every worker materializes its own deterministic workload copies, and
// results are consumed in submission order. Exercised across the sweep
// shapes (per-cell joins, per-row partitioned probes, serving cells, index
// sweeps). Run under -race in CI.
func TestSweepParallelMatchesSerial(t *testing.T) {
	cases := []struct {
		id  string
		cfg Config
	}{
		{"fig6", Config{Scale: Tiny, Seed: 11}},
		{"fig5a", Config{Scale: Tiny, Seed: 11}},
		{"scaleN", Config{Scale: Tiny, Seed: 11, Workers: 4}},
		{"serveN", Config{Scale: Tiny, Seed: 11, Workers: 2}},
		{"serveN", Config{Scale: Tiny, Seed: 11, Arrivals: "bursty", QueueCap: 32}},
		{"fig10", Config{Scale: Tiny, Seed: 11}},
		{"pipeN", Config{Scale: Tiny, Seed: 11}},
		{"pipeN", Config{Scale: Tiny, Seed: 11, QueueCap: 32}},
	}
	for _, tc := range cases {
		serialCfg := tc.cfg
		serialCfg.Parallel = 1
		parallelCfg := tc.cfg
		parallelCfg.Parallel = 4

		serialTables, err := Run(tc.id, serialCfg)
		if err != nil {
			t.Fatal(err)
		}
		parallelTables, err := Run(tc.id, parallelCfg)
		if err != nil {
			t.Fatal(err)
		}
		if s, p := renderAll(serialTables), renderAll(parallelTables); s != p {
			t.Errorf("%s (%+v): parallel sweep diverged from serial\n--- serial ---\n%s\n--- parallel ---\n%s", tc.id, tc.cfg, s, p)
		}
	}
}

func mustSchedule(t *testing.T, name string, period float64, n int, seed uint64) []uint64 {
	t.Helper()
	proc, err := serve.ParseArrivals(name, period)
	if err != nil {
		t.Fatal(err)
	}
	return proc.Schedule(n, seed)
}
