package exec_test

import (
	"testing"

	"amac/internal/exec/exectest"
)

// TestGroupPrefetchRespectsGroupBarrier: GP may not start a lookup from the
// next group before every lookup of the current group has completed, which
// is exactly the rigidity the paper criticises. With chains of different
// lengths inside a group, the first `group` completions must still all come
// from the first `group` input indices.
func TestGroupPrefetchRespectsGroupBarrier(t *testing.T) {
	lengths := make([]int, 40)
	for i := range lengths {
		lengths[i] = 1 + (i % 7)
	}
	const group = 8
	m := exectest.NewChainMachine(lengths, 4)
	groupPrefetch(newCore(), m, group)

	for pos, idx := range m.Completions {
		if idx/group > pos/group {
			t.Fatalf("lookup %d (group %d) completed at position %d, before group %d finished",
				idx, idx/group, pos, idx/group-1)
		}
	}
}

// TestSoftwarePipelineRefillsWithoutGroupBarrier: SPP starts new lookups as
// slots expire, so completions from "later groups" may appear before all
// earlier lookups finish when chain lengths vary. This distinguishes its
// schedule from GP's.
func TestSoftwarePipelineRefillsWithoutGroupBarrier(t *testing.T) {
	lengths := make([]int, 60)
	for i := range lengths {
		if i%10 == 0 {
			lengths[i] = 12 // occasional long chain
		} else {
			lengths[i] = 1
		}
	}
	m := exectest.NewChainMachine(lengths, 3)
	softwarePipeline(newCore(), m, 10)

	// Some short lookup with an index beyond the first "group" of 10 must
	// complete before the long lookup 0 does.
	longPos := -1
	firstLatePos := -1
	for pos, idx := range m.Completions {
		if idx == 0 {
			longPos = pos
		}
		if idx >= 20 && firstLatePos == -1 {
			firstLatePos = pos
		}
	}
	if longPos == -1 || firstLatePos == -1 {
		t.Fatal("expected both markers in the completion order")
	}
	if firstLatePos > longPos {
		t.Fatalf("SPP should have refilled slots past the long lookup: lookup 0 finished at %d, first index>=20 at %d",
			longPos, firstLatePos)
	}
}

// TestBaselineNeverIssuesPrefetches: the baseline must not benefit from the
// prefetch targets the stages publish.
func TestBaselineNeverIssuesPrefetches(t *testing.T) {
	c := newCore()
	m := exectest.NewChainMachine(uniformLengths(100, 3), 4)
	baseline(c, m)
	if c.Stats().Prefetches != 0 {
		t.Fatalf("baseline issued %d prefetches", c.Stats().Prefetches)
	}
}

// TestPrefetchingEnginesIssuePrefetches: GP and SPP must issue roughly one
// prefetch per node visit.
func TestPrefetchingEnginesIssuePrefetches(t *testing.T) {
	for name, run := range map[string]func(m *exectest.ChainMachine) uint64{
		"gp": func(m *exectest.ChainMachine) uint64 {
			c := newCore()
			groupPrefetch(c, m, 8)
			return c.Stats().Prefetches
		},
		"spp": func(m *exectest.ChainMachine) uint64 {
			c := newCore()
			softwarePipeline(c, m, 8)
			return c.Stats().Prefetches
		},
	} {
		m := exectest.NewChainMachine(uniformLengths(100, 3), 4)
		if got := run(m); got < 250 {
			t.Fatalf("%s issued only %d prefetches for 300 node visits", name, got)
		}
	}
}
