package experiments

import (
	"fmt"

	"amac/internal/memsim"
	"amac/internal/ops"
	"amac/internal/table"
)

func init() {
	register(Descriptor{ID: "fig10", Title: "Binary search tree search: cycles per probe tuple versus tree size (Xeon)", Run: fig10})
	register(Descriptor{ID: "fig11", Title: "Skip list search and insert: cycles per output tuple versus size (Xeon)", Run: fig11})
	register(Descriptor{ID: "fig13", Title: "BST search and skip list search on SPARC T4", Run: fig13})
}

// fig10 reproduces Figure 10: BST search cost as a function of tree size.
func fig10(cfg Config) []*table.Table {
	sz := cfg.sizes()
	rows := make([]string, len(sz.bstSizes))
	for i, e := range sz.bstSizes {
		rows[i] = fmt.Sprintf("2^%d", e)
	}
	t := table.New("fig10", "BST search on Xeon x5670", "cycles/probe tuple", rows, techColumns)
	t.AddNote("rows: tree size (nodes); probe relation size equals tree size; scale %q", cfg.scale())
	type cell struct {
		row  string
		tech ops.Technique
	}
	var cells []cell
	var tasks []func(*sweepEnv) phaseResult
	for _, e := range sz.bstSizes {
		for _, tech := range ops.Techniques {
			e, tech := e, tech
			cells = append(cells, cell{fmt.Sprintf("2^%d", e), tech})
			tasks = append(tasks, func(env *sweepEnv) phaseResult {
				return runBSTSearch(env, memsim.XeonX5670(), e, tech, cfg.window(), cfg.seed())
			})
		}
	}
	for i, res := range runSweep(cfg, tasks) {
		t.Set(cells[i].row, cells[i].tech.String(), res.cyclesPerTuple())
	}
	return []*table.Table{t}
}

// fig11 reproduces Figure 11: skip list search and insert cost versus size.
func fig11(cfg Config) []*table.Table {
	sz := cfg.sizes()
	rows := make([]string, len(sz.slSizes))
	for i, e := range sz.slSizes {
		rows[i] = fmt.Sprintf("2^%d", e)
	}
	search := table.New("fig11-search", "Skip list search on Xeon x5670", "cycles/probe tuple", rows, techColumns)
	insert := table.New("fig11-insert", "Skip list insert on Xeon x5670", "cycles/input tuple", rows, techColumns)
	search.AddNote("rows: skip list size (elements); scale %q", cfg.scale())
	insert.AddNote("rows: number of inserted elements (list built from scratch); scale %q", cfg.scale())
	type cell struct {
		row  string
		tech ops.Technique
	}
	type pair struct{ search, insert phaseResult }
	var cells []cell
	var tasks []func(*sweepEnv) pair
	for _, e := range sz.slSizes {
		for _, tech := range ops.Techniques {
			e, tech := e, tech
			cells = append(cells, cell{fmt.Sprintf("2^%d", e), tech})
			tasks = append(tasks, func(env *sweepEnv) pair {
				return pair{
					search: runSkipListSearch(env, memsim.XeonX5670(), e, tech, cfg.window(), cfg.seed()),
					insert: runSkipListInsert(memsim.XeonX5670(), e, tech, cfg.window(), cfg.seed()),
				}
			})
		}
	}
	for i, res := range runSweep(cfg, tasks) {
		search.Set(cells[i].row, cells[i].tech.String(), res.search.cyclesPerTuple())
		insert.Set(cells[i].row, cells[i].tech.String(), res.insert.cyclesPerTuple())
	}
	return []*table.Table{search, insert}
}

// fig13 reproduces Figure 13: BST search and skip list search on the T4.
func fig13(cfg Config) []*table.Table {
	sz := cfg.sizes()
	rows := []string{
		fmt.Sprintf("BST search (2^%d nodes)", sz.bstT4),
		fmt.Sprintf("Skip list search (2^%d elements)", sz.slT4),
	}
	t := table.New("fig13", "BST and skip list search on SPARC T4", "cycles/probe tuple", rows, techColumns)
	t.AddNote("scale %q", cfg.scale())
	type pair struct{ bst, sl phaseResult }
	var tasks []func(*sweepEnv) pair
	for _, tech := range ops.Techniques {
		tech := tech
		tasks = append(tasks, func(env *sweepEnv) pair {
			return pair{
				bst: runBSTSearch(env, memsim.SPARCT4(), sz.bstT4, tech, cfg.window(), cfg.seed()),
				sl:  runSkipListSearch(env, memsim.SPARCT4(), sz.slT4, tech, cfg.window(), cfg.seed()),
			}
		})
	}
	for i, res := range runSweep(cfg, tasks) {
		tech := ops.Techniques[i]
		t.Set(rows[0], tech.String(), res.bst.cyclesPerTuple())
		t.Set(rows[1], tech.String(), res.sl.cyclesPerTuple())
	}
	return []*table.Table{t}
}
