package experiments

import (
	"amac/internal/memsim"
	"amac/internal/ops"
	"amac/internal/relation"
	"amac/internal/table"
)

func init() {
	register(Descriptor{ID: "fig9", Title: "Group-by: cycles per input tuple for small and large relations under skew (Xeon)", Run: fig9})
	register(Descriptor{ID: "fig12b", Title: "Group-by on SPARC T4: cycles per input tuple under skew", Run: fig12b})
}

// groupBySkews are the key distributions of Figure 9 and Figure 12b.
var groupBySkews = []struct {
	label string
	zipf  float64
}{
	{"Uniform", 0},
	{"Zipf (z=0.5)", 0.5},
	{"Zipf (z=1)", 1.0},
}

// runGroupByFigure measures cycles per input tuple for every technique and
// skew at the given input sizes.
func runGroupByFigure(cfg Config, id, title string, machine memsim.Config, inputSizes map[string]int) []*table.Table {
	var out []*table.Table
	for sizeLabel, size := range inputSizes {
		rows := make([]string, len(groupBySkews))
		for i, s := range groupBySkews {
			rows[i] = s.label
		}
		t := table.New(id+"-"+sizeLabel, title+", input 2^"+itoa(log2(size))+" tuples", "cycles/input tuple", rows, techColumns)
		t.AddNote("each distinct key appears %d times when uniform; six aggregate functions per match; scale %q", cfg.sizes().gbRepeats, cfg.scale())
		type cell struct {
			row  string
			tech ops.Technique
		}
		var cells []cell
		var tasks []func(*sweepEnv) phaseResult
		for _, s := range groupBySkews {
			for _, tech := range ops.Techniques {
				gc := groupByConfig{
					machine: machine,
					spec:    relation.GroupBySpec{Size: size, Repeats: cfg.sizes().gbRepeats, Zipf: s.zipf, Seed: cfg.seed()},
					tech:    tech,
					window:  cfg.window(),
				}
				cells = append(cells, cell{s.label, tech})
				tasks = append(tasks, func(*sweepEnv) phaseResult { return runGroupBy(gc) })
			}
		}
		for i, res := range runSweep(cfg, tasks) {
			t.Set(cells[i].row, cells[i].tech.String(), res.cyclesPerTuple())
		}
		out = append(out, t)
	}
	return out
}

func fig9(cfg Config) []*table.Table {
	sz := cfg.sizes()
	small := runGroupByFigure(cfg, "fig9", "Group-by on Xeon x5670", memsim.XeonX5670(), map[string]int{"small": sz.gbSmall})
	large := runGroupByFigure(cfg, "fig9", "Group-by on Xeon x5670", memsim.XeonX5670(), map[string]int{"large": sz.gbLarge})
	return append(small, large...)
}

func fig12b(cfg Config) []*table.Table {
	sz := cfg.sizes()
	return runGroupByFigure(cfg, "fig12b", "Group-by on SPARC T4", memsim.SPARCT4(), map[string]int{"large": sz.gbLarge})
}

// itoa avoids importing strconv for a single call site.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
