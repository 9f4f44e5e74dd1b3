package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
)

// DefaultMetricsInterval is the sampling period, in simulated cycles, when
// NewMetrics is given zero.
const DefaultMetricsInterval = 4096

// Metrics is the root metrics registry: a set of per-core gauge collections
// sampled every Interval simulated cycles through memsim's cycle hook. Like
// Trace, a nil *Metrics is the disabled state — Core returns nil and every
// CoreMetrics method no-ops.
type Metrics struct {
	mu       sync.Mutex
	interval uint64
	cores    []*CoreMetrics
}

// NewMetrics creates a registry sampling every interval simulated cycles
// (zero or negative selects DefaultMetricsInterval).
func NewMetrics(interval int) *Metrics {
	if interval <= 0 {
		interval = DefaultMetricsInterval
	}
	return &Metrics{interval: uint64(interval)}
}

// Interval is the sampling period in simulated cycles (0 when disabled).
func (m *Metrics) Interval() uint64 {
	if m == nil {
		return 0
	}
	return m.interval
}

// Core registers (or re-uses) the named per-core gauge collection; nil
// receiver returns nil.
func (m *Metrics) Core(name string) *CoreMetrics {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.cores {
		if c.name == name {
			return c
		}
	}
	c := &CoreMetrics{name: name}
	m.cores = append(m.cores, c)
	return c
}

// Cores snapshots the registered collections in registration order.
func (m *Metrics) Cores() []*CoreMetrics {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*CoreMetrics(nil), m.cores...)
}

// metricsRecord is one JSON Lines sample.
type metricsRecord struct {
	Core   string             `json:"core"`
	Cycle  uint64             `json:"cycle"`
	Values map[string]float64 `json:"values"`
}

// WriteJSONL exports every core's samples as JSON Lines, one object per
// sample: {"core":"worker 0","cycle":4096,"values":{"queue_depth":3,...}}.
// Cores export in registration order, samples in cycle order; map keys
// marshal sorted, so the output is deterministic. Each sample carries the
// gauges that were registered when it was taken.
func (m *Metrics) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, c := range m.Cores() {
		for i, cyc := range c.cycles {
			// A row holds the gauges registered when it was sampled: gauges
			// only append, so they are the first len(row) names.
			row := c.vals[i]
			rec := metricsRecord{Core: c.name, Cycle: cyc, Values: make(map[string]float64, len(row))}
			for j, v := range row {
				rec.Values[c.names[j]] = v
			}
			if err := enc.Encode(rec); err != nil {
				return fmt.Errorf("obs: encoding %s sample %d: %w", c.name, i, err)
			}
		}
	}
	return bw.Flush()
}

// CoreMetrics is one core's gauge collection and its recorded samples. It is
// single-goroutine like the core it observes; all methods are nil-safe.
type CoreMetrics struct {
	name   string
	names  []string
	gauges []func() float64
	cycles []uint64
	vals   [][]float64
}

// Name returns the collection's registered core name.
func (c *CoreMetrics) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge registers a named gauge; fn is polled at every sample tick. Gauges
// registered with a name already present are renamed with a numeric suffix
// rather than rejected (sample rows must stay rectangular).
func (c *CoreMetrics) Gauge(name string, fn func() float64) {
	if c == nil || fn == nil {
		return
	}
	for _, n := range c.names {
		if n == name {
			name = fmt.Sprintf("%s_%d", name, len(c.names))
		}
	}
	c.names = append(c.names, name)
	c.gauges = append(c.gauges, fn)
}

// Tick polls every gauge and appends one sample stamped with the simulated
// cycle. Its signature matches memsim's cycle hook, so it installs directly:
// core.SetCycleHook(interval, cm.Tick).
func (c *CoreMetrics) Tick(cycle uint64) {
	if c == nil {
		return
	}
	row := make([]float64, len(c.gauges))
	for i, g := range c.gauges {
		row[i] = g()
	}
	c.cycles = append(c.cycles, cycle)
	c.vals = append(c.vals, row)
}

// Samples returns the number of recorded ticks.
func (c *CoreMetrics) Samples() int {
	if c == nil {
		return 0
	}
	return len(c.cycles)
}

// LatencyWindow is a fixed-size ring of the most recent request latencies,
// backing the sliding-window p99 gauge of the serving metrics. Nil-safe.
type LatencyWindow struct {
	buf     []uint64
	head    int
	n       int
	scratch []uint64
}

// NewLatencyWindow creates a window over the last size latencies (zero or
// negative selects 512).
func NewLatencyWindow(size int) *LatencyWindow {
	if size <= 0 {
		size = 512
	}
	return &LatencyWindow{buf: make([]uint64, size), scratch: make([]uint64, size)}
}

// Record adds one latency observation, evicting the oldest when full.
func (l *LatencyWindow) Record(v uint64) {
	if l == nil {
		return
	}
	l.buf[l.head] = v
	l.head++
	if l.head == len(l.buf) {
		l.head = 0
	}
	if l.n < len(l.buf) {
		l.n++
	}
}

// Merge folds another window's held observations into l, oldest-first, as if
// each had been Recorded here — the per-worker-to-service aggregation path.
// Merging nil or an empty window is a no-op; when the combined count exceeds
// l's capacity the oldest observations evict as usual, so the result is the
// most recent capacity-many of l's history followed by o's.
func (l *LatencyWindow) Merge(o *LatencyWindow) {
	if l == nil || o == nil || o.n == 0 {
		return
	}
	if o.n < len(o.buf) {
		for _, v := range o.buf[:o.n] {
			l.Record(v)
		}
		return
	}
	for _, v := range o.buf[o.head:] {
		l.Record(v)
	}
	for _, v := range o.buf[:o.head] {
		l.Record(v)
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the windowed latencies,
// zero when empty. The window is small; an exact sort is cheaper than
// maintaining a sketch.
func (l *LatencyWindow) Quantile(q float64) uint64 {
	if l == nil || l.n == 0 {
		return 0
	}
	s := l.scratch[:0]
	if l.n < len(l.buf) {
		s = append(s, l.buf[:l.n]...)
	} else {
		s = append(s, l.buf...)
	}
	slices.Sort(s)
	idx := int(q * float64(len(s)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
