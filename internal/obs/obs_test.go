package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

// TestDisabledObservabilityZeroAlloc is the tentpole's hard invariant: every
// recording method on the nil (disabled) sinks must be a no-op that
// allocates nothing.
func TestDisabledObservabilityZeroAlloc(t *testing.T) {
	var (
		tr *Trace
		ct *CoreTrace
		m  *Metrics
		cm *CoreMetrics
		lw *LatencyWindow
	)
	allocs := testing.AllocsPerRun(100, func() {
		ct = tr.Core("worker 0")
		ct.SlotStart(1, 0, 7)
		ct.SlotEnd(2, 0)
		ct.StageVisit(1, 2, 0, 1)
		ct.SlotRetry(3, 0, 1)
		ct.SlotPrefetch(3, 0)
		ct.GroupStart(4, 10)
		ct.GroupEnd(5, 10)
		ct.EngineSample(6, 8, 4)
		ct.WidthChange(7, 9)
		ct.Decision(8, DecSwitch, 1, 2)
		ct.QueueAdmit(9, 1)
		ct.QueueDrop(9, 2)
		ct.QueueBlock(9, 3)
		ct.QueueDepth(9, 3)
		ct.PipeDepth(10, 1, 5)
		ct.Backpressure(10, 1)
		_ = ct.Width()
		_ = ct.Len()
		cm = m.Core("worker 0")
		cm.Gauge("depth", func() float64 { return 0 })
		cm.Tick(100)
		_ = m.Interval()
		lw.Record(42)
		lw.Merge(nil)
		_ = lw.Quantile(0.99)
	})
	if allocs != 0 {
		t.Fatalf("disabled observability path allocates: %v allocs/op, want 0", allocs)
	}
}

func TestCoreTraceRingWrap(t *testing.T) {
	tr := NewTrace(8) // rounds to 8
	ct := tr.Core("c")
	for i := 0; i < 20; i++ {
		ct.QueueDepth(uint64(i), i)
	}
	if got := ct.Len(); got != 8 {
		t.Fatalf("Len = %d, want ring capacity 8", got)
	}
	if got := ct.Dropped(); got != 12 {
		t.Fatalf("Dropped = %d, want 12", got)
	}
	evs := ct.Events()
	for i, ev := range evs {
		if want := uint64(12 + i); ev.Cycle != want {
			t.Fatalf("event %d cycle = %d, want %d (oldest-first order)", i, ev.Cycle, want)
		}
	}
}

func TestTraceCoreReuseAndDiscard(t *testing.T) {
	tr := NewTrace(16)
	a := tr.Core("worker 0")
	b := tr.Core("worker 0")
	if a != b {
		t.Fatalf("Core with the same name returned distinct sinks")
	}
	c := tr.Core("worker 1")
	if c == a {
		t.Fatalf("Core with a new name returned the old sink")
	}
	if n := len(tr.Cores()); n != 2 {
		t.Fatalf("Cores = %d sinks, want 2", n)
	}
	d := newDiscardCore()
	for i := 0; i < 100; i++ {
		d.WidthChange(uint64(i), i)
	}
	if d.Width() != 99 {
		t.Fatalf("discard sink Width = %d, want 99", d.Width())
	}
	if n := len(tr.Cores()); n != 2 {
		t.Fatalf("discard sink leaked into the registry (%d cores)", n)
	}
}

// chromeFile mirrors the exported JSON for the schema round-trip.
type chromeFile struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		S    string         `json:"s"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestWriteChromeSchemaRoundTrip records one event of every kind and checks
// the export parses as Chrome trace-event JSON with well-formed records:
// every event has a phase, metadata names the process and tracks, begin/end
// spans balance, and counters carry values. It also fails when a Kind is
// missing from recordEveryKind or has no export case.
func TestWriteChromeSchemaRoundTrip(t *testing.T) {
	tr := NewTrace(1 << 10)
	ct := tr.Core("worker 0")
	recordEveryKind(ct)
	recorded := map[Kind]bool{}
	for _, ev := range ct.Events() {
		recorded[ev.Kind] = true
	}
	for k := Kind(0); k < kindCount; k++ {
		if !recorded[k] {
			t.Errorf("kind %d is never recorded by the round trip", k)
		}
		if n := exportedRecords(t, k); n == 0 {
			t.Errorf("kind %d has no export case: it writes no records", k)
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(f.TraceEvents) == 0 {
		t.Fatalf("export holds no events")
	}
	var (
		procs, threads int
		depth          = map[int]int{}
		counters       = map[string]bool{}
		instants       int
	)
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				procs++
			}
			if ev.Name == "thread_name" {
				threads++
			}
			if ev.Args["name"] == "" {
				t.Fatalf("metadata event without a name: %+v", ev)
			}
		case "B":
			depth[ev.Pid<<16|ev.Tid]++
		case "E":
			depth[ev.Pid<<16|ev.Tid]--
			if depth[ev.Pid<<16|ev.Tid] < 0 {
				t.Fatalf("end event without a begin on pid %d tid %d", ev.Pid, ev.Tid)
			}
		case "X":
			if ev.Dur <= 0 {
				t.Fatalf("complete event with non-positive dur: %+v", ev)
			}
		case "i":
			if ev.S != "t" {
				t.Fatalf("instant event without thread scope: %+v", ev)
			}
			instants++
		case "C":
			if len(ev.Args) == 0 {
				t.Fatalf("counter event without a value: %+v", ev)
			}
			counters[ev.Name] = true
		default:
			t.Fatalf("unknown phase %q in %+v", ev.Ph, ev)
		}
	}
	if procs != 1 {
		t.Fatalf("process_name metadata = %d, want 1", procs)
	}
	if threads < 4 { // controller, queue, engine, slot 0
		t.Fatalf("thread_name metadata = %d, want >= 4", threads)
	}
	for tid, d := range depth {
		if d != 0 {
			t.Fatalf("unbalanced span depth %d on track %d", d, tid)
		}
	}
	for _, want := range []string{"width", "mshr", "queue depth", "pipe2 depth", "shed level"} {
		if !counters[want] {
			t.Fatalf("missing counter track %q (have %v)", want, counters)
		}
	}
	if instants == 0 {
		t.Fatalf("no instant events exported")
	}
	if !strings.Contains(buf.String(), DecisionName(DecSwitch)) {
		t.Fatalf("decision instant lost its name")
	}
}

// exportedRecords counts the records one event of kind k adds to an export,
// with a slot span and a group span open so an end has something to close.
func exportedRecords(t *testing.T, k Kind) int {
	t.Helper()
	count := func(withEvent bool) int {
		tr := NewTrace(16)
		ct := tr.Core("c")
		ct.SlotStart(1, 0, 1)
		ct.GroupStart(1, 1)
		if withEvent {
			ct.push(Event{Cycle: 2, Kind: k, A: 1, B: 1, Dur: 1})
		}
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
		var f chromeFile
		if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
			t.Fatalf("kind %d: export is not valid JSON: %v", k, err)
		}
		return len(f.TraceEvents)
	}
	return count(true) - count(false)
}

// TestWriteChromeDroppedMetadata forces ring overflow and checks the export
// declares the loss: a dropped_events metadata record carrying the overwrite
// count and the retained length, so a reader of the JSON alone can tell a
// complete trace from the tail of one. A non-overflowed core must not carry
// the record.
func TestWriteChromeDroppedMetadata(t *testing.T) {
	tr := NewTrace(8)
	full := tr.Core("full")
	for i := 0; i < 20; i++ {
		full.QueueDepth(uint64(i), i)
	}
	intact := tr.Core("intact")
	intact.QueueDepth(0, 1)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	found := map[int]bool{}
	for _, ev := range f.TraceEvents {
		if ev.Ph != "M" || ev.Name != "dropped_events" {
			continue
		}
		found[ev.Pid] = true
		if got := ev.Args["dropped"]; got != float64(12) {
			t.Fatalf("dropped = %v, want 12", got)
		}
		if got := ev.Args["retained"]; got != float64(8) {
			t.Fatalf("retained = %v, want 8", got)
		}
	}
	fullPid, intactPid := tr.Cores()[0], tr.Cores()[1]
	_ = intactPid
	if len(found) != 1 {
		t.Fatalf("dropped_events records on %d cores, want exactly 1 (the overflowed one)", len(found))
	}
	if fullPid.Dropped() != 12 {
		t.Fatalf("Dropped = %d, want 12", fullPid.Dropped())
	}
}

// TestWriteChromeElidesOrphanedEnds wraps the ring past a begin event and
// checks the matching end is dropped rather than exported unbalanced.
func TestWriteChromeElidesOrphanedEnds(t *testing.T) {
	tr := NewTrace(2)
	ct := tr.Core("c")
	ct.SlotStart(1, 0, 0) // will be overwritten
	ct.QueueDepth(2, 1)
	ct.SlotEnd(3, 0) // ring now holds [depth, end]: the begin is gone
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	for _, ev := range f.TraceEvents {
		if ev.Ph == "E" {
			t.Fatalf("orphaned end event exported: %+v", ev)
		}
	}
}

func TestMetricsJSONL(t *testing.T) {
	m := NewMetrics(0)
	if m.Interval() != DefaultMetricsInterval {
		t.Fatalf("Interval = %d, want default %d", m.Interval(), DefaultMetricsInterval)
	}
	cm := m.Core("worker 0")
	if m.Core("worker 0") != cm {
		t.Fatalf("Core with the same name returned a distinct collection")
	}
	depth := 0.0
	cm.Gauge("queue_depth", func() float64 { return depth })
	cm.Gauge("queue_depth", func() float64 { return -1 }) // duplicate renamed
	for i := 1; i <= 3; i++ {
		depth = float64(i)
		cm.Tick(uint64(i) * 4096)
	}
	if cm.Samples() != 3 {
		t.Fatalf("Samples = %d, want 3", cm.Samples())
	}
	var buf bytes.Buffer
	if err := m.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("JSONL lines = %d, want 3\n%s", len(lines), buf.String())
	}
	for i, line := range lines {
		var rec struct {
			Core   string             `json:"core"`
			Cycle  uint64             `json:"cycle"`
			Values map[string]float64 `json:"values"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if rec.Core != "worker 0" {
			t.Fatalf("line %d core = %q", i, rec.Core)
		}
		if want := uint64(i+1) * 4096; rec.Cycle != want {
			t.Fatalf("line %d cycle = %d, want %d", i, rec.Cycle, want)
		}
		if got := rec.Values["queue_depth"]; got != float64(i+1) {
			t.Fatalf("line %d queue_depth = %v, want %d", i, got, i+1)
		}
		if len(rec.Values) != 2 {
			t.Fatalf("line %d has %d values, want 2 (duplicate gauge renamed)", i, len(rec.Values))
		}
	}
}

func TestLatencyWindowQuantile(t *testing.T) {
	lw := NewLatencyWindow(4)
	if got := lw.Quantile(0.99); got != 0 {
		t.Fatalf("empty window quantile = %d, want 0", got)
	}
	for _, v := range []uint64{10, 20, 30, 40} {
		lw.Record(v)
	}
	if got := lw.Quantile(0); got != 10 {
		t.Fatalf("q0 = %d, want 10", got)
	}
	if got := lw.Quantile(1); got != 40 {
		t.Fatalf("q1 = %d, want 40", got)
	}
	// Eviction: 10 falls out of the window.
	lw.Record(50)
	if got := lw.Quantile(0); got != 20 {
		t.Fatalf("q0 after eviction = %d, want 20", got)
	}
	if got := lw.Quantile(0.5); got < 30 || got > 40 {
		t.Fatalf("median = %d, want 30..40", got)
	}
}

// TestLatencyWindowSingleSlot covers a window shorter than its sample stream:
// at size 1 every Record evicts the previous observation, so the window is
// always exactly the latest sample.
func TestLatencyWindowSingleSlot(t *testing.T) {
	lw := NewLatencyWindow(1)
	for _, v := range []uint64{10, 20, 30} {
		lw.Record(v)
		if got := lw.Quantile(0); got != v {
			t.Fatalf("q0 after Record(%d) = %d, want %d", v, got, v)
		}
		if got := lw.Quantile(1); got != v {
			t.Fatalf("q1 after Record(%d) = %d, want %d", v, got, v)
		}
	}
}

// TestLatencyWindowExactBoundaryEviction records exactly capacity samples —
// the fill boundary, where head wraps to zero — and checks the window still
// holds all of them, then evicts precisely one per further Record.
func TestLatencyWindowExactBoundaryEviction(t *testing.T) {
	lw := NewLatencyWindow(4)
	for _, v := range []uint64{10, 20, 30, 40} { // exactly full: head wrapped
		lw.Record(v)
	}
	if got := lw.Quantile(0); got != 10 {
		t.Fatalf("q0 at exact fill = %d, want 10 (nothing evicted yet)", got)
	}
	lw.Record(50) // first eviction: 10 out
	if got := lw.Quantile(0); got != 20 {
		t.Fatalf("q0 after one past the boundary = %d, want 20", got)
	}
	if got := lw.Quantile(1); got != 50 {
		t.Fatalf("q1 after one past the boundary = %d, want 50", got)
	}
}

// TestLatencyWindowMerge covers the per-worker aggregation path: empty-into-
// empty and empty-into-full no-op, a wrapped source merges oldest-first, and
// a merge that overflows the destination evicts the destination's oldest.
func TestLatencyWindowMerge(t *testing.T) {
	dst := NewLatencyWindow(4)
	dst.Merge(NewLatencyWindow(4)) // empty into empty
	if got := dst.Quantile(0.99); got != 0 {
		t.Fatalf("merge of empty windows left q99 = %d, want 0", got)
	}
	dst.Record(10)
	dst.Merge(NewLatencyWindow(4)) // empty into non-empty
	if got := dst.Quantile(1); got != 10 {
		t.Fatalf("empty merge disturbed the window: q1 = %d, want 10", got)
	}

	src := NewLatencyWindow(2)
	for _, v := range []uint64{1, 2, 3} { // wrapped: holds [2 3]
		src.Record(v)
	}
	dst.Merge(src) // dst: [10 2 3]
	if got := dst.Quantile(0); got != 2 {
		t.Fatalf("q0 after merge = %d, want 2 (overwritten 1 must not appear)", got)
	}
	if got := dst.Quantile(1); got != 10 {
		t.Fatalf("q1 after merge = %d, want 10", got)
	}

	big := NewLatencyWindow(2)
	for _, v := range []uint64{7, 8} {
		big.Record(v)
	}
	dst.Merge(big) // 3+2 > 4: dst's oldest (10) evicts; holds [2 3 7 8]
	if got := dst.Quantile(1); got != 8 {
		t.Fatalf("q1 after overflowing merge = %d, want 8", got)
	}
	if got := dst.Quantile(0); got != 2 {
		t.Fatalf("q0 after overflowing merge = %d, want 2 (10 evicted)", got)
	}
}

// TestLatencyWindowQuantileMatchesReference checks Quantile against a naive
// reference — sort a copy of the held observations, take index
// floor(q·(n−1)) — on empty, partially filled, exactly full and wrapped
// windows of several sizes, including duplicate values.
func TestLatencyWindowQuantileMatchesReference(t *testing.T) {
	qs := []float64{0, 0.5, 0.99, 1}
	for _, size := range []int{1, 2, 7, 64, 512} {
		lw := NewLatencyWindow(size)
		var held []uint64 // every observation, oldest first
		x := uint64(size)
		for n := 0; n <= 3*size+1; n++ {
			window := held[max(len(held)-size, 0):]
			ref := append([]uint64(nil), window...)
			slices.Sort(ref)
			for _, q := range qs {
				want := uint64(0)
				if len(ref) > 0 {
					want = ref[int(q*float64(len(ref)-1))]
				}
				if got := lw.Quantile(q); got != want {
					t.Fatalf("size %d after %d records: q%v = %d, want %d (window %v)", size, n, q, got, want, window)
				}
			}
			x = x*6364136223846793005 + 1442695040888963407
			v := x >> 54 // a small domain, so duplicates are common
			lw.Record(v)
			held = append(held, v)
		}
		if allocs := testing.AllocsPerRun(10, func() { lw.Quantile(0.99) }); allocs != 0 {
			t.Fatalf("size %d: Quantile allocates %v times", size, allocs)
		}
	}
}
