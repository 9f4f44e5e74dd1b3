package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// refChromeEvent is one record of the Chrome trace-event JSON format as the
// reflective reference encoder builds it: encoding/json marshals the struct
// in field order, drops the omitempty fields when zero and sorts the args
// keys. WriteChrome must produce exactly these bytes.
type refChromeEvent struct {
	Name string         `json:"name,omitempty"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeReference is the obviously-correct export WriteChrome is
// checked against: every event is built as a refChromeEvent, the ring is
// copied out through Events, and each record goes through json.Marshal.
func writeChromeReference(t *Trace, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	enc := &refChromeEncoder{w: bw, first: true}
	for _, c := range t.Cores() {
		if err := refWriteCore(c, enc); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

type refChromeEncoder struct {
	w     *bufio.Writer
	first bool
}

func (e *refChromeEncoder) emit(ev refChromeEvent) error {
	b, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if !e.first {
		if _, err := e.w.WriteString(",\n"); err != nil {
			return err
		}
	}
	e.first = false
	_, err = e.w.Write(b)
	return err
}

func refWriteCore(c *CoreTrace, enc *refChromeEncoder) error {
	meta := func(kind, name string, tid int) error {
		return enc.emit(refChromeEvent{
			Name: kind, Ph: "M", Pid: c.pid, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	if err := meta("process_name", c.name, 0); err != nil {
		return err
	}
	if err := meta("thread_name", "controller", tidController); err != nil {
		return err
	}
	if err := meta("thread_name", "queue", tidQueue); err != nil {
		return err
	}
	if err := meta("thread_name", "engine", tidEngine); err != nil {
		return err
	}
	if d := c.Dropped(); d > 0 {
		if err := enc.emit(refChromeEvent{
			Name: "dropped_events", Ph: "M", Pid: c.pid, Tid: 0,
			Args: map[string]any{"dropped": d, "retained": c.Len()},
		}); err != nil {
			return err
		}
	}
	slots := map[int32]bool{}
	depth := map[int]int{}
	for _, ev := range c.Events() {
		switch ev.Kind {
		case KindSlotStart, KindSlotEnd, KindStage, KindRetry, KindPrefetch, KindSlotAbandon:
			if !slots[ev.Track] {
				slots[ev.Track] = true
				if err := meta("thread_name", fmt.Sprintf("slot %d", ev.Track), tidSlotBase+int(ev.Track)); err != nil {
					return err
				}
			}
		}
		out, ok := refChromeEvents(c, ev)
		if !ok {
			continue
		}
		for _, o := range out {
			switch o.Ph {
			case "B":
				depth[o.Tid]++
			case "E":
				if depth[o.Tid] == 0 {
					continue
				}
				depth[o.Tid]--
			}
			if err := enc.emit(o); err != nil {
				return err
			}
		}
	}
	return nil
}

// refChromeEvents translates one ring record; counters may expand to two
// events. ok is false for a Kind the export does not know.
func refChromeEvents(c *CoreTrace, ev Event) (out []refChromeEvent, ok bool) {
	one := func(e refChromeEvent) ([]refChromeEvent, bool) { return []refChromeEvent{e}, true }
	instant := func(tid int, name string) ([]refChromeEvent, bool) {
		return one(refChromeEvent{Name: name, Ph: "i", Ts: ev.Cycle, Pid: c.pid, Tid: tid, S: "t"})
	}
	counter := func(name string, v int64) refChromeEvent {
		return refChromeEvent{Name: name, Ph: "C", Ts: ev.Cycle, Pid: c.pid, Tid: 0,
			Args: map[string]any{name: v}}
	}
	slotTid := tidSlotBase + int(ev.Track)
	switch ev.Kind {
	case KindSlotStart:
		return one(refChromeEvent{Name: fmt.Sprintf("req %d", ev.A), Ph: "B", Ts: ev.Cycle, Pid: c.pid, Tid: slotTid})
	case KindSlotEnd:
		return one(refChromeEvent{Ph: "E", Ts: ev.Cycle, Pid: c.pid, Tid: slotTid})
	case KindStage:
		dur := ev.Dur
		if dur == 0 {
			dur = 1
		}
		return one(refChromeEvent{Name: fmt.Sprintf("stage %d", ev.A), Ph: "X", Ts: ev.Cycle, Dur: dur, Pid: c.pid, Tid: slotTid})
	case KindRetry:
		return instant(slotTid, fmt.Sprintf("retry s%d", ev.A))
	case KindPrefetch:
		return instant(slotTid, "prefetch")
	case KindGroupStart:
		return one(refChromeEvent{Name: fmt.Sprintf("group %d", ev.A), Ph: "B", Ts: ev.Cycle, Pid: c.pid, Tid: tidEngine})
	case KindGroupEnd:
		return one(refChromeEvent{Ph: "E", Ts: ev.Cycle, Pid: c.pid, Tid: tidEngine})
	case KindEngineSample:
		return []refChromeEvent{counter("width", ev.A), counter("mshr", ev.B)}, true
	case KindWidthChange:
		return []refChromeEvent{
			counter("width", ev.A),
			{Name: fmt.Sprintf("width %d", ev.A), Ph: "i", Ts: ev.Cycle, Pid: c.pid, Tid: tidController, S: "t"},
		}, true
	case KindDecision:
		return one(refChromeEvent{
			Name: DecisionName(int(ev.Track)), Ph: "i", Ts: ev.Cycle, Pid: c.pid, Tid: tidController, S: "t",
			Args: map[string]any{"a": ev.A, "b": ev.B},
		})
	case KindQueueAdmit:
		return instant(tidQueue, "admit")
	case KindQueueDrop:
		return instant(tidQueue, "drop")
	case KindQueueBlock:
		return instant(tidQueue, "block")
	case KindQueueDepth:
		return one(counter("queue depth", ev.A))
	case KindPipeDepth:
		return one(counter(fmt.Sprintf("pipe%d depth", ev.Track), ev.A))
	case KindBackpressure:
		return instant(tidEngine, fmt.Sprintf("backpressure p%d", ev.Track))
	case KindSlotAbandon:
		name := "timeout"
		if ev.B == 1 {
			name = "crash drop"
		}
		return []refChromeEvent{
			{Name: fmt.Sprintf("%s req %d", name, ev.A), Ph: "i", Ts: ev.Cycle, Pid: c.pid, Tid: slotTid, S: "t"},
			{Ph: "E", Ts: ev.Cycle, Pid: c.pid, Tid: slotTid},
		}, true
	case KindFault:
		dur := ev.Dur
		if dur == 0 {
			dur = 1
		}
		return one(refChromeEvent{
			Name: fmt.Sprintf("fault %s x%.1f", faultKindName(int(ev.A)), float64(ev.B)/1000),
			Ph:   "X", Ts: ev.Cycle, Dur: dur, Pid: c.pid, Tid: tidEngine,
		})
	case KindBreaker:
		return one(refChromeEvent{
			Name: fmt.Sprintf("breaker %s→%s", breakerStateName(int(ev.A)), breakerStateName(int(ev.B))),
			Ph:   "i", Ts: ev.Cycle, Pid: c.pid, Tid: tidController, S: "t",
		})
	case KindHedge:
		return instant(tidQueue, fmt.Sprintf("hedge req %d → shard %d", ev.A, ev.B))
	case KindReroute:
		return instant(tidQueue, fmt.Sprintf("reroute req %d → shard %d", ev.A, ev.B))
	case KindRequeue:
		return instant(tidQueue, fmt.Sprintf("retry req %d (#%d)", ev.A, ev.B))
	case KindBrownout:
		return []refChromeEvent{
			counter("shed level", ev.A),
			{Name: fmt.Sprintf("brownout level %d", ev.A), Ph: "i", Ts: ev.Cycle, Pid: c.pid, Tid: tidController, S: "t"},
		}, true
	}
	return nil, false
}
