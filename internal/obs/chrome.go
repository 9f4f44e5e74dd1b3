package obs

import (
	"io"
	"strconv"
	"unicode/utf8"
)

// Thread-track ids inside each core's process. Slots start at tidSlotBase so
// the fixed tracks sort first in Perfetto.
const (
	tidController = 0
	tidQueue      = 1
	tidEngine     = 2
	tidSlotBase   = 3
)

// chromeFlushAt is the buffered size at which the export hands its bytes to
// the writer: large enough that a multi-megabyte trace costs a few hundred
// writes, small enough that the buffer stays in cache.
const chromeFlushAt = 64 << 10

// WriteChrome exports every registered core's ring as Chrome trace-event
// JSON (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Each core
// becomes one process; inside it, tid 0 is the controller track (decisions),
// tid 1 the queue track (admit/drop/block instants), tid 2 the engine track
// (GP/SPP group spans, backpressure), and tid 3+i slot i's lifecycle track
// (B/E occupancy spans with stage-visit X spans nested inside). Width, MSHR
// occupancy, queue depth and pipe depths export as counter tracks. Ts and
// Dur are microseconds; the export renders one simulated cycle as one
// microsecond, so Perfetto's time axis reads directly in cycles (µs) and
// kilocycles (ms). Rings overwrite oldest-first, so a saturated trace is the
// tail of the run; orphaned end events from overwritten begins are elided.
//
// Records stream straight from the rings into one reusable buffer that is
// flushed in large chunks, so the export never materializes the trace. The
// bytes are those encoding/json produces for the same records: fields in
// the order name, ph, ts, dur, pid, tid, s, args; empty name, dur and s
// omitted; args keys sorted; strings HTML-escaped.
func (t *Trace) WriteChrome(w io.Writer) error {
	e := chromeWriter{w: w, buf: make([]byte, 0, chromeFlushAt+4<<10), first: true}
	e.buf = append(e.buf, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"...)
	for _, c := range t.Cores() {
		if err := e.core(c); err != nil {
			return err
		}
	}
	e.buf = append(e.buf, "\n]}\n"...)
	return e.flush()
}

// chromeWriter appends trace-event records to buf. A named record is opened
// with open, the rest of its name is appended in place, and a closer (span,
// begin, instant, counter) finishes it; end writes the nameless E record.
type chromeWriter struct {
	w     io.Writer
	buf   []byte
	first bool

	pid     int
	nameAt  int // offset of the open record's name in buf
	nameEnd int

	named trackCounts // slot tracks given a thread_name record
	depth trackCounts // open B spans per thread track
}

func (e *chromeWriter) flush() error {
	_, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	return err
}

// sep separates a record from the one before it.
func (e *chromeWriter) sep() {
	if !e.first {
		e.buf = append(e.buf, ",\n"...)
	}
	e.first = false
}

// open starts a named record and appends the name's leading literal; the
// caller appends the rest of the name.
func (e *chromeWriter) open(name string) {
	e.sep()
	e.buf = append(e.buf, "{\"name\":\""...)
	e.nameAt = len(e.buf)
	e.buf = append(e.buf, name...)
}

// head closes the name and appends the fields every record carries: phase,
// timestamp, the duration when nonzero, pid and tid.
func (e *chromeWriter) head(ph byte, ts, dur uint64, tid int) {
	e.nameEnd = len(e.buf)
	e.buf = append(e.buf, "\",\"ph\":\""...)
	e.fields(ph, ts, dur, tid)
}

func (e *chromeWriter) fields(ph byte, ts, dur uint64, tid int) {
	e.buf = append(e.buf, ph, '"')
	e.buf = append(e.buf, ",\"ts\":"...)
	e.buf = strconv.AppendUint(e.buf, ts, 10)
	if dur != 0 {
		e.buf = append(e.buf, ",\"dur\":"...)
		e.buf = strconv.AppendUint(e.buf, dur, 10)
	}
	e.buf = append(e.buf, ",\"pid\":"...)
	e.buf = strconv.AppendInt(e.buf, int64(e.pid), 10)
	e.buf = append(e.buf, ",\"tid\":"...)
	e.buf = strconv.AppendInt(e.buf, int64(tid), 10)
}

// span closes a B or X record.
func (e *chromeWriter) span(ph byte, ts, dur uint64, tid int) {
	e.head(ph, ts, dur, tid)
	e.buf = append(e.buf, '}')
}

// instant closes a thread-scoped instant record.
func (e *chromeWriter) instant(ts uint64, tid int) {
	e.head('i', ts, 0, tid)
	e.buf = append(e.buf, ",\"s\":\"t\"}"...)
}

// counter closes a counter record: its one arg is keyed by its own name.
func (e *chromeWriter) counter(ts uint64, v int64) {
	e.head('C', ts, 0, 0)
	e.buf = append(e.buf, ",\"args\":{\""...)
	e.buf = append(e.buf, e.buf[e.nameAt:e.nameEnd]...)
	e.buf = append(e.buf, "\":"...)
	e.buf = strconv.AppendInt(e.buf, v, 10)
	e.buf = append(e.buf, "}}"...)
}

// end writes a nameless E record unless no span is open on the track: a
// ring wrap may have overwritten its begin.
func (e *chromeWriter) end(ts uint64, tid int) {
	if e.depth.get(tid) == 0 {
		return
	}
	e.depth.add(tid, -1)
	e.sep()
	e.buf = append(e.buf, "{\"ph\":\""...)
	e.fields('E', ts, 0, tid)
	e.buf = append(e.buf, '}')
}

// begin closes a B record and opens a span on the track.
func (e *chromeWriter) begin(ts uint64, tid int) {
	e.depth.add(tid, 1)
	e.span('B', ts, 0, tid)
}

// meta writes a metadata record naming the process or a thread track; quoted
// is the track name as a JSON string literal.
func (e *chromeWriter) meta(kind string, tid int, quoted []byte) {
	e.open(kind)
	e.head('M', 0, 0, tid)
	e.buf = append(e.buf, ",\"args\":{\"name\":"...)
	e.buf = append(e.buf, quoted...)
	e.buf = append(e.buf, "}}"...)
}

func (e *chromeWriter) core(c *CoreTrace) error {
	e.pid = c.pid
	e.named.reset()
	e.depth.reset()
	e.meta("process_name", 0, appendJSONString(nil, c.name))
	e.meta("thread_name", tidController, []byte(`"controller"`))
	e.meta("thread_name", tidQueue, []byte(`"queue"`))
	e.meta("thread_name", tidEngine, []byte(`"engine"`))
	// Ring honesty: when wrap-around overwrote events, say so in the export
	// itself — a reader of the JSON alone must be able to tell a complete
	// trace from the tail of one.
	if d := c.Dropped(); d > 0 {
		e.open("dropped_events")
		e.head('M', 0, 0, 0)
		e.buf = append(e.buf, ",\"args\":{\"dropped\":"...)
		e.buf = strconv.AppendUint(e.buf, d, 10)
		e.buf = append(e.buf, ",\"retained\":"...)
		e.buf = strconv.AppendInt(e.buf, int64(c.Len()), 10)
		e.buf = append(e.buf, "}}"...)
	}
	start := uint64(0)
	if n := uint64(len(c.buf)); c.head > n {
		start = c.head - n
	}
	var slotName []byte
	for i := start; i < c.head; i++ {
		ev := &c.buf[i&c.mask]
		slotTid := tidSlotBase + int(ev.Track)
		switch ev.Kind {
		case KindSlotStart, KindSlotEnd, KindStage, KindRetry, KindPrefetch, KindSlotAbandon:
			// Name each slot track that actually recorded events.
			if e.named.get(slotTid) == 0 {
				e.named.add(slotTid, 1)
				slotName = append(slotName[:0], "\"slot "...)
				slotName = strconv.AppendInt(slotName, int64(ev.Track), 10)
				slotName = append(slotName, '"')
				e.meta("thread_name", slotTid, slotName)
			}
		}
		e.event(ev, slotTid)
		if len(e.buf) >= chromeFlushAt {
			if err := e.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// event translates one ring record; counters may expand to two records.
// Kinds the export does not know write nothing.
func (e *chromeWriter) event(ev *Event, slotTid int) {
	ts := ev.Cycle
	switch ev.Kind {
	case KindSlotStart:
		e.open("req ")
		e.buf = strconv.AppendInt(e.buf, ev.A, 10)
		e.begin(ts, slotTid)
	case KindSlotEnd:
		e.end(ts, slotTid)
	case KindStage:
		e.open("stage ")
		e.buf = strconv.AppendInt(e.buf, ev.A, 10)
		e.span('X', ts, max(ev.Dur, 1), slotTid)
	case KindRetry:
		e.open("retry s")
		e.buf = strconv.AppendInt(e.buf, ev.A, 10)
		e.instant(ts, slotTid)
	case KindPrefetch:
		e.open("prefetch")
		e.instant(ts, slotTid)
	case KindGroupStart:
		e.open("group ")
		e.buf = strconv.AppendInt(e.buf, ev.A, 10)
		e.begin(ts, tidEngine)
	case KindGroupEnd:
		e.end(ts, tidEngine)
	case KindEngineSample:
		e.open("width")
		e.counter(ts, ev.A)
		e.open("mshr")
		e.counter(ts, ev.B)
	case KindWidthChange:
		e.open("width")
		e.counter(ts, ev.A)
		e.open("width ")
		e.buf = strconv.AppendInt(e.buf, ev.A, 10)
		e.instant(ts, tidController)
	case KindDecision:
		e.open(DecisionName(int(ev.Track)))
		e.head('i', ts, 0, tidController)
		e.buf = append(e.buf, ",\"s\":\"t\",\"args\":{\"a\":"...)
		e.buf = strconv.AppendInt(e.buf, ev.A, 10)
		e.buf = append(e.buf, ",\"b\":"...)
		e.buf = strconv.AppendInt(e.buf, ev.B, 10)
		e.buf = append(e.buf, "}}"...)
	case KindQueueAdmit:
		e.open("admit")
		e.instant(ts, tidQueue)
	case KindQueueDrop:
		e.open("drop")
		e.instant(ts, tidQueue)
	case KindQueueBlock:
		e.open("block")
		e.instant(ts, tidQueue)
	case KindQueueDepth:
		e.open("queue depth")
		e.counter(ts, ev.A)
	case KindPipeDepth:
		e.open("pipe")
		e.buf = strconv.AppendInt(e.buf, int64(ev.Track), 10)
		e.buf = append(e.buf, " depth"...)
		e.counter(ts, ev.A)
	case KindBackpressure:
		e.open("backpressure p")
		e.buf = strconv.AppendInt(e.buf, int64(ev.Track), 10)
		e.instant(ts, tidEngine)
	case KindSlotAbandon:
		if ev.B == 1 {
			e.open("crash drop req ")
		} else {
			e.open("timeout req ")
		}
		e.buf = strconv.AppendInt(e.buf, ev.A, 10)
		e.instant(ts, slotTid)
		e.end(ts, slotTid)
	case KindFault:
		e.open("fault ")
		e.buf = append(e.buf, faultKindName(int(ev.A))...)
		e.buf = append(e.buf, " x"...)
		e.buf = strconv.AppendFloat(e.buf, float64(ev.B)/1000, 'f', 1, 64)
		e.span('X', ts, max(ev.Dur, 1), tidEngine)
	case KindBreaker:
		e.open("breaker ")
		e.buf = append(e.buf, breakerStateName(int(ev.A))...)
		e.buf = append(e.buf, "→"...)
		e.buf = append(e.buf, breakerStateName(int(ev.B))...)
		e.instant(ts, tidController)
	case KindHedge:
		e.open("hedge req ")
		e.shardInstant(ts, ev)
	case KindReroute:
		e.open("reroute req ")
		e.shardInstant(ts, ev)
	case KindRequeue:
		e.open("retry req ")
		e.buf = strconv.AppendInt(e.buf, ev.A, 10)
		e.buf = append(e.buf, " (#"...)
		e.buf = strconv.AppendInt(e.buf, ev.B, 10)
		e.buf = append(e.buf, ')')
		e.instant(ts, tidQueue)
	case KindBrownout:
		e.open("shed level")
		e.counter(ts, ev.A)
		e.open("brownout level ")
		e.buf = strconv.AppendInt(e.buf, ev.A, 10)
		e.instant(ts, tidController)
	}
}

// shardInstant finishes a hedge or reroute name, "req A → shard B", as a
// queue-track instant.
func (e *chromeWriter) shardInstant(ts uint64, ev *Event) {
	e.buf = strconv.AppendInt(e.buf, ev.A, 10)
	e.buf = append(e.buf, " → shard "...)
	e.buf = strconv.AppendInt(e.buf, ev.B, 10)
	e.instant(ts, tidQueue)
}

// trackCounts is a counter per thread track: a slice over the small
// non-negative tids real engines record, a map for any other.
type trackCounts struct {
	dense  []int
	sparse map[int]int
}

// denseTracks bounds the slice part of trackCounts.
const denseTracks = 1 << 12

func (t *trackCounts) get(tid int) int {
	if uint(tid) < uint(len(t.dense)) {
		return t.dense[tid]
	}
	return t.sparse[tid]
}

func (t *trackCounts) add(tid, d int) {
	if uint(tid) < denseTracks {
		if tid >= len(t.dense) {
			t.dense = append(t.dense, make([]int, tid+1-len(t.dense))...)
		}
		t.dense[tid] += d
		return
	}
	if t.sparse == nil {
		t.sparse = map[int]int{}
	}
	t.sparse[tid] += d
}

func (t *trackCounts) reset() {
	clear(t.dense)
	t.sparse = nil
}

// appendJSONString appends s as a JSON string literal, escaped exactly as
// encoding/json escapes strings: quote, backslash and control bytes escaped
// (\b \f \n \r \t by name, the rest as \u00XX), <, > and & as \u003c,
// \u003e and \u0026, U+2028 and U+2029 as \u2028 and \u2029, and each byte
// of invalid UTF-8 as \ufffd. Only core names need it; every other string in
// the export is a fixed ASCII literal, a number, or an arrow, which
// encoding/json copies verbatim.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// faultKindName mirrors fault.Kind.String without importing the package
// (obs sits below fault in the dependency order).
func faultKindName(k int) string {
	switch k {
	case 0:
		return "slow"
	case 1:
		return "freeze"
	case 2:
		return "crash"
	case 3:
		return "spike"
	}
	return "fault"
}

// breakerStateName mirrors fault.State.String.
func breakerStateName(s int) string {
	switch s {
	case 0:
		return "closed"
	case 1:
		return "open"
	case 2:
		return "half-open"
	}
	return "?"
}
