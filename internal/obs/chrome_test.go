package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"testing"
)

// trickyNames are core names that exercise every escaping rule a JSON string
// can need: quotes and backslashes, HTML-sensitive bytes, every control
// byte class, the JavaScript line separators and invalid UTF-8.
var trickyNames = []string{
	"",
	"worker 0",
	`say "hi" \ there`,
	"<script>&amp;</script>",
	"tab\there\nline\rret\bbs\fff",
	"nul\x00 bell\x07 esc\x1b us\x1f del\x7f",
	"line\u2028para\u2029end",
	"bad \xff utf8 \xc3 trunc \xe2\x82",
	"arrow → µs ✓ 😀",
}

// compareChrome exports tr through WriteChrome and through the reflective
// reference encoder and reports the first differing byte.
func compareChrome(tr *Trace) error {
	var got, want bytes.Buffer
	if err := tr.WriteChrome(&got); err != nil {
		return fmt.Errorf("WriteChrome: %v", err)
	}
	if err := writeChromeReference(tr, &want); err != nil {
		return fmt.Errorf("reference: %v", err)
	}
	if bytes.Equal(got.Bytes(), want.Bytes()) {
		return nil
	}
	g, w := got.Bytes(), want.Bytes()
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	lo := max(i-80, 0)
	return fmt.Errorf("export differs from the reference at byte %d:\n got: %q\nwant: %q",
		i, g[lo:min(i+80, len(g))], w[lo:min(i+80, len(w))])
}

// recordEveryKind records one event of every kind through the public
// recording methods, spans opened before they are closed.
func recordEveryKind(ct *CoreTrace) {
	ct.SlotStart(10, 0, 3)
	ct.StageVisit(10, 25, 0, 0)
	ct.SlotPrefetch(25, 0)
	ct.StageVisit(25, 80, 0, 1)
	ct.SlotRetry(80, 0, 1)
	ct.SlotEnd(90, 0)
	ct.GroupStart(100, 10)
	ct.GroupEnd(400, 10)
	ct.EngineSample(500, 12, 7)
	ct.WidthChange(600, 13)
	ct.Decision(700, DecSwitch, 1, 3)
	ct.QueueAdmit(710, 1)
	ct.QueueDrop(711, 2)
	ct.QueueBlock(712, 9)
	ct.QueueDepth(713, 9)
	ct.PipeDepth(720, 2, 31)
	ct.Backpressure(730, 2)
	ct.SlotStart(740, 1, 4)
	ct.SlotAbandon(750, 1, 4, 0)
	ct.SlotStart(760, 1, 5)
	ct.SlotAbandon(770, 1, 5, 1)
	ct.Fault(800, 200, 0, 4000)
	ct.Breaker(810, 0, 1)
	ct.Hedge(820, 6, 2)
	ct.Reroute(830, 7, 3)
	ct.Requeue(840, 8, 2)
	ct.Brownout(850, 2)
}

// TestWriteChromeMatchesReference is the deterministic half of the
// differential check: hand-built traces covering every kind and every edge
// the encoder has must export byte-identically to the reference encoder.
func TestWriteChromeMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		build func(*Trace)
	}{
		{"empty trace", func(*Trace) {}},
		{"core without events", func(tr *Trace) { tr.Core("idle") }},
		{"every kind", func(tr *Trace) { recordEveryKind(tr.Core("worker 0")) }},
		{"negative fields", func(tr *Trace) {
			ct := tr.Core("neg")
			ct.SlotStart(1, -1, -7)   // slot -1 shares the engine tid
			ct.GroupStart(2, -3)      // ...so this B nests with it
			ct.SlotEnd(3, -1)         // closes one of the two
			ct.GroupEnd(4, -9)        // closes the other
			ct.GroupEnd(5, 0)         // orphan: elided
			ct.SlotStart(6, -9, 1)    // tid -6: sparse track
			ct.SlotEnd(7, -9)         //
			ct.SlotStart(8, 1<<20, 2) // beyond the dense range
			ct.SlotAbandon(9, 1<<20, 2, 1)
			ct.StageVisit(10, 10, -2, -5) // zero duration renders as 1
			ct.SlotRetry(11, -2, -1)
			ct.EngineSample(12, -4, -5)
			ct.WidthChange(13, -6)
			ct.Decision(14, -1, -2, -3) // unknown decision code
			ct.Decision(15, 99, 1<<62, -1<<62)
			ct.QueueDepth(16, -1)
			ct.PipeDepth(17, -2, -3)
			ct.Backpressure(18, -4)
			ct.Fault(19, 0, -1, -1500) // unknown kind, negative factor, zero dur
			ct.Fault(20, 5, 7, -1)     // -0.001 renders as -0.0
			ct.Fault(21, 5, 3, 1250)   // 1.25 rounds to even
			ct.Breaker(22, -1, 9)
			ct.Hedge(23, -1, -2)
			ct.Reroute(24, -3, -4)
			ct.Requeue(25, -5, -6)
			ct.Brownout(26, -7)
			ct.SlotAbandon(27, 5, 1, 2) // orphan end: elided, instant kept
			ct.push(Event{Cycle: 28, Kind: kindCount})
			ct.push(Event{Cycle: 29, Kind: 255})
		}},
		{"ring wrap orphans ends", func(tr *Trace) {
			ct := tr.Core("wrapped")
			for i := 0; i < 3; i++ {
				ct.SlotStart(uint64(10*i), i, i)
				ct.GroupStart(uint64(10*i+1), i)
			}
			for i := 0; i < 3; i++ {
				ct.SlotEnd(uint64(100+10*i), i)
				ct.GroupEnd(uint64(101+10*i), i)
			}
		}},
		{"dropped metadata on one core", func(tr *Trace) {
			full := tr.Core("full")
			for i := 0; i < 20; i++ {
				full.QueueDepth(uint64(i), i)
			}
			tr.Core("intact").QueueDepth(0, 1)
		}},
		{"many slots", func(tr *Trace) {
			ct := tr.Core("wide")
			for i := 0; i < 6; i++ {
				for s := 0; s < 64; s++ {
					ct.SlotStart(uint64(i*1000+s), s, i*64+s)
					ct.StageVisit(uint64(i*1000+s), uint64(i*1000+s+7), s, 1)
				}
				for s := 0; s < 64; s++ {
					ct.SlotEnd(uint64(i*1000+500+s), s)
				}
			}
		}},
		{"tricky core names", func(tr *Trace) {
			for _, name := range trickyNames {
				tr.Core(name).SlotStart(1, 0, 1)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, events := range []int{4, 64, 1 << 10} {
				tr := NewTrace(events)
				tc.build(tr)
				if err := compareChrome(tr); err != nil {
					t.Fatalf("ring of %d: %v", events, err)
				}
			}
		})
	}
}

// TestWriteChromeLargeTrace exports a trace far larger than the flush
// threshold, so records straddle many flushes.
func TestWriteChromeLargeTrace(t *testing.T) {
	tr := NewTrace(1 << 14)
	for c := 0; c < 2; c++ {
		ct := tr.Core(fmt.Sprintf("worker %d", c))
		for i := 0; i < 3000; i++ {
			recordEveryKind(ct)
		}
	}
	if err := compareChrome(tr); err != nil {
		t.Fatal(err)
	}
}

func TestAppendJSONStringMatchesMarshal(t *testing.T) {
	names := append([]string{"\x80", "\xed\xa0\x80", "\xf4\x90\x80\x80", "\u2027\u202a"}, trickyNames...)
	for b := 0; b < 0x80; b++ {
		names = append(names, string(rune(b)))
	}
	for _, s := range names {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
}

// errWriter fails every write.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }

func TestWriteChromeWriterError(t *testing.T) {
	tr := NewTrace(1 << 12)
	ct := tr.Core("worker 0")
	for i := 0; i < 500; i++ {
		recordEveryKind(ct)
	}
	if err := tr.WriteChrome(errWriter{}); err == nil {
		t.Fatal("WriteChrome swallowed the writer's error")
	}
	var empty *Trace
	if err := empty.WriteChrome(errWriter{}); err == nil {
		t.Fatal("WriteChrome of a nil trace swallowed the writer's error")
	}
}

// fuzzShifts widens a fuzzed int8 to the magnitudes real fields reach.
var fuzzShifts = [...]uint{0, 4, 12, 31, 40, 56}

// FuzzWriteChrome decodes its input into events on two cores and checks the
// export is byte-identical to the reference encoder. name is the first
// core's name; ringLog%6 sizes the rings from 1 to 32 events, so wrap-around
// and orphaned ends are common. Seven bytes make one event:
//
//	b0 % (kindCount+2)  the kind, the last two unknown to the export;
//	                    b0 >= 128 records on the second core
//	b1                  Track, as a signed byte
//	b2, b3              A: int8(b2) << fuzzShifts[b3%6]
//	b4, b5              B: int8(b4) << fuzzShifts[b5%6]
//	b6                  Dur: b6>>2 when b6&3 != 0, else zero
//
// Cycles count up by one per event.
func FuzzWriteChrome(f *testing.F) {
	every := NewTrace(64)
	recordEveryKind(every.Core("seed"))
	var seed []byte
	for _, ev := range every.Cores()[0].Events() {
		seed = append(seed, byte(ev.Kind), byte(ev.Track), byte(ev.A), 0, byte(ev.B), 0, byte(ev.Dur<<2|1))
	}
	for i, name := range trickyNames {
		f.Add(name, uint8(i), seed)
	}
	f.Add("wrap", uint8(1), []byte{0, 0, 1, 0, 0, 0, 0, 5, 0, 1, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0})
	f.Add("neg", uint8(5), []byte{0, 0xff, 0x80, 5, 0x80, 5, 0, 2, 0xfe, 0, 0, 0, 0, 4, 17, 0xff, 0x81, 2, 0xf1, 3, 0})
	f.Fuzz(func(t *testing.T, name string, ringLog uint8, data []byte) {
		tr := NewTrace(1 << (ringLog % 6))
		cores := [2]*CoreTrace{tr.Core(name), tr.Core("worker 1")}
		for i := 0; i+7 <= len(data); i += 7 {
			b := data[i : i+7]
			ev := Event{
				Cycle: uint64(i / 7),
				Kind:  Kind(b[0] % (uint8(kindCount) + 2)),
				Track: int32(int8(b[1])),
				A:     int64(int8(b[2])) << fuzzShifts[b[3]%6],
				B:     int64(int8(b[4])) << fuzzShifts[b[5]%6],
			}
			if b[6]&3 != 0 {
				ev.Dur = uint64(b[6] >> 2)
			}
			cores[b[0]>>7].push(ev)
		}
		if err := compareChrome(tr); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkWriteChrome exports a full 64k-event ring of slot lifecycles
// through the streaming writer and through the reflective reference.
func BenchmarkWriteChrome(b *testing.B) {
	tr := NewTrace(0)
	ct := tr.Core("worker 0")
	for i := 0; ct.Dropped() == 0; i++ {
		cyc, slot := uint64(i*40), i%16
		ct.SlotStart(cyc, slot, i)
		ct.StageVisit(cyc, cyc+30, slot, 0)
		ct.SlotPrefetch(cyc+30, slot)
		ct.EngineSample(cyc+35, 16, i%10)
		ct.SlotEnd(cyc+40, slot)
	}
	for _, bc := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"stream", tr.WriteChrome},
		{"reference", func(w io.Writer) error { return writeChromeReference(tr, w) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := bc.write(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
