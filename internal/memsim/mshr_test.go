package memsim

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"amac/internal/prof"
)

func TestMSHRAllocateUntilFull(t *testing.T) {
	m := NewMSHRFile(3)
	if m.Size() != 3 {
		t.Fatalf("Size = %d, want 3", m.Size())
	}
	for i := uint64(0); i < 3; i++ {
		if !m.Allocate(i, 100+i, prof.CatLLC) {
			t.Fatalf("allocation %d failed unexpectedly", i)
		}
	}
	if !m.Full() {
		t.Fatal("file should be full")
	}
	if m.Allocate(99, 50, prof.CatLLC) {
		t.Fatal("allocation should fail when full")
	}
	if m.Outstanding() != 3 {
		t.Fatalf("Outstanding = %d, want 3", m.Outstanding())
	}
}

func TestMSHRLookup(t *testing.T) {
	m := NewMSHRFile(2)
	m.Allocate(5, 40, prof.CatLLC)
	m.Allocate(7, 42, prof.CatDRAM)
	i := m.Lookup(7)
	if i != 1 || m.ready[i] != 42 || m.cat[i] != prof.CatDRAM || m.OutstandingOffchip() != 1 {
		t.Fatalf("Lookup(7) = %d", i)
	}
	// 71 shares line 7's filter bit, so the slots are walked and miss.
	if m.Lookup(8) != -1 || m.Lookup(71) != -1 {
		t.Fatal("Lookup of absent line should return -1")
	}
}

func TestMSHREarliestReadyAndDrain(t *testing.T) {
	m := NewMSHRFile(4)
	m.Allocate(1, 100, prof.CatLLC)
	m.Allocate(2, 50, prof.CatDRAM)
	m.Allocate(3, 200, prof.CatLLC)

	ready, ok := m.EarliestReady()
	if !ok || ready != 50 {
		t.Fatalf("EarliestReady = %d,%v, want 50,true", ready, ok)
	}

	var filled []uint64
	m.Drain(120, func(line uint64) { filled = append(filled, line) })
	if len(filled) != 2 {
		t.Fatalf("Drain filled %v, want lines 1 and 2", filled)
	}
	if m.Outstanding() != 1 || m.Lookup(3) < 0 {
		t.Fatal("line 3 should remain outstanding")
	}

	m.Drain(1000, nil) // nil fill must be tolerated
	if m.Outstanding() != 0 {
		t.Fatal("all entries should have drained")
	}
	if _, ok := m.EarliestReady(); ok {
		t.Fatal("EarliestReady on empty file should report false")
	}
}

func TestMSHROutstandingOffchip(t *testing.T) {
	m := NewMSHRFile(4)
	m.Allocate(1, 10, prof.CatDRAM)
	m.Allocate(2, 10, prof.CatLLC)
	m.Allocate(3, 10, prof.CatDRAM)
	if got := m.OutstandingOffchip(); got != 2 {
		t.Fatalf("OutstandingOffchip = %d, want 2", got)
	}
	m.Reset()
	if m.Outstanding() != 0 {
		t.Fatal("Reset did not clear entries")
	}
}

// refSlot is one register of referenceMSHR.
type refSlot struct {
	line, ready uint64
	cat         prof.Cat
	valid       bool
}

// referenceMSHR is an obviously-correct model of MSHRFile: a slice of slots
// scanned in full for every question, with no masks, no filter and no
// running minimum. New misses take the first free slot and Drain walks the
// slots in order, which is the fill order the real file promises.
type referenceMSHR struct {
	slots []refSlot
}

func (r *referenceMSHR) lookup(line uint64) int {
	for i, s := range r.slots {
		if s.valid && s.line == line {
			return i
		}
	}
	return -1
}

func (r *referenceMSHR) allocate(line, ready uint64, src prof.Cat) bool {
	for i := range r.slots {
		if !r.slots[i].valid {
			r.slots[i] = refSlot{line: line, ready: ready, cat: src, valid: true}
			return true
		}
	}
	return false
}

func (r *referenceMSHR) drain(now uint64) []uint64 {
	var filled []uint64
	for i := range r.slots {
		if r.slots[i].valid && r.slots[i].ready <= now {
			filled = append(filled, r.slots[i].line)
			r.slots[i] = refSlot{}
		}
	}
	return filled
}

// counts returns outstanding, off-chip outstanding and the earliest ready
// cycle (ok false when empty).
func (r *referenceMSHR) counts() (outstanding, offchip int, earliest uint64, ok bool) {
	for _, s := range r.slots {
		if !s.valid {
			continue
		}
		if !ok || s.ready < earliest {
			earliest = s.ready
		}
		ok = true
		outstanding++
		if s.cat == prof.CatDRAM {
			offchip++
		}
	}
	return outstanding, offchip, earliest, ok
}

// replayMSHROps runs a random sequence of Allocate, Lookup, Expedite, Drain
// and Reset on an n-slot MSHRFile and the reference model, drawing every
// choice from next(k) (a value below k), until more reports false. It
// requires the same answers throughout: the slot Lookup returns and its
// ready cycle and level, Allocate's result, the counters, Full, the exact
// EarliestReady, and the order Drain fills lines. The line pool is 128 lines
// over 16 filter bits (line & 63), so every bit is shared by eight lines and
// a Lookup often walks the slots for a line that is absent. Ready cycles are
// multiples of 16 and the clock sometimes jumps far ahead, so one Drain
// often retires several slots.
func replayMSHROps(n int, next func(k uint64) uint64, more func() bool) error {
	srcs := []prof.Cat{prof.CatDRAM, prof.CatLLC, prof.CatL2}
	m := NewMSHRFile(n)
	ref := &referenceMSHR{slots: make([]refSlot, n)}
	now := uint64(0)
	var got []uint64
	fill := func(line uint64) { got = append(got, line) }
	for step := 0; more(); step++ {
		line := 1000 + 64*next(8) + 4*next(16)
		switch op := next(100); {
		case op < 40:
			i, ri := m.Lookup(line), ref.lookup(line)
			if i != ri {
				return fmt.Errorf("step %d: Lookup(%d) = %d, reference %d", step, line, i, ri)
			}
			if i >= 0 {
				if s := ref.slots[i]; m.ready[i] != s.ready || m.cat[i] != s.cat {
					return fmt.Errorf("step %d: Lookup(%d) slot %d ready=%d cat=%v, reference %+v",
						step, line, i, m.ready[i], m.cat[i], s)
				}
				break
			}
			ready, src := now+16*(1+next(25)), srcs[next(uint64(len(srcs)))]
			if ok, rok := m.Allocate(line, ready, src), ref.allocate(line, ready, src); ok != rok {
				return fmt.Errorf("step %d: Allocate(%d) = %v, reference %v", step, line, ok, rok)
			}
		case op < 55:
			i, ri := m.Lookup(line), ref.lookup(line)
			if i != ri {
				return fmt.Errorf("step %d: Lookup(%d) before Expedite = %d, reference %d", step, line, i, ri)
			}
			if i >= 0 && m.ready[i] > now {
				ready := now + next(m.ready[i]-now+1)
				m.Expedite(i, ready)
				ref.slots[i].ready = ready
			}
		case op < 99:
			if next(8) == 0 {
				now += 100 + next(400)
			} else {
				now += next(60)
			}
			got = got[:0]
			m.Drain(now, fill)
			want := ref.drain(now)
			if !slices.Equal(got, want) {
				return fmt.Errorf("step %d: Drain(%d) filled %v, reference %v", step, now, got, want)
			}
		default:
			m.Reset()
			clear(ref.slots)
		}
		out, off, earliest, ok := ref.counts()
		gotEarliest, gotOK := m.EarliestReady()
		if m.Outstanding() != out || m.OutstandingOffchip() != off || m.Full() != (out == n) ||
			gotOK != ok || gotEarliest != earliest {
			return fmt.Errorf("step %d: outstanding=%d offchip=%d full=%v earliest=(%d,%v); reference %d %d %v (%d,%v)",
				step, m.Outstanding(), m.OutstandingOffchip(), m.Full(), gotEarliest, gotOK,
				out, off, out == n, earliest, ok)
		}
	}
	return nil
}

// lcg returns the linear congruential generator TestMSHRMatchesReferenceModel
// draws from: next(k) is a value below k.
func lcg(seed uint64) func(k uint64) uint64 {
	state := seed
	return func(k uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % k
	}
}

// TestMSHRMatchesReferenceModel replays 4000 random operations per case on
// files of 1 to 64 slots (replayMSHROps).
func TestMSHRMatchesReferenceModel(t *testing.T) {
	f := func(seed uint64, size uint8) bool {
		steps := 0
		more := func() bool { steps++; return steps <= 4000 }
		if err := replayMSHROps(1+int(size%maxMSHRs), lcg(seed), more); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// FuzzMSHROps is TestMSHRMatchesReferenceModel's driver on fuzzed bytes: the
// first byte picks the file size (1 + b%64), and every later choice of the
// driver consumes one byte (two for a range above 256) until the input runs
// out. The seed corpus is the random driver's own stream for a few seeds.
func FuzzMSHROps(f *testing.F) {
	for _, seed := range []uint64{1, 42, 1 << 40} {
		next := lcg(seed)
		for _, size := range []byte{0, 9, 63} {
			ops := []byte{size}
			for range 1500 {
				ops = append(ops, byte(next(256)))
			}
			f.Add(ops)
		}
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		n, ops := 1+int(ops[0]%maxMSHRs), ops[1:]
		next := func(k uint64) uint64 {
			width := 1
			if k > 256 {
				width = 2
			}
			var v uint64
			for ; width > 0 && len(ops) > 0; width-- {
				v, ops = v<<8|uint64(ops[0]), ops[1:]
			}
			return v % k
		}
		if err := replayMSHROps(n, next, func() bool { return len(ops) > 0 }); err != nil {
			t.Fatalf("%d slots: %v", n, err)
		}
	})
}
