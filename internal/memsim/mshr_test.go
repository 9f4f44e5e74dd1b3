package memsim

import (
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
	m.Allocate(7, 42, prof.CatDRAM)
	e := m.Lookup(7)
	if e == nil || e.ready != 42 || !e.offchip {
		t.Fatalf("Lookup(7) = %+v", e)
	}
	if m.Lookup(8) != nil {
		t.Fatal("Lookup of absent line should return nil")
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
	if m.Outstanding() != 1 || m.Lookup(3) == nil {
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

// referenceMSHR is an obviously-correct model of MSHRFile: a slice of slots
// scanned in full for every question, with no counters and no memo. New
// misses take the first free slot and Drain walks the slots in order, which
// is the fill order the real file promises.
type referenceMSHR struct {
	slots []mshrEntry
}

func (r *referenceMSHR) lookup(line uint64) *mshrEntry {
	for i := range r.slots {
		if r.slots[i].valid && r.slots[i].line == line {
			return &r.slots[i]
		}
	}
	return nil
}

func (r *referenceMSHR) allocate(line, ready uint64, src prof.Cat) bool {
	for i := range r.slots {
		if !r.slots[i].valid {
			r.slots[i] = mshrEntry{line: line, ready: ready, cat: src, offchip: src == prof.CatDRAM, valid: true}
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
			r.slots[i] = mshrEntry{}
		}
	}
	return filled
}

// counts returns outstanding, off-chip outstanding and the earliest ready
// cycle (ok false when empty).
func (r *referenceMSHR) counts() (outstanding, offchip int, earliest uint64, ok bool) {
	for _, e := range r.slots {
		if !e.valid {
			continue
		}
		if !ok || e.ready < earliest {
			earliest = e.ready
		}
		ok = true
		outstanding++
		if e.offchip {
			offchip++
		}
	}
	return outstanding, offchip, earliest, ok
}

// TestMSHRMatchesReferenceModel replays random Allocate, Lookup, Expedite,
// Drain and Reset sequences on the real file and the reference model and
// requires the same answers throughout: Lookup hits and their entries, the
// counters, Full, the exact EarliestReady, and the order Drain fills lines.
// The line pool puts six lines on every memo slot (same line & 7), so the
// memo's collision and stale-entry paths are exercised.
func TestMSHRMatchesReferenceModel(t *testing.T) {
	srcs := []prof.Cat{prof.CatDRAM, prof.CatLLC, prof.CatL2}
	f := func(seed uint64, size uint8) bool {
		n := 1 + int(size%12)
		m := NewMSHRFile(n)
		ref := &referenceMSHR{slots: make([]mshrEntry, n)}
		state := seed
		next := func(k uint64) uint64 {
			state = state*6364136223846793005 + 1442695040888963407
			return (state >> 33) % k
		}
		now := uint64(0)
		var got []uint64
		fill := func(line uint64) { got = append(got, line) }
		for step := 0; step < 4000; step++ {
			line := 1000 + 8*next(6) + next(8)
			switch op := next(100); {
			case op < 40:
				e, re := m.Lookup(line), ref.lookup(line)
				if (e == nil) != (re == nil) {
					t.Logf("step %d: Lookup(%d) hit=%v, reference hit=%v", step, line, e != nil, re != nil)
					return false
				}
				if e != nil {
					if *e != *re {
						t.Logf("step %d: Lookup(%d) = %+v, reference %+v", step, line, *e, *re)
						return false
					}
					break
				}
				ready, src := now+1+next(400), srcs[next(uint64(len(srcs)))]
				if ok, rok := m.Allocate(line, ready, src), ref.allocate(line, ready, src); ok != rok {
					t.Logf("step %d: Allocate(%d) = %v, reference %v", step, line, ok, rok)
					return false
				}
			case op < 55:
				e, re := m.Lookup(line), ref.lookup(line)
				if (e == nil) != (re == nil) {
					t.Logf("step %d: Lookup(%d) before Expedite disagrees", step, line)
					return false
				}
				if e != nil && e.ready > now {
					ready := now + next(e.ready-now+1)
					m.Expedite(e, ready)
					re.ready = ready
				}
			case op < 99:
				now += next(60)
				got = got[:0]
				m.Drain(now, fill)
				want := ref.drain(now)
				if len(got) != len(want) {
					t.Logf("step %d: Drain(%d) filled %v, reference %v", step, now, got, want)
					return false
				}
				for i := range got {
					if got[i] != want[i] {
						t.Logf("step %d: Drain(%d) filled %v, reference %v", step, now, got, want)
						return false
					}
				}
			default:
				m.Reset()
				clear(ref.slots)
			}
			out, off, earliest, ok := ref.counts()
			gotEarliest, gotOK := m.EarliestReady()
			if m.Outstanding() != out || m.OutstandingOffchip() != off || m.Full() != (out == n) ||
				gotOK != ok || gotEarliest != earliest {
				t.Logf("step %d: outstanding=%d offchip=%d full=%v earliest=(%d,%v); reference %d %d %v (%d,%v)",
					step, m.Outstanding(), m.OutstandingOffchip(), m.Full(), gotEarliest, gotOK,
					out, off, out == n, earliest, ok)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
