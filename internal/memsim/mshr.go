package memsim

import (
	"math/bits"

	"amac/internal/prof"
)

// maxMSHRs is the largest file NewMSHRFile builds: the occupancy and
// off-chip sets are one 64-bit mask each.
const maxMSHRs = 64

// MSHRFile models the per-core L1-D miss status handling registers. Every
// miss that is outstanding (issued but not yet filled) occupies one slot;
// when all slots are busy no further miss — demand or prefetch — can be
// issued, which is exactly the mechanism that caps per-core MLP in the paper.
//
// The file is consulted on every simulated access (Drain runs at the top of
// every demand load, Lookup on every L1 miss and prefetch), so it is laid
// out as parallel arrays indexed by slot, with the slot sets as bit masks:
//
//   - used and offchip mark the occupied slots and those whose fill comes
//     from memory; Allocate takes the lowest free bit, and the counts are
//     popcounts.
//   - A free slot's ready is ^0, so Drain finds the due slots and the new
//     earliest ready cycle in one pass over ready, with no occupancy test.
//   - filter has one bit per line hash (line & 63) held by some occupied
//     slot, and filterN counts the slots behind each bit so Drain can clear
//     it. Lookup of a line whose bit is clear answers without a slot walk.
//   - minReady is the earliest ready cycle over all slots, so ^0 when the
//     file is empty: the empty and nothing-due-yet cases of Drain are one
//     compare.
type MSHRFile struct {
	n        int
	used     uint64
	offchip  uint64
	minReady uint64
	filter   uint64

	lines   [maxMSHRs]uint64
	ready   [maxMSHRs]uint64 // cycle at which the fill arrives; ^0 when free
	cat     [maxMSHRs]prof.Cat
	filterN [maxMSHRs]uint8
}

// NewMSHRFile returns a file with n slots, 1 <= n <= 64 (Config.Validate
// bounds L1MSHRs).
func NewMSHRFile(n int) *MSHRFile {
	m := &MSHRFile{n: n}
	m.Reset()
	return m
}

// Size returns the number of registers.
func (m *MSHRFile) Size() int { return m.n }

// Lookup returns the slot tracking line, or -1.
func (m *MSHRFile) Lookup(line uint64) int {
	if m.filter&(1<<(line&63)) == 0 {
		return -1
	}
	for b := m.used; b != 0; b &= b - 1 {
		if i := bits.TrailingZeros64(b) & 63; m.lines[i] == line {
			return i
		}
	}
	return -1
}

// Expedite lowers slot i's ready cycle: the demand access that hit the slot
// observed the data (logically) arrive early once out-of-order hiding
// shortened the visible stall. Slots must only be re-timed through this
// method so minReady stays exact.
func (m *MSHRFile) Expedite(i int, ready uint64) {
	m.ready[i] = ready
	m.minReady = min(m.minReady, ready)
}

// Allocate records a new outstanding miss in the lowest free slot, whose
// fill comes from the level src identifies (prof.CatDRAM marks an off-chip
// fill, which occupies the shared LLC queue). It returns false if every slot
// is busy; the caller must stall until EarliestReady and drain before
// retrying. line must not already be outstanding (Allocate follows a Lookup
// miss).
func (m *MSHRFile) Allocate(line, ready uint64, src prof.Cat) bool {
	free := ^m.used & (1<<m.n - 1)
	if free == 0 {
		return false
	}
	i := bits.TrailingZeros64(free)
	m.used |= 1 << i
	if src == prof.CatDRAM {
		m.offchip |= 1 << i
	}
	m.lines[i], m.ready[i], m.cat[i] = line, ready, src
	m.minReady = min(m.minReady, ready)
	h := line & 63
	m.filter |= 1 << h
	m.filterN[h]++
	return true
}

// Full reports whether every register is occupied.
func (m *MSHRFile) Full() bool { return m.used == 1<<m.n-1 }

// Outstanding returns the number of misses currently in flight.
func (m *MSHRFile) Outstanding() int { return bits.OnesCount64(m.used) }

// OutstandingOffchip returns the number of occupied registers whose fills
// come from off-chip memory. The Fabric uses this to model contention for the
// shared LLC queue.
func (m *MSHRFile) OutstandingOffchip() int { return bits.OnesCount64(m.offchip) }

// EarliestReady returns the smallest ready cycle among occupied slots and
// true, or 0 and false if the file is empty.
func (m *MSHRFile) EarliestReady() (uint64, bool) {
	if m.used == 0 {
		return 0, false
	}
	return m.minReady, true
}

// Drain frees every slot whose fill has arrived by cycle now and invokes
// fill for each completed line in ascending slot order (fill order
// determines LRU order downstream, so it must stay stable). One pass over
// ready collects the due slots and the new minReady; the fills follow.
func (m *MSHRFile) Drain(now uint64, fill func(line uint64)) {
	if now < m.minReady {
		return
	}
	var due uint64
	next := ^uint64(0)
	for i, r := range m.ready[:m.n] {
		if r <= now {
			due |= 1 << i
		} else {
			next = min(next, r)
		}
	}
	due &= m.used
	m.minReady = next
	m.used &^= due
	m.offchip &^= due
	for ; due != 0; due &= due - 1 {
		i := bits.TrailingZeros64(due) & 63
		m.ready[i] = ^uint64(0)
		line := m.lines[i]
		h := line & 63
		if m.filterN[h]--; m.filterN[h] == 0 {
			m.filter &^= 1 << h
		}
		if fill != nil {
			fill(line)
		}
	}
}

// Reset frees every slot.
func (m *MSHRFile) Reset() {
	m.used, m.offchip, m.filter = 0, 0, 0
	m.minReady = ^uint64(0)
	for i := range m.ready[:m.n] {
		m.ready[i] = ^uint64(0)
	}
	clear(m.filterN[:])
}
