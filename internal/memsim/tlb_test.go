package memsim

import "testing"

func TestTLBHitAndMiss(t *testing.T) {
	tlb := NewTLB(TLBConfig{Entries: 2, PageBytes: 1 << 12, MissPenaltyCycles: 30})
	if tlb.Penalty() != 30 {
		t.Fatalf("Penalty = %d", tlb.Penalty())
	}
	if tlb.Translate(0x1000) {
		t.Fatal("first access to a page must miss")
	}
	if !tlb.Translate(0x1fff) {
		t.Fatal("second access to the same page must hit")
	}
	if tlb.Hits() != 1 || tlb.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", tlb.Hits(), tlb.Misses())
	}
}

func TestTLBLRUReplacement(t *testing.T) {
	tlb := NewTLB(TLBConfig{Entries: 2, PageBytes: 1 << 12, MissPenaltyCycles: 1})
	tlb.Translate(0x0000) // page 0
	tlb.Translate(0x1000) // page 1
	tlb.Translate(0x0000) // touch page 0: page 1 is now LRU
	tlb.Translate(0x2000) // page 2 evicts page 1
	if !tlb.Translate(0x0000) {
		t.Fatal("page 0 should have survived")
	}
	if tlb.Translate(0x1000) {
		t.Fatal("page 1 should have been evicted")
	}
}

func TestTLBLargePagesCoverWorkingSet(t *testing.T) {
	// With 2 MB pages and 64 entries, a 100 MB working set misses only on
	// first touch of each page.
	tlb := NewTLB(TLBConfig{Entries: 64, PageBytes: 2 << 20, MissPenaltyCycles: 30})
	const pages = 50
	for pass := 0; pass < 3; pass++ {
		for p := 0; p < pages; p++ {
			tlb.Translate(Addr(p) * (2 << 20))
		}
	}
	if tlb.Misses() != pages {
		t.Fatalf("misses = %d, want %d (first touch only)", tlb.Misses(), pages)
	}
}

func TestTLBReset(t *testing.T) {
	tlb := NewTLB(TLBConfig{Entries: 4, PageBytes: 1 << 12, MissPenaltyCycles: 1})
	tlb.Translate(0)
	tlb.Reset()
	if tlb.Hits() != 0 || tlb.Misses() != 0 {
		t.Fatal("Reset did not clear statistics")
	}
	if tlb.Translate(0) {
		t.Fatal("translation should miss after Reset")
	}
}

// referenceTLB is an obviously-correct fully associative true-LRU TLB: the
// resident pages ordered from most to least recently used.
type referenceTLB struct {
	pages   []uint64
	entries int
}

func (r *referenceTLB) translate(page uint64) bool {
	for i, p := range r.pages {
		if p == page {
			copy(r.pages[1:i+1], r.pages[:i])
			r.pages[0] = page
			return true
		}
	}
	if len(r.pages) < r.entries {
		r.pages = append(r.pages, 0)
	}
	copy(r.pages[1:], r.pages)
	r.pages[0] = page
	return false
}

// TestTLBMatchesReferenceModel replays random translation traces on the TLB
// and the reference model and requires identical hit/miss sequences. Each
// trace draws from more pages than the TLB has entries, and half of the
// pages share their low bits with another page, so they collide in the
// page memo and must be told apart by validation. A Reset mid-trace must
// restart both from empty.
func TestTLBMatchesReferenceModel(t *testing.T) {
	const pageShift = 12
	for _, entries := range []int{1, 4, 5, 64} {
		tlb := NewTLB(TLBConfig{Entries: entries, PageBytes: 1 << pageShift, MissPenaltyCycles: 1})
		memo := uint64(len(tlb.memoPage))
		if memo < 2*uint64(entries) {
			t.Fatalf("%d entries: page memo has %d slots, want at least %d", entries, memo, 2*entries)
		}
		// The page pool: 3*entries pages, the odd-numbered ones a memo-size
		// multiple away from their even neighbour.
		pool := make([]uint64, 3*entries+1)
		for i := range pool {
			if i%2 == 0 {
				pool[i] = uint64(i)
			} else {
				pool[i] = pool[i-1] + memo*uint64(i+1)
			}
		}
		for seed := uint64(1); seed <= 20; seed++ {
			tlb.Reset()
			ref := &referenceTLB{entries: entries}
			state := seed
			var hits, misses uint64
			for i := 0; i < 4000; i++ {
				state = state*6364136223846793005 + 1442695040888963407
				if i == 2000 {
					tlb.Reset()
					ref = &referenceTLB{entries: entries}
					hits, misses = 0, 0
				}
				// Mostly a small hot subset, sometimes anything in the pool,
				// so both hits and evictions are frequent.
				r := state >> 33
				page := pool[r%uint64(entries+1)]
				if r&3 == 0 {
					page = pool[(r>>2)%uint64(len(pool))]
				}
				offset := (r >> 8) % (1 << pageShift)
				got := tlb.Translate(Addr(page<<pageShift | offset))
				want := ref.translate(page)
				if got != want {
					t.Fatalf("%d entries, seed %d, access %d (page %d): hit = %v, want %v", entries, seed, i, page, got, want)
				}
				if want {
					hits++
				} else {
					misses++
				}
			}
			if tlb.Hits() != hits || tlb.Misses() != misses {
				t.Fatalf("%d entries, seed %d: hits/misses = %d/%d, want %d/%d", entries, seed, tlb.Hits(), tlb.Misses(), hits, misses)
			}
		}
	}
}
