package memsim

// TLB is a fully associative, true-LRU data TLB for large pages. With the
// 2 MB / 4 MB pages used by the paper a handful of entries covers the whole
// working set, so TLB misses are rare during steady-state probing; the model
// exists so that pathological configurations (the "more than 32 in-flight
// lookups" discussion of Section 6) show the expected thrashing.
type TLB struct {
	pageShift uint
	penalty   uint64

	pages []uint64 // pageNumber+1, 0 = invalid
	use   []uint64
	clock uint64
	// lastPage caches the most recent translation; with large pages almost
	// every access hits it, which keeps the simulator fast.
	lastPage uint64
	// memoPage/memoIdx extend lastPage to every resident page, direct-mapped
	// by the page's low bits: operators alternate between many pages (input
	// relation, table pages, output buffer), which defeats a single-entry
	// memo, and the memo has at least twice as many slots as the TLB has
	// entries, so a resident page is almost always found without scanning.
	// A memo hit replays exactly the effects of a scan hit (clock tick, use
	// stamp, hit count), and every entry is validated against the backing
	// array before use, so evictions can never serve a stale translation.
	memoPage []uint64
	memoIdx  []int
	misses   uint64
	hits     uint64
}

// NewTLB constructs a TLB from its configuration; cfg must have been
// validated (power-of-two page size, positive entry count).
func NewTLB(cfg TLBConfig) *TLB {
	shift := uint(0)
	for sz := cfg.PageBytes; sz > 1; sz >>= 1 {
		shift++
	}
	memo := 1
	for memo < 2*cfg.Entries {
		memo <<= 1
	}
	return &TLB{
		pageShift: shift,
		penalty:   cfg.MissPenaltyCycles,
		pages:     make([]uint64, cfg.Entries),
		use:       make([]uint64, cfg.Entries),
		memoPage:  make([]uint64, memo),
		memoIdx:   make([]int, memo),
	}
}

// Penalty returns the page-walk cost in cycles.
func (t *TLB) Penalty() uint64 { return t.penalty }

// Translate looks up the page containing a, installing it on a miss, and
// reports whether the access hit. The body is split so the last-page fast
// path — which serves almost every access under large pages — inlines into
// Core.Load/Store.
func (t *TLB) Translate(a Addr) bool {
	page := uint64(a)>>t.pageShift + 1
	if page == t.lastPage {
		t.hits++
		return true
	}
	return t.translateSlow(page)
}

// translateSlow serves translations that missed the single-page fast path:
// first from the recent-translation memo, then by scanning the entries,
// installing the page on a miss.
func (t *TLB) translateSlow(page uint64) bool {
	if s := page & uint64(len(t.memoPage)-1); t.memoPage[s] == page {
		i := t.memoIdx[s]
		if t.pages[i] == page {
			t.clock++
			t.use[i] = t.clock
			t.hits++
			t.lastPage = page
			return true
		}
	}
	t.clock++
	victim := 0
	victimUse := t.use[0]
	for i := range t.pages {
		if t.pages[i] == page {
			t.use[i] = t.clock
			t.hits++
			t.lastPage = page
			t.memoize(page, i)
			return true
		}
		if t.pages[i] == 0 {
			victim = i
			victimUse = 0
			continue
		}
		if t.use[i] < victimUse {
			victim = i
			victimUse = t.use[i]
		}
	}
	t.pages[victim] = page
	t.use[victim] = t.clock
	t.lastPage = page
	t.memoize(page, victim)
	t.misses++
	return false
}

// memoize records where page lives for the recent-translation memo.
func (t *TLB) memoize(page uint64, idx int) {
	s := page & uint64(len(t.memoPage)-1)
	t.memoPage[s] = page
	t.memoIdx[s] = idx
}

// Hits returns the number of translations that hit.
func (t *TLB) Hits() uint64 { return t.hits }

// Misses returns the number of translations that required a walk.
func (t *TLB) Misses() uint64 { return t.misses }

// Reset clears all translations and statistics.
func (t *TLB) Reset() {
	for i := range t.pages {
		t.pages[i] = 0
		t.use[i] = 0
	}
	t.clock = 0
	t.lastPage = 0
	clear(t.memoPage)
	clear(t.memoIdx)
	t.hits = 0
	t.misses = 0
}
