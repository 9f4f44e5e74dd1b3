package arena

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"amac/internal/memsim"
)

func TestAllocNeverReturnsZeroAddress(t *testing.T) {
	a := New()
	if addr := a.Alloc(8, 8); addr == 0 {
		t.Fatal("first allocation returned the nil address")
	}
}

func TestAllocAlignment(t *testing.T) {
	a := New()
	a.Alloc(3, 1)
	addr := a.Alloc(64, 64)
	if addr%64 != 0 {
		t.Fatalf("allocation not 64-byte aligned: %d", addr)
	}
	addr2 := a.Alloc(16, 16)
	if addr2%16 != 0 {
		t.Fatalf("allocation not 16-byte aligned: %d", addr2)
	}
	if a.Wasted() == 0 {
		t.Fatal("alignment padding should have been recorded")
	}
}

func TestAllocLines(t *testing.T) {
	a := New()
	addr := a.AllocLines(3)
	if addr%memsim.LineSize != 0 {
		t.Fatalf("AllocLines not line aligned: %d", addr)
	}
	if got := a.Allocations(); got != 1 {
		t.Fatalf("Allocations = %d, want 1", got)
	}
}

func TestAllocationsDoNotOverlap(t *testing.T) {
	a := New()
	type span struct{ start, end uint64 }
	var spans []span
	sizes := []int{1, 7, 8, 64, 100, 63, 128, 16}
	for i := 0; i < 200; i++ {
		size := sizes[i%len(sizes)]
		addr := a.Alloc(size, 8)
		spans = append(spans, span{uint64(addr), uint64(addr) + uint64(size)})
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].start < spans[i-1].end {
			t.Fatalf("allocation %d overlaps previous: %+v vs %+v", i, spans[i], spans[i-1])
		}
	}
}

func TestAllocationNeverCrossesChunkBoundary(t *testing.T) {
	const chunk = 4 * memsim.LineSize
	a := NewWithChunkSize(chunk)
	for i := 0; i < 50; i++ {
		addr := a.Alloc(100, 8)
		if uint64(addr)/chunk != (uint64(addr)+99)/chunk {
			t.Fatalf("allocation at %d crosses a chunk boundary", addr)
		}
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	a := New()
	addr := a.Alloc(64, 64)

	a.WriteU64(addr, 0xdeadbeefcafebabe)
	if got := a.ReadU64(addr); got != 0xdeadbeefcafebabe {
		t.Fatalf("u64 round trip: %x", got)
	}
	a.WriteI64(addr+8, -42)
	if got := a.ReadI64(addr + 8); got != -42 {
		t.Fatalf("i64 round trip: %d", got)
	}
	a.WriteU32(addr+16, 0x12345678)
	if got := a.ReadU32(addr + 16); got != 0x12345678 {
		t.Fatalf("u32 round trip: %x", got)
	}
	a.WriteU8(addr+20, 0xab)
	if got := a.ReadU8(addr + 20); got != 0xab {
		t.Fatalf("u8 round trip: %x", got)
	}
	a.WriteAddr(addr+24, addr)
	if got := a.ReadAddr(addr + 24); got != addr {
		t.Fatalf("addr round trip: %d", got)
	}
	a.WriteBytes(addr+32, []byte{1, 2, 3, 4})
	if got := a.ReadBytes(addr+32, 4); got[0] != 1 || got[3] != 4 {
		t.Fatalf("bytes round trip: %v", got)
	}
}

func TestFreshAllocationIsZeroed(t *testing.T) {
	a := New()
	addr := a.Alloc(64, 64)
	for i := 0; i < 8; i++ {
		if a.ReadU64(addr+Addr(i*8)) != 0 {
			t.Fatal("fresh allocation not zeroed")
		}
	}
}

func TestWritesToDifferentAllocationsAreIndependent(t *testing.T) {
	f := func(v1, v2 uint64) bool {
		a := New()
		p1 := a.Alloc(8, 8)
		p2 := a.Alloc(8, 8)
		a.WriteU64(p1, v1)
		a.WriteU64(p2, v2)
		return a.ReadU64(p1) == v1 && a.ReadU64(p2) == v2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidAccessesPanic(t *testing.T) {
	cases := []struct {
		name string
		f    func(a *Arena)
	}{
		{"zero size alloc", func(a *Arena) { a.Alloc(0, 8) }},
		{"bad alignment", func(a *Arena) { a.Alloc(8, 3) }},
		{"oversized alloc", func(a *Arena) { a.Alloc(int(DefaultChunkBytes)+1, 8) }},
		{"nil address read", func(a *Arena) { a.ReadU64(0) }},
		{"out of bounds read", func(a *Arena) { a.ReadU64(1 << 40) }},
		{"read past allocation", func(a *Arena) { addr := a.Alloc(8, 8); a.ReadBytes(addr, 1<<16) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.f(New())
		})
	}
}

func TestBadChunkSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for misaligned chunk size")
		}
	}()
	NewWithChunkSize(1000)
}

func TestSizeGrowsMonotonically(t *testing.T) {
	a := New()
	prev := a.Size()
	for i := 0; i < 20; i++ {
		a.Alloc(48, 16)
		if a.Size() <= prev {
			t.Fatal("Size must grow with every allocation")
		}
		prev = a.Size()
	}
}

// TestPrefetchIsAHint pins Prefetch's contract: no address panics, none
// changes a byte, and none allocates.
func TestPrefetchIsAHint(t *testing.T) {
	const chunk = 4096
	a := NewWithChunkSize(chunk)
	first := a.AllocLines(40)
	a.AllocLines(40) // does not fit the first chunk's tail: starts the second
	top := Addr(a.Size())
	if top <= chunk {
		t.Fatalf("arena top %d does not reach the second chunk", top)
	}
	for p := first; p < top; p += 8 {
		a.WriteU64(p, uint64(p)*0x9e3779b97f4a7c15)
	}
	snapshot := func() []byte {
		var b []byte
		for p := first; p < top; p += memsim.LineSize {
			b = append(b, a.Bytes(p, memsim.LineSize)...)
		}
		return b
	}
	before := snapshot()
	addrs := []Addr{0, first, top - 1, top, top + 1, ^Addr(0), chunk - 1, chunk, chunk + 1}
	for _, p := range addrs {
		a.Prefetch(p)
	}
	if !bytes.Equal(before, snapshot()) {
		t.Fatal("Prefetch changed arena contents")
	}
	if a.Size() != uint64(top) {
		t.Fatalf("Prefetch moved the allocation watermark: %d, want %d", a.Size(), top)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, p := range addrs {
			a.Prefetch(p)
		}
	})
	if allocs != 0 {
		t.Fatalf("Prefetch allocated %v times per run", allocs)
	}
}

// TestConcurrentReads pins the sharing rule the parallel layer relies on:
// reads write nothing, so several goroutines may read one arena at once.
// Each reader walks the chunks in a different order, so under -race any
// per-read bookkeeping shared between readers shows up as a data race. The
// readers also prefetch the address they read next, as the stage machines
// do.
func TestConcurrentReads(t *testing.T) {
	const chunk, chunks, readers = 4 * memsim.LineSize, 8, 4
	a := NewWithChunkSize(chunk)
	var addrs []Addr
	for i := 0; i < chunks*4; i++ {
		p := a.AllocLines(1)
		a.WriteU64(p, uint64(i))
		addrs = append(addrs, p)
	}
	var wg sync.WaitGroup
	errs := make([]int, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for rep := 0; rep < 200; rep++ {
				for k := range addrs {
					i := (k*(2*r+1) + r) % len(addrs)
					a.Prefetch(addrs[(i+1)%len(addrs)])
					if a.ReadU64(addrs[i]) != uint64(i) {
						errs[r]++
					}
				}
			}
		}(r)
	}
	wg.Wait()
	for r, n := range errs {
		if n != 0 {
			t.Fatalf("reader %d saw %d wrong values", r, n)
		}
	}
}
