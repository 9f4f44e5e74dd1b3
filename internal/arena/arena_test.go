package arena

import (
	"bytes"
	"fmt"
	"strings"
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
	if a.wasted == 0 {
		t.Fatal("alignment padding should have been recorded")
	}
}

func TestAllocLines(t *testing.T) {
	a := New()
	addr := a.allocLines(3)
	if addr%memsim.LineSize != 0 {
		t.Fatalf("allocLines not line aligned: %d", addr)
	}
	if got := a.allocs; got != 1 {
		t.Fatalf("allocs = %d, want 1", got)
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
	a.writeI64(addr+8, -42)
	if got := a.readI64(addr + 8); got != -42 {
		t.Fatalf("i64 round trip: %d", got)
	}
	a.writeU32(addr+16, 0x12345678)
	if got := a.readU32(addr + 16); got != 0x12345678 {
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
	a.writeBytes(addr+32, []byte{1, 2, 3, 4})
	if got := a.readBytes(addr+32, 4); got[0] != 1 || got[3] != 4 {
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

// TestInvalidAccessesPanic pins each invalid call's panic message, and that
// every one starts with "arena:". The accesses around the watermark and the
// chunk edges sit next to a valid access, which must not panic.
func TestInvalidAccessesPanic(t *testing.T) {
	const chunk = 4096
	cases := []struct {
		name string
		f    func(a *Arena)
		want string // message substring; "" means the call is valid
	}{
		{"zero size alloc", func(a *Arena) { a.Alloc(0, 8) }, "allocation size must be positive"},
		{"bad alignment", func(a *Arena) { a.Alloc(8, 3) }, "alignment 3 must be a power of two"},
		{"oversized alloc", func(a *Arena) { a.Alloc(int(DefaultChunkBytes)+1, 8) }, "exceeds chunk size"},
		{"nil address read", func(a *Arena) { a.ReadU64(0) }, "invalid access addr=0 size=8"},
		{"out of bounds read", func(a *Arena) { a.ReadU64(1 << 40) }, "beyond allocated space"},
		{"read past allocation", func(a *Arena) { addr := a.Alloc(8, 8); a.readBytes(addr, 1<<16) }, "beyond allocated space"},
		{"zero size access", func(a *Arena) { a.Bytes(a.Alloc(8, 8), 0) }, "invalid access"},
		{"negative size access", func(a *Arena) { a.Bytes(a.Alloc(8, 8), -8) }, "invalid access"},
		{"access ending at the top", func(a *Arena) { a.Alloc(24, 8); a.Bytes(Addr(a.Size()-16), 16) }, ""},
		{"access one byte past the top", func(a *Arena) { a.Alloc(24, 8); a.Bytes(Addr(a.Size()-16), 17) }, "beyond allocated space"},
		{"access ending at a chunk edge", func(*Arena) {
			a := NewWithChunkSize(chunk)
			a.AllocSpan(2 * chunk)
			a.Bytes(chunk-16, 16)
		}, ""},
		{"access crossing a chunk edge", func(*Arena) {
			a := NewWithChunkSize(chunk)
			a.AllocSpan(2 * chunk)
			a.Bytes(chunk-8, 16)
		}, "crosses a chunk boundary"},
		{"access wrapping past 2^64", func(a *Arena) { a.Alloc(8, 8); a.Bytes(^Addr(0)-3, 8) }, "invalid access"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				switch {
				case tc.want == "" && r != nil:
					t.Fatalf("valid call panicked: %v", r)
				case tc.want == "":
				case r == nil:
					t.Fatal("expected panic")
				default:
					msg := fmt.Sprint(r)
					if !strings.HasPrefix(msg, "arena: ") || !strings.Contains(msg, tc.want) {
						t.Fatalf("panic %q, want an arena: message containing %q", msg, tc.want)
					}
				}
			}()
			tc.f(New())
		})
	}
}

// TestBytesInChunkStopsAtTheChunkEdge checks that BytesInChunk returns the
// whole request inside a chunk and stops at the chunk's end otherwise.
func TestBytesInChunkStopsAtTheChunkEdge(t *testing.T) {
	const chunk = 4096
	a := NewWithChunkSize(chunk)
	base := a.AllocSpan(3 * chunk) // starts on a chunk edge
	if base%chunk != 0 {
		t.Fatalf("span at %d does not start on a chunk edge", base)
	}
	for _, tc := range []struct {
		addr Addr
		size uint64
		want int
	}{
		{base, 16, 16},
		{base, 3 * chunk, chunk},
		{base + chunk - 16, 64, 16},
		{base + 2*chunk + 64, chunk, chunk - 64},
	} {
		b := a.BytesInChunk(tc.addr, tc.size)
		if len(b) != tc.want {
			t.Fatalf("BytesInChunk(%d, %d) returned %d bytes, want %d", tc.addr, tc.size, len(b), tc.want)
		}
		b[0] = 0xab
		if a.ReadU8(tc.addr) != 0xab {
			t.Fatalf("BytesInChunk(%d, %d) does not alias the arena", tc.addr, tc.size)
		}
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
	first := a.allocLines(40)
	a.allocLines(40) // does not fit the first chunk's tail: starts the second
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
		p := a.allocLines(1)
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
