// Package arena provides the simulated address space that every data
// structure in this repository lives in.
//
// The AMAC paper's data structures (hash table buckets, tree nodes, skip list
// towers) are ordinary C structs aligned to 64-byte cache lines. Here they
// are byte ranges inside an Arena: allocation returns an abstract address,
// typed accessors read and write the bytes, and the memory-hierarchy
// simulator (package memsim) charges time for the same addresses. Keeping
// the data in a flat, explicitly addressed space — rather than in Go objects —
// is what lets the simulator reason about cache lines, and it also removes
// the Go garbage collector from the measured path.
//
// Every typed accessor funnels through slice, which runs once per simulated
// field access — it is on the simulator's hot path, so it is kept small
// enough for the Go compiler to inline into every caller. Chunk sizes are
// powers of two, so the chunk/offset split is a shift and a mask, and the
// checks are one range test per bound. An invalid access panics with an
// accessError that records the access and formats its message only when
// Error is called, so no formatting code sits in the inlined body. CI fails
// if slice stops being inlinable.
//
// Prefetch is a host hint only. The stage machines call it on the address
// they hand the simulated core as the next prefetch, so the host pulls the
// node's bytes into its own cache while other lookups run, as the simulated
// core does. It changes no simulated state, never panics, and compiles to a
// no-op on architectures without an assembly prefetch (anything but amd64
// and arm64).
package arena

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"unsafe"

	"amac/internal/memsim"
)

// Addr is re-exported so that data-structure packages can use a single
// address type with both the arena and the simulator.
type Addr = memsim.Addr

// DefaultChunkBytes is the allocation granularity of the arena's backing
// storage. Individual allocations may not exceed it.
const DefaultChunkBytes = 1 << 20

// Arena is a bump allocator over a simulated address space. The zero address
// is never handed out, so data structures can use 0 as a nil pointer.
// Reads write nothing, so any number of goroutines may read one arena
// concurrently; allocation and writes need exclusive access. The parallel
// execution layer gives each worker that writes a private arena (see
// ops.PartitionJoin).
type Arena struct {
	chunkBytes uint64
	chunkShift uint
	chunkMask  uint64
	chunks     [][]byte
	top        uint64 // next free address
	allocs     uint64
	wasted     uint64 // bytes lost to alignment and chunk padding
}

// New returns an empty arena with the default chunk size.
func New() *Arena { return NewWithChunkSize(DefaultChunkBytes) }

// NewWithChunkSize returns an empty arena whose backing storage grows in
// chunks of the given size, which must be a power of two and a multiple of
// the cache-line size. Small chunk sizes are useful in tests.
func NewWithChunkSize(chunkBytes int) *Arena {
	if chunkBytes <= 0 || chunkBytes%memsim.LineSize != 0 || chunkBytes&(chunkBytes-1) != 0 {
		panic(fmt.Sprintf("arena: chunk size %d must be a power of two multiple of %d", chunkBytes, memsim.LineSize))
	}
	return &Arena{
		chunkBytes: uint64(chunkBytes),
		chunkShift: uint(bits.TrailingZeros64(uint64(chunkBytes))),
		chunkMask:  uint64(chunkBytes) - 1,
		// Skip the first cache line so address 0 is never allocated.
		top: memsim.LineSize,
	}
}

// Alloc reserves size bytes aligned to align (a power of two no larger than
// the chunk size) and returns the address of the first byte. The returned
// memory is zeroed. Alloc panics on invalid arguments, since those are
// programming errors in this repository rather than user input.
func (a *Arena) Alloc(size, align int) Addr {
	if size <= 0 {
		panic("arena: allocation size must be positive")
	}
	if align <= 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("arena: alignment %d must be a power of two", align))
	}
	if uint64(size) > a.chunkBytes {
		panic(fmt.Sprintf("arena: allocation of %d bytes exceeds chunk size %d", size, a.chunkBytes))
	}

	pos := a.top
	if rem := pos & (uint64(align) - 1); rem != 0 {
		pad := uint64(align) - rem
		pos += pad
		a.wasted += pad
	}
	// Never let an allocation straddle a chunk boundary: bump to the next
	// chunk if it would.
	if pos>>a.chunkShift != (pos+uint64(size)-1)>>a.chunkShift {
		next := (pos>>a.chunkShift + 1) << a.chunkShift
		a.wasted += next - pos
		pos = next
	}

	a.reserve(pos + uint64(size))
	a.allocs++
	return Addr(pos)
}

// reserve grows the backing chunks to cover addresses below end and raises
// the allocation watermark.
func (a *Arena) reserve(end uint64) {
	for uint64(len(a.chunks))<<a.chunkShift < end {
		a.chunks = append(a.chunks, make([]byte, a.chunkBytes))
	}
	a.top = end
}

// allocLines reserves n whole cache lines (64-byte aligned).
func (a *Arena) allocLines(n int) Addr {
	return a.Alloc(n*memsim.LineSize, memsim.LineSize)
}

// AllocSpan reserves size bytes of contiguous, cache-line-aligned address
// space, spanning as many chunks as needed, and reserving all of them in one
// pass. It is used for large arrays (bucket directories, materialized
// relations) whose elements are addressed by offset arithmetic. A span
// larger than one chunk counts as a single allocation.
func (a *Arena) AllocSpan(size uint64) Addr {
	if size == 0 {
		panic("arena: AllocSpan of zero bytes")
	}
	if size <= a.chunkBytes {
		return a.Alloc(int(size), memsim.LineSize)
	}
	// Start at a chunk boundary so that every chunk-sized piece of the span
	// is adjacent to the previous one.
	pos := a.top
	if rem := pos & a.chunkMask; rem != 0 {
		pad := a.chunkBytes - rem
		a.wasted += pad
		pos += pad
	}
	a.reserve(pos + size)
	a.allocs++
	return Addr(pos)
}

// Size returns the number of bytes of address space handed out so far
// (including alignment padding).
func (a *Arena) Size() uint64 { return a.top }

// slice returns the backing bytes for [addr, addr+size), which must lie
// within one chunk and within allocated space. For size >= 1, the first test
// is off+size <= chunkBytes, so end cannot wrap past 2^64 and end-1 is the
// last byte accessed; size <= 0 fails it, since uint64(size)-1 is then at
// least 2^63.
func (a *Arena) slice(addr Addr, size int) []byte {
	pos, n := uint64(addr), uint64(size)
	off := pos & a.chunkMask
	if n-1 >= a.chunkBytes-off || pos == 0 || pos+n-1 >= a.top {
		panic(accessError{pos: pos, size: size, top: a.top})
	}
	return a.chunks[pos>>a.chunkShift][off : off+n]
}

// Prefetch hints to the host CPU that the bytes at addr are about to be read.
// An address of 0 or at or past the allocation watermark is ignored: this is
// a hint, never an access, so it cannot panic and it has no simulated
// effect.
func (a *Arena) Prefetch(addr Addr) {
	pos := uint64(addr)
	if pos == 0 || pos >= a.top {
		return
	}
	prefetchLine(unsafe.Pointer(&a.chunks[pos>>a.chunkShift][pos&a.chunkMask]))
}

// accessError is the panic value of an invalid access. It holds the access
// and the watermark at the time, and builds its message only in Error.
type accessError struct {
	pos  uint64
	size int
	top  uint64
}

func (e accessError) Error() string {
	end := e.pos + uint64(e.size)
	switch {
	case e.size <= 0 || e.pos == 0 || end < e.pos:
		return fmt.Sprintf("arena: invalid access addr=%d size=%d", e.pos, e.size)
	case end > e.top:
		return fmt.Sprintf("arena: access [%d,%d) beyond allocated space %d", e.pos, end, e.top)
	default:
		return fmt.Sprintf("arena: access [%d,%d) crosses a chunk boundary", e.pos, end)
	}
}

// ReadU64 reads a little-endian 64-bit value.
func (a *Arena) ReadU64(addr Addr) uint64 {
	return binary.LittleEndian.Uint64(a.slice(addr, 8))
}

// WriteU64 writes a little-endian 64-bit value.
func (a *Arena) WriteU64(addr Addr, v uint64) {
	binary.LittleEndian.PutUint64(a.slice(addr, 8), v)
}

// readI64 reads a signed 64-bit value.
func (a *Arena) readI64(addr Addr) int64 { return int64(a.ReadU64(addr)) }

// writeI64 writes a signed 64-bit value.
func (a *Arena) writeI64(addr Addr, v int64) { a.WriteU64(addr, uint64(v)) }

// readU32 reads a little-endian 32-bit value.
func (a *Arena) readU32(addr Addr) uint32 {
	return binary.LittleEndian.Uint32(a.slice(addr, 4))
}

// writeU32 writes a little-endian 32-bit value.
func (a *Arena) writeU32(addr Addr, v uint32) {
	binary.LittleEndian.PutUint32(a.slice(addr, 4), v)
}

// ReadU8 reads a single byte.
func (a *Arena) ReadU8(addr Addr) uint8 { return a.slice(addr, 1)[0] }

// WriteU8 writes a single byte.
func (a *Arena) WriteU8(addr Addr, v uint8) { a.slice(addr, 1)[0] = v }

// ReadAddr reads a stored address (pointer field).
func (a *Arena) ReadAddr(addr Addr) Addr { return Addr(a.ReadU64(addr)) }

// WriteAddr stores an address (pointer field).
func (a *Arena) WriteAddr(addr Addr, v Addr) { a.WriteU64(addr, uint64(v)) }

// Bytes returns the backing bytes for [addr, addr+size) without copying.
// The returned slice aliases the arena: it stays valid (chunks never move),
// and writes through it are visible to subsequent reads. Callers that need
// a stable snapshot must copy; the node accessors in the data-structure
// packages use it to decode several fields from one bounds check.
func (a *Arena) Bytes(addr Addr, size int) []byte {
	return a.slice(addr, size)
}

// BytesInChunk is Bytes for the longest prefix of [addr, addr+size) that
// lies in addr's chunk: it returns size bytes, or fewer if the chunk ends
// first. A loop over a span larger than a chunk (AllocSpan) takes one view
// per chunk with it, instead of one Bytes call per element.
func (a *Arena) BytesInChunk(addr Addr, size uint64) []byte {
	return a.slice(addr, int(min(size, a.chunkBytes-uint64(addr)&a.chunkMask)))
}

// readBytes copies size bytes starting at addr into a new slice. Prefer
// Bytes on hot paths; ReadBytes allocates its result.
func (a *Arena) readBytes(addr Addr, size int) []byte {
	out := make([]byte, size)
	copy(out, a.slice(addr, size))
	return out
}

// writeBytes copies b into the arena starting at addr.
func (a *Arena) writeBytes(addr Addr, b []byte) {
	copy(a.slice(addr, len(b)), b)
}
