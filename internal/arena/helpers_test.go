package arena

import (
	"encoding/binary"

	"amac/internal/memsim"
)

// The accessors below exist only for this package's tests; the data-structure
// packages read and write fields through the exported accessors and Bytes.

// allocLines reserves n whole cache lines (64-byte aligned).
func (a *Arena) allocLines(n int) Addr {
	return a.Alloc(n*memsim.LineSize, memsim.LineSize)
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

// readBytes copies size bytes starting at addr into a new slice.
func (a *Arena) readBytes(addr Addr, size int) []byte {
	out := make([]byte, size)
	copy(out, a.slice(addr, size))
	return out
}

// writeBytes copies b into the arena starting at addr.
func (a *Arena) writeBytes(addr Addr, b []byte) {
	copy(a.slice(addr, len(b)), b)
}
