package ops

import (
	"encoding/binary"

	"amac/internal/arena"
	"amac/internal/memsim"
	"amac/internal/relation"
)

// Input is a relation materialized in the arena as a dense array of 16-byte
// tuples, so that reading an input tuple in code stage 0 is a charged —
// sequential and therefore cheap — memory access, exactly as in the paper's
// columnar storage.
type Input struct {
	a    *arena.Arena
	base arena.Addr
	n    int
}

// NewInput copies rel into the arena, in order, one arena chunk at a time:
// tuple i lands at TupleAddr(i) as a little-endian key followed by a
// little-endian payload, exactly as a per-tuple write would place it.
func NewInput(a *arena.Arena, rel *relation.Relation) *Input {
	in := &Input{a: a, n: rel.Len()}
	if in.n == 0 {
		in.base = a.Alloc(relation.TupleBytes, memsim.LineSize)
		return in
	}
	in.base = a.AllocSpan(uint64(in.n) * relation.TupleBytes)
	addr, tuples := in.base, rel.Tuples
	for len(tuples) > 0 {
		b := a.BytesInChunk(addr, uint64(len(tuples))*relation.TupleBytes)
		addr += arena.Addr(len(b))
		for ; len(b) >= relation.TupleBytes; b = b[relation.TupleBytes:] {
			binary.LittleEndian.PutUint64(b, tuples[0].Key)
			binary.LittleEndian.PutUint64(b[8:], tuples[0].Payload)
			tuples = tuples[1:]
		}
	}
	return in
}

// Len returns the number of tuples.
func (in *Input) Len() int { return in.n }

// Base returns the address of tuple 0.
func (in *Input) Base() arena.Addr { return in.base }

// Bytes returns the materialized size.
func (in *Input) Bytes() uint64 { return uint64(in.n) * relation.TupleBytes }

// TupleAddr returns the address of tuple i.
func (in *Input) TupleAddr(i int) arena.Addr {
	return in.base + arena.Addr(i*relation.TupleBytes)
}

// Read loads tuple i through the core (charged) and returns its key and
// payload, decoding both fields from one zero-copy view.
func (in *Input) Read(c *memsim.Core, i int) (key, payload uint64) {
	addr := in.TupleAddr(i)
	c.Load(addr, relation.TupleBytes)
	c.Instr(CostTupleFetch)
	b := in.a.Bytes(addr, relation.TupleBytes)
	return binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])
}

// ReadRaw returns tuple i without charging simulator time.
func (in *Input) ReadRaw(i int) (key, payload uint64) {
	b := in.a.Bytes(in.TupleAddr(i), relation.TupleBytes)
	return binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])
}
