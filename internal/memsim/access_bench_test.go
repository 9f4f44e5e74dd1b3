package memsim

import "testing"

// BenchmarkCoreAccess measures the host cost of one simulated access on a
// Xeon X5670 core: each iteration is one Load, Store or Prefetch, so ns/op
// is host ns per access. The traces are fixed, so runs of two builds are
// comparable in one process, without the run-to-run spread of the
// end-to-end benchmark:
//
//   - amac: a prefetch of one random line, then a load of the line
//     prefetched ten lookups earlier, so ten lines are in flight (AMAC's
//     pattern at window 10);
//   - random: blocking loads of random lines (Baseline's pattern);
//   - streams: loads of 16-byte tuples from one sequential stream,
//     alternating with stores to a second one (a scan beside its output).
//
// Random lines are drawn from a 64 MB space: five times the 12 MB L3, and
// within the reach of the 64-entry TLB of 2 MB pages, as the joins' tables
// are.
func BenchmarkCoreAccess(b *testing.B) {
	const lines = 1 << 20
	random := make([]Addr, lines)
	state := uint64(42)
	for i := range random {
		state = state*6364136223846793005 + 1442695040888963407
		random[i] = Addr(state>>44) << lineShift
	}
	const window = 10
	b.Run("amac", func(b *testing.B) {
		c := MustSystem(XeonX5670()).NewCore()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i >> 1
			if i&1 == 0 {
				c.Prefetch(random[(k+window)&(lines-1)])
			} else {
				c.Load(random[k&(lines-1)], 8)
			}
		}
	})
	b.Run("random", func(b *testing.B) {
		c := MustSystem(XeonX5670()).NewCore()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Load(random[i&(lines-1)], 8)
		}
	})
	b.Run("streams", func(b *testing.B) {
		const in, out, span = 1 << 30, 2 << 30, 1 << 28
		c := MustSystem(XeonX5670()).NewCore()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := Addr(i>>1*16) & (span - 1)
			if i&1 == 0 {
				c.Load(in+off, 16)
			} else {
				c.Store(out+off, 16)
			}
		}
	})
}
