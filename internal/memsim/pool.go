package memsim

import "sync"

// This file provides recycling of System+Core pairs across simulation runs.
// A serving sweep executes thousands of short runs, each of which would
// otherwise construct a fresh socket model — the Xeon L3 tag array alone is
// 768 KB — only to discard it a few milliseconds later. Recycling keeps
// steady-state serving runs allocation-free.
//
// Correctness rests on Reset being exact: a recycled pair must be
// bit-identical to a freshly constructed one, because simulated results
// depend on every piece of cache, TLB, MSHR and prefetcher state.
// TestAcquireSystemBitIdentical and the golden suites enforce this.

// PooledSystem couples one socket model with one representative core, the
// unit every probe-style run needs. Release returns the pair for reuse.
type PooledSystem struct {
	Sys  *System
	Core *Core

	pool *sync.Pool
}

// sysPools maps a Config value to the pool of recycled pairs built from it.
// Config is a flat comparable struct, so the value itself is the key.
var sysPools sync.Map

// AcquireSystem returns a System+Core pair for the given configuration,
// recycled if one is available (reset to exactly the fresh-construction
// state) and freshly built otherwise. The configuration must be valid; like
// MustSystem, invalid configurations panic.
func AcquireSystem(cfg Config) *PooledSystem {
	pv, ok := sysPools.Load(cfg)
	if !ok {
		pv, _ = sysPools.LoadOrStore(cfg, &sync.Pool{})
	}
	pool := pv.(*sync.Pool)
	if v := pool.Get(); v != nil {
		p := v.(*PooledSystem)
		p.Sys.Reset()
		p.Sys.fabric.SetActiveThreads(1)
		p.Sys.activeThreads = 1
		p.Core.Reset()
		return p
	}
	sys := MustSystem(cfg)
	return &PooledSystem{Sys: sys, Core: sys.NewCore(), pool: pool}
}

// Release returns the pair to its pool. The caller must not touch the
// System or Core afterwards.
func (p *PooledSystem) Release() {
	if p == nil || p.pool == nil {
		return
	}
	p.pool.Put(p)
}
