// Package prof implements an exact cycle-attribution profiler on the
// simulated clock. The simulator charges every core cycle it advances to one
// attribution category (compute, a memory-hierarchy level, TLB, MSHR
// pressure, or idle) under the attribution context its requester pushed
// (engine technique, stage number, probe/exploit epoch, pipeline stage), so
// per-category sums reconcile exactly with memsim.Stats total cycles — the
// conservation invariant the tests enforce. Contexts form stacks that export
// as folded flamegraph text and gzipped pprof protos keyed on simulated
// cycles.
//
// Like internal/obs, a nil profiler is the disabled state: every method on a
// nil *Profile or *CoreProf is a single-branch, zero-allocation no-op, so
// the simulator and every engine thread the profiler unconditionally and a
// profiled run is byte-identical to an unprofiled one.
package prof

import (
	"fmt"
	"sync"
)

// Cat is a cycle-attribution category. Every simulated core cycle is charged
// to exactly one category.
type Cat uint8

const (
	// CatCompute is instruction execution (Core.Instr).
	CatCompute Cat = iota
	// CatL1 is exposed load-to-use stall on an L1-D hit.
	CatL1
	// CatL2 is exposed stall on a fill from the private L2.
	CatL2
	// CatLLC is exposed stall on a fill from the shared last-level cache.
	CatLLC
	// CatDRAM is exposed stall on an off-chip fill (fabric queue included).
	CatDRAM
	// CatTLB is the page-walk penalty of TLB misses.
	CatTLB
	// CatMSHRFull is stall waiting for a free miss-status register.
	CatMSHRFull
	// CatIdle is cycles with no work to run: serving-queue waits, GP/SPP
	// batch-boundary bubbles, pipeline backpressure.
	CatIdle

	numCats
)

// NumCats is the number of attribution categories.
const NumCats = int(numCats)

var catNames = [NumCats]string{"compute", "L1", "L2", "LLC", "DRAM", "TLB", "MSHR-full", "idle"}

// String returns the category's export label.
func (c Cat) String() string {
	if int(c) < NumCats {
		return catNames[c]
	}
	return fmt.Sprintf("Cat(%d)", int(c))
}

// Cats lists every category in charge order, for iteration in exports.
var Cats = [NumCats]Cat{CatCompute, CatL1, CatL2, CatLLC, CatDRAM, CatTLB, CatMSHRFull, CatIdle}

// Frame is an interned context label. Frames are per-CoreProf; exchange them
// only with the CoreProf that handed them out.
type Frame int32

// node is one context-tree node: a frame under a parent context. The root
// node (index 0) has no frame; charges made with an empty stack land there.
type node struct {
	parent int32
	frame  Frame
}

type childKey struct {
	parent int32
	frame  Frame
}

// CoreProf accumulates one simulated core's cycle attribution. It is
// single-goroutine like the core it observes (the simulator's
// one-goroutine-per-core model); all methods are nil-safe no-ops costing a
// single predictable branch on the disabled path, and the hot-path methods
// (Charge, Hide, Expose, OffchipFill) never allocate.
type CoreProf struct {
	name string

	frames   []string
	frameIDs map[string]Frame

	nodes    []node            // nodes[0] is the root; parents precede children
	counts   [][NumCats]uint64 // counts[i] are cycles charged at node i
	children map[childKey]int32

	stack []int32 // current context path, stack[0] == root
	cur   int32   // == stack[len(stack)-1]

	stageFrames []Frame // memoized "stage k" frames, indexed by k

	// Overlap accounting, independent of the context tree: hide[c] is fill
	// latency of category c scheduled off the critical path (prefetch
	// allocations plus the OoO-hidden tail of blocking misses), expose[c] the
	// part a later demand access waited out anyway.
	hide    [NumCats]uint64
	expose  [NumCats]uint64
	offchip uint64 // total off-chip fill occupancy (cycles of DRAM service)
}

// NewCoreProf creates an empty per-core profiler. Most callers obtain one
// through Profile.Core instead.
func NewCoreProf(name string) *CoreProf {
	p := &CoreProf{
		name:     name,
		frameIDs: make(map[string]Frame),
		children: make(map[childKey]int32),
	}
	p.nodes = append(p.nodes, node{parent: -1, frame: -1})
	p.counts = append(p.counts, [NumCats]uint64{})
	p.stack = append(p.stack, 0)
	return p
}

// Name returns the profiler's registered core name.
func (p *CoreProf) Name() string {
	if p == nil {
		return ""
	}
	return p.name
}

// Frame interns a context label for Push. Interning outside the hot loop
// keeps Push allocation- and hash-free on repeat visits.
func (p *CoreProf) Frame(label string) Frame {
	if p == nil {
		return 0
	}
	return p.intern(label)
}

func (p *CoreProf) intern(label string) Frame {
	if f, ok := p.frameIDs[label]; ok {
		return f
	}
	f := Frame(len(p.frames))
	p.frames = append(p.frames, label)
	p.frameIDs[label] = f
	return f
}

// Push enters a context: subsequent charges accumulate under this frame
// until the matching Pop.
func (p *CoreProf) Push(f Frame) {
	if p == nil {
		return
	}
	p.push(f)
}

func (p *CoreProf) push(f Frame) {
	key := childKey{parent: p.cur, frame: f}
	id, ok := p.children[key]
	if !ok {
		id = int32(len(p.nodes))
		p.nodes = append(p.nodes, node{parent: p.cur, frame: f})
		p.counts = append(p.counts, [NumCats]uint64{})
		p.children[key] = id
	}
	p.cur = id
	p.stack = append(p.stack, id)
}

// PushStage enters the memoized "stage k" context, the per-stage attribution
// every engine uses around Init (stage 0) and Stage calls.
func (p *CoreProf) PushStage(stage int) {
	if p == nil {
		return
	}
	p.pushStage(stage)
}

// pushStage is PushStage's body, kept out of line so the nil check inlines
// at every engine's stage visit.
func (p *CoreProf) pushStage(stage int) {
	for len(p.stageFrames) <= stage {
		p.stageFrames = append(p.stageFrames, p.intern(fmt.Sprintf("stage %d", len(p.stageFrames))))
	}
	p.push(p.stageFrames[stage])
}

// Pop leaves the current context. An unmatched Pop is an instrumentation bug
// and panics rather than silently corrupting attribution.
func (p *CoreProf) Pop() {
	if p == nil {
		return
	}
	if len(p.stack) <= 1 {
		panic("prof: Pop without matching Push")
	}
	p.stack = p.stack[:len(p.stack)-1]
	p.cur = p.stack[len(p.stack)-1]
}

// Depth is the current context depth (0 at the root).
func (p *CoreProf) Depth() int {
	if p == nil {
		return 0
	}
	return len(p.stack) - 1
}

// Charge attributes n simulated cycles of category cat to the current
// context. The simulator calls it at every clock advance; the sum of all
// charges equals the core's total cycles exactly.
func (p *CoreProf) Charge(cat Cat, n uint64) {
	if p == nil {
		return
	}
	p.counts[p.cur][cat] += n
}

// Hide records n cycles of category-cat fill latency scheduled off the
// critical path: a prefetch's full fill latency at allocation, or the
// OoO-hidden tail of a blocking miss.
func (p *CoreProf) Hide(cat Cat, n uint64) {
	if p == nil {
		return
	}
	p.hide[cat] += n
}

// Expose records n cycles of previously hidden latency that a demand access
// waited out anyway (an MSHR-hit wait on an in-flight prefetch).
func (p *CoreProf) Expose(cat Cat, n uint64) {
	if p == nil {
		return
	}
	p.expose[cat] += n
}

// OffchipFill tallies n cycles of off-chip fill occupancy — the DRAM service
// time of one miss, whether demand or prefetch. Dividing the total by the
// exposed memory-wait cycles yields the achieved MLP.
func (p *CoreProf) OffchipFill(n uint64) {
	if p == nil {
		return
	}
	p.offchip += n
}

// ResetCounts zeroes every accumulated counter while keeping the context
// tree, interned frames and the live stack, so instrumented engines stay
// balanced across a mid-run reset (it mirrors Core.ResetStats).
func (p *CoreProf) ResetCounts() {
	if p == nil {
		return
	}
	for i := range p.counts {
		p.counts[i] = [NumCats]uint64{}
	}
	p.hide = [NumCats]uint64{}
	p.expose = [NumCats]uint64{}
	p.offchip = 0
}

// TotalCycles is the sum of every charge across all contexts and categories;
// with the profiler attached for a whole run it equals the core's cycle
// count exactly.
func (p *CoreProf) TotalCycles() uint64 {
	if p == nil {
		return 0
	}
	var sum uint64
	for i := range p.counts {
		for c := 0; c < NumCats; c++ {
			sum += p.counts[i][c]
		}
	}
	return sum
}

// CatCycles is the total charged to one category across all contexts.
func (p *CoreProf) CatCycles(cat Cat) uint64 {
	if p == nil {
		return 0
	}
	var sum uint64
	for i := range p.counts {
		sum += p.counts[i][cat]
	}
	return sum
}

// SumUnder is the total of category cat charged at or below any context
// whose path contains a frame with the given label (e.g. GP's "admit"
// batch-gather frame). Unknown labels return zero.
func (p *CoreProf) SumUnder(label string, cat Cat) uint64 {
	if p == nil {
		return 0
	}
	f, ok := p.frameIDs[label]
	if !ok {
		return 0
	}
	var sum uint64
	for i := range p.nodes {
		for n := int32(i); n > 0; n = p.nodes[n].parent {
			if p.nodes[n].frame == f {
				sum += p.counts[i][cat]
				break
			}
		}
	}
	return sum
}

// Merge folds another profiler's counters into p, matching contexts by
// frame-label path. Serving uses it to aggregate per-worker profiles.
func (p *CoreProf) Merge(o *CoreProf) {
	if p == nil || o == nil {
		return
	}
	idMap := make([]int32, len(o.nodes))
	for i := 1; i < len(o.nodes); i++ { // parents precede children
		on := o.nodes[i]
		f := p.intern(o.frames[on.frame])
		key := childKey{parent: idMap[on.parent], frame: f}
		id, ok := p.children[key]
		if !ok {
			id = int32(len(p.nodes))
			p.nodes = append(p.nodes, node{parent: key.parent, frame: f})
			p.counts = append(p.counts, [NumCats]uint64{})
			p.children[key] = id
		}
		idMap[i] = id
	}
	for i := range o.nodes {
		for c := 0; c < NumCats; c++ {
			p.counts[idMap[i]][c] += o.counts[i][c]
		}
	}
	for c := 0; c < NumCats; c++ {
		p.hide[c] += o.hide[c]
		p.expose[c] += o.expose[c]
	}
	p.offchip += o.offchip
}

// Profile is the root registry of per-core profilers, mirroring obs.Trace:
// nil is the disabled state, Core registers (or re-uses) a named per-core
// profiler, and registration takes a mutex while recording itself is
// core-local and lock-free.
type Profile struct {
	mu    sync.Mutex
	cores []*CoreProf
}

// NewProfile creates an empty profile registry.
func NewProfile() *Profile {
	return &Profile{}
}

// Core registers (or re-uses) the named per-core profiler; a nil receiver
// returns nil, whose methods all no-op — callers thread the result
// unconditionally.
func (pr *Profile) Core(name string) *CoreProf {
	if pr == nil {
		return nil
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	for _, c := range pr.cores {
		if c.name == name {
			return c
		}
	}
	c := NewCoreProf(name)
	pr.cores = append(pr.cores, c)
	return c
}

// Cores snapshots the registered per-core profilers in registration order.
func (pr *Profile) Cores() []*CoreProf {
	if pr == nil {
		return nil
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return append([]*CoreProf(nil), pr.cores...)
}

// Merged returns a fresh profiler holding the sum of every registered core,
// matching contexts by label path — the sharded-serving aggregate view.
func (pr *Profile) Merged(name string) *CoreProf {
	m := NewCoreProf(name)
	if pr == nil {
		return m
	}
	for _, c := range pr.Cores() {
		m.Merge(c)
	}
	return m
}

// TotalCycles sums every registered core's attributed cycles.
func (pr *Profile) TotalCycles() uint64 {
	var sum uint64
	for _, c := range pr.Cores() {
		sum += c.TotalCycles()
	}
	return sum
}
