// Package relation defines the columnar tuples and workload generators used
// by every experiment in the AMAC reproduction.
//
// Following the paper's methodology (Section 4), all workloads use 16-byte
// tuples consisting of an 8-byte integer key and an 8-byte integer payload,
// representative of in-memory columnar storage. Generators cover:
//
//   - uniform foreign-key join relations (dense unique keys),
//   - Zipf-skewed join relations with configurable skew on the build and/or
//     probe side ([Z_R, Z_S] in the paper's notation),
//   - group-by inputs where every key appears a fixed number of times or
//     follows a Zipf distribution,
//   - unique-key inputs for tree and skip list workloads.
//
// All generation is deterministic given the seed.
package relation

import (
	"fmt"
	"math"

	"amac/internal/xrand"
)

// Tuple is a 16-byte columnar tuple: 8-byte key, 8-byte payload.
type Tuple struct {
	Key     uint64
	Payload uint64
}

// TupleBytes is the in-memory size of a tuple, used when computing working
// set sizes and when laying tuples out in the arena.
const TupleBytes = 16

// Relation is an in-memory column of tuples.
type Relation struct {
	// Name labels the relation in reports ("R", "S", ...).
	Name   string
	Tuples []Tuple
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Bytes returns the relation's size in bytes.
func (r *Relation) Bytes() int { return len(r.Tuples) * TupleBytes }

// minKey returns the smallest key present, or 0 for an empty relation.
func (r *Relation) minKey() uint64 {
	if len(r.Tuples) == 0 {
		return 0
	}
	min := r.Tuples[0].Key
	for _, t := range r.Tuples[1:] {
		if t.Key < min {
			min = t.Key
		}
	}
	return min
}

// maxKey returns the largest key present, or 0 for an empty relation.
func (r *Relation) maxKey() uint64 {
	max := uint64(0)
	for _, t := range r.Tuples {
		if t.Key > max {
			max = t.Key
		}
	}
	return max
}

// distinctKeys returns the number of distinct key values.
func (r *Relation) distinctKeys() int {
	seen := make(map[uint64]struct{}, len(r.Tuples))
	for _, t := range r.Tuples {
		seen[t.Key] = struct{}{}
	}
	return len(seen)
}

// JoinSpec describes a hash-join workload: a build relation R and a probe
// relation S over the same key domain.
type JoinSpec struct {
	// BuildSize and ProbeSize are tuple counts (the paper's |R| and |S|).
	BuildSize int
	ProbeSize int
	// ZipfBuild and ZipfProbe are the Zipf exponents for the R and S keys
	// (the paper's [Z_R, Z_S]); zero means uniform. With both zero and
	// equal sizes the relations form a dense unique foreign-key pair.
	ZipfBuild float64
	ZipfProbe float64
	// Seed makes generation deterministic.
	Seed uint64
}

// Validate reports whether the specification is usable.
func (s JoinSpec) Validate() error {
	if s.BuildSize <= 0 || s.ProbeSize <= 0 {
		return fmt.Errorf("relation: join spec needs positive sizes, got |R|=%d |S|=%d", s.BuildSize, s.ProbeSize)
	}
	if err := checkZipf(s.ZipfBuild); err != nil {
		return err
	}
	return checkZipf(s.ZipfProbe)
}

// String renders the spec in the paper's notation.
func (s JoinSpec) String() string {
	return fmt.Sprintf("|R|=%d |S|=%d [Z_R=%.2f, Z_S=%.2f]", s.BuildSize, s.ProbeSize, s.ZipfBuild, s.ZipfProbe)
}

// BuildJoin generates the build relation R and probe relation S for a hash
// join following the spec. Key domain is [1, BuildSize]; S keys always fall
// inside R's key range (the foreign-key restriction of Section 4). Skewed
// key popularity is mapped through a random permutation of the domain so
// that hot keys are not numerically adjacent, which would otherwise give
// them artificial cache locality.
func BuildJoin(spec JoinSpec) (build, probe *Relation, err error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	rng := xrand.New(spec.Seed)
	domain := uint64(spec.BuildSize)

	// A permutation of the key domain; position i holds the key assigned
	// popularity rank i under the Zipf distributions.
	rank := make([]uint64, domain)
	for i := range rank {
		rank[i] = uint64(i) + 1
	}
	rng.Shuffle(len(rank), func(i, j int) { rank[i], rank[j] = rank[j], rank[i] })

	build = &Relation{Name: "R", Tuples: make([]Tuple, spec.BuildSize)}
	if spec.ZipfBuild == 0 {
		// Dense unique keys: every domain value appears exactly once.
		for i := range build.Tuples {
			build.Tuples[i] = Tuple{Key: rank[i], Payload: uint64(i) + 1}
		}
	} else {
		z := xrand.NewZipf(rng, spec.ZipfBuild, domain)
		for i := range build.Tuples {
			build.Tuples[i] = Tuple{Key: rank[z.Next()], Payload: uint64(i) + 1}
		}
	}

	probe = &Relation{Name: "S", Tuples: make([]Tuple, spec.ProbeSize)}
	const probePayloadBase = 1 << 40 // keep probe payloads disjoint from build payloads
	switch {
	case spec.ZipfProbe > 0:
		z := xrand.NewZipf(rng, spec.ZipfProbe, domain)
		for i := range probe.Tuples {
			probe.Tuples[i] = Tuple{Key: rank[z.Next()], Payload: probePayloadBase + uint64(i)}
		}
	case spec.ZipfBuild == 0 && spec.ProbeSize == spec.BuildSize:
		// Unique foreign-key join: S contains each R key exactly once, in
		// random order.
		perm := rng.Perm(spec.BuildSize)
		for i := range probe.Tuples {
			probe.Tuples[i] = Tuple{Key: rank[perm[i]], Payload: probePayloadBase + uint64(i)}
		}
	default:
		for i := range probe.Tuples {
			probe.Tuples[i] = Tuple{Key: rank[rng.Uint64n(domain)], Payload: probePayloadBase + uint64(i)}
		}
	}
	return build, probe, nil
}

// GroupBySpec describes a group-by workload.
type GroupBySpec struct {
	// Size is the number of input tuples.
	Size int
	// Repeats is how many times each distinct key appears when the keys are
	// uniform (the paper uses three).
	Repeats int
	// Zipf is the key skew; zero means uniform with exactly Repeats
	// occurrences per key.
	Zipf float64
	Seed uint64
}

// Validate reports whether the specification is usable.
func (s GroupBySpec) Validate() error {
	if s.Size <= 0 {
		return fmt.Errorf("relation: group-by spec needs a positive size")
	}
	if s.Repeats <= 0 {
		return fmt.Errorf("relation: group-by spec needs positive repeats")
	}
	return checkZipf(s.Zipf)
}

// checkZipf rejects a Zipf exponent the sampler cannot draw from: a
// negative one, NaN or an infinity.
func checkZipf(theta float64) error {
	if theta < 0 || math.IsNaN(theta) || math.IsInf(theta, 0) {
		return fmt.Errorf("relation: invalid Zipf factor %v", theta)
	}
	return nil
}

// BuildGroupBy generates a group-by input relation. With Zipf == 0 the
// relation contains Size/Repeats distinct keys, each appearing exactly
// Repeats times, in random order; with skew, keys are drawn from a Zipf
// distribution over the same domain. Payloads are distinct values so that
// aggregate results are sensitive to any lost or duplicated tuple.
func BuildGroupBy(spec GroupBySpec) (*Relation, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(spec.Seed)
	groups := spec.Size / spec.Repeats
	if groups == 0 {
		groups = 1
	}
	domain := uint64(groups)

	rank := make([]uint64, domain)
	for i := range rank {
		rank[i] = uint64(i) + 1
	}
	rng.Shuffle(len(rank), func(i, j int) { rank[i], rank[j] = rank[j], rank[i] })

	rel := &Relation{Name: "G", Tuples: make([]Tuple, spec.Size)}
	if spec.Zipf == 0 {
		for i := range rel.Tuples {
			rel.Tuples[i].Key = rank[uint64(i)%domain]
		}
		rng.Shuffle(len(rel.Tuples), func(i, j int) {
			rel.Tuples[i].Key, rel.Tuples[j].Key = rel.Tuples[j].Key, rel.Tuples[i].Key
		})
	} else {
		z := xrand.NewZipf(rng, spec.Zipf, domain)
		for i := range rel.Tuples {
			rel.Tuples[i].Key = rank[z.Next()]
		}
	}
	for i := range rel.Tuples {
		rel.Tuples[i].Payload = uint64(i) + 1
	}
	return rel, nil
}

// BuildIndexWorkload generates the build and probe relations for the tree
// and skip list workloads: n unique, uniformly distributed keys to build the
// index from, and a probe relation that is a random permutation of the same
// keys, so every lookup finds exactly one match (the paper's index-join
// scenario).
func BuildIndexWorkload(n int, seed uint64) (build, probe *Relation, err error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("relation: index workload needs a positive size, got %d", n)
	}
	rng := xrand.New(seed)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) + 1
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	build = &Relation{Name: "I", Tuples: make([]Tuple, n)}
	for i, k := range keys {
		build.Tuples[i] = Tuple{Key: k, Payload: uint64(i) + 1}
	}

	perm := rng.Perm(n)
	probe = &Relation{Name: "Q", Tuples: make([]Tuple, n)}
	for i, p := range perm {
		probe.Tuples[i] = Tuple{Key: build.Tuples[p].Key, Payload: 1<<40 + uint64(i)}
	}
	return build, probe, nil
}
