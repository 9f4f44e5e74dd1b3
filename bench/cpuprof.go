package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// hostShares folds a gzipped pprof CPU profile into self time per package:
// the percentage of sampled CPU time whose innermost frame lies in each of
// hostSharePackages. The shares sum to 100 when the profile holds samples.
func hostShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	byPkg := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		name := ""
		if fn, ok := p.locLeaf[s.leaf]; ok {
			if si, ok := p.funcName[fn]; ok && si < uint64(len(p.strs)) {
				name = p.strs[si]
			}
		}
		byPkg[packageOf(name)] += float64(s.value)
		total += float64(s.value)
	}
	shares := map[string]float64{}
	for _, pkg := range hostSharePackages {
		shares[pkg] = 100 * ratio(byPkg[pkg], total)
	}
	return shares, nil
}

// packageOf maps a profiled function name to one of hostSharePackages.
func packageOf(fn string) string {
	if fn == "runtime" || strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	rest, ok := strings.CutPrefix(fn, "amac/internal/")
	if !ok {
		return "other"
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
		if rest[i] == '/' { // a sub-package, such as exec/exectest
			return "other"
		}
	}
	for _, p := range hostSharePackages {
		if p == pkg {
			return pkg
		}
	}
	return "other"
}

// profile holds the parts of a pprof profile.proto message that self time
// needs: each sample's innermost location and CPU value, each location's
// innermost function, and the function names.
type profile struct {
	samples  []profSample
	locLeaf  map[uint64]uint64 // location id -> innermost function id
	funcName map[uint64]uint64 // function id -> string table index
	strs     []string
}

type profSample struct {
	leaf  uint64 // innermost location id
	value int64  // last sample value: CPU nanoseconds in a CPU profile
}

var errTruncated = errors.New("truncated protobuf")

// field is one decoded protobuf field: its number, wire type and payload
// (varint value, or bytes for length-delimited fields).
type field struct {
	num   int
	wire  int
	value uint64
	bytes []byte
}

// fields decodes the top level of one protobuf message.
func fields(b []byte) ([]field, error) {
	var out []field
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.value, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			f.value, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			f.value, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("unsupported protobuf wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, packed or not.
func varints(f field) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.value}, nil
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locLeaf: map[uint64]uint64{}, funcName: map[uint64]uint64{}}
	for _, f := range top {
		switch f.num {
		case 2: // Sample
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var locs, vals []uint64
			for _, sf := range sub {
				vs, err := varints(sf)
				if err != nil {
					return nil, err
				}
				switch sf.num {
				case 1:
					locs = append(locs, vs...)
				case 2:
					vals = append(vals, vs...)
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				p.samples = append(p.samples, profSample{leaf: locs[0], value: int64(vals[len(vals)-1])})
			}
		case 4: // Location
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			seenLine := false
			for _, lf := range sub {
				switch {
				case lf.num == 1:
					id = lf.value
				case lf.num == 4 && !seenLine: // the first Line is the innermost
					seenLine = true
					line, err := fields(lf.bytes)
					if err != nil {
						return nil, err
					}
					for _, x := range line {
						if x.num == 1 {
							fn = x.value
						}
					}
				}
			}
			p.locLeaf[id] = fn
		case 5: // Function
			sub, err := fields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range sub {
				switch ff.num {
				case 1:
					id = ff.value
				case 2:
					name = ff.value
				}
			}
			p.funcName[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(f.bytes))
		}
	}
	return p, nil
}
