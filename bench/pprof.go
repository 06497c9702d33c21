package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile is a gzipped protobuf (perftools.profiles.Profile). Booking
// samples to packages needs four of its fields, so this file reads just
// those rather than adding a module dependency:
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (leaf first), 2 value (value[0] = sample count)
//	Location: 1 id, 4 line (innermost inlined call first)
//	Line:     1 function_id
//	Function: 1 id, 2 name (index into string_table)

// pbField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type pbField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

var errTruncated = errors.New("pprof: truncated protobuf")

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// pbFields walks one message, calling fn for every field.
func pbFields(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, rest, err := pbVarint(b)
		if err != nil {
			return err
		}
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.val, rest, err = pbVarint(rest)
			if err != nil {
				return err
			}
		case 1:
			if len(rest) < 8 {
				return errTruncated
			}
			rest = rest[8:]
		case 2:
			var n uint64
			n, rest, err = pbVarint(rest)
			if err != nil {
				return err
			}
			if n > uint64(len(rest)) {
				return errTruncated
			}
			f.data, rest = rest[:n], rest[n:]
		case 5:
			if len(rest) < 4 {
				return errTruncated
			}
			rest = rest[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// pbUints returns a repeated integer field's values, packed or not.
func pbUints(f pbField, into []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(into, f.val), nil
	}
	b := f.data
	for len(b) > 0 {
		v, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		into, b = append(into, v), rest
	}
	return into, nil
}

// cpuSample is one stack of the profile: function names leaf first, and how
// many times the profiler saw it.
type cpuSample struct {
	stack []string
	count int64
}

// parseCPUProfile decodes the samples of a gzipped pprof CPU profile.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string index
		strs     []string
	)
	err = pbFields(raw, func(f pbField) error {
		switch f.num {
		case 2:
			var s rawSample
			var vals []uint64
			err := pbFields(f.data, func(sf pbField) (err error) {
				switch sf.num {
				case 1:
					s.locs, err = pbUints(sf, s.locs)
				case 2:
					vals, err = pbUints(sf, vals)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := pbFields(f.data, func(lf pbField) error {
				switch lf.num {
				case 1:
					id = lf.val
				case 4:
					return pbFields(lf.data, func(line pbField) error {
						if line.num == 1 {
							fns = append(fns, line.val)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5:
			var id, name uint64
			err := pbFields(f.data, func(ff pbField) error {
				switch ff.num {
				case 1:
					id = ff.val
				case 2:
					name = ff.val
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					cs.stack = append(cs.stack, strs[idx])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// funcPackage returns the import path of a symbol name as the Go linker
// writes it: everything before the first dot after the last slash.
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// runtimeLeaf reports whether a leaf frame belongs to the Go runtime: the
// runtime package itself, its internal helpers, or one of its assembly
// routines (aeshashbody, memeqbody), which carry no package at all.
func runtimeLeaf(name string) bool {
	pkg := funcPackage(name)
	return pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "internal/bytealg" || !strings.Contains(name, ".")
}

// cpuBucket books one sample to a layer: the package of its leaf frame for
// the simulator's own packages, and for a leaf inside the Go runtime,
// runtime_gc when the collector or the allocator is anywhere on the stack.
func cpuBucket(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if layer, ok := strings.CutPrefix(funcPackage(stack[0]), "repro/internal/"); ok {
		for _, b := range cpuBuckets {
			if b == layer {
				return b
			}
		}
		return "other"
	}
	if !runtimeLeaf(stack[0]) {
		return "other"
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.mallocgc" ||
			fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
			return "runtime_gc"
		}
	}
	return "runtime_other"
}

// cpuShares returns each bucket's share of the profile's samples and the
// sample count.
func cpuShares(samples []cpuSample) (map[string]float64, int64) {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		counts[cpuBucket(s.stack)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		if total > 0 {
			shares[b] = float64(counts[b]) / float64(total)
		}
	}
	return shares, total
}
