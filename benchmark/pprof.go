package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the buckets CPU samples are attributed to, by the package
// of the leaf function: the internal/ modules a request crosses, the
// benchmark and paper harness ("bench"), the Go runtime (allocator and
// collector included), and everything else (net/http, fmt, ...).
var cpuLayers = []string{"sim", "vnet", "netstack", "dispatch", "sal", "bcode", "fs", "strand", "trace", "bench", "runtime", "other"}

// layerOf maps a function's package path to its CPU layer.
func layerOf(pkg string) string {
	switch {
	case pkg == "main" || pkg == "spin/benchmark" || pkg == "spin/internal/bench":
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	if mod, ok := strings.CutPrefix(pkg, "spin/internal/"); ok {
		for _, l := range cpuLayers {
			if mod == l {
				return l
			}
		}
	}
	return "other"
}

// packageOf returns the package path of a Go symbol name such as
// "spin/internal/sim.(*Cluster).next" or "runtime.mallocgc".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold slashes and dots of their own
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuShares decodes a gzipped pprof CPU profile and returns each layer's
// share of the sampled CPU time, by leaf function. The shares sum to 1; a
// profile with no samples is an error.
//
// This is the small part of the pprof format the attribution needs —
// samples, locations, functions and the string table of profile.proto —
// decoded with the standard library alone.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	type sample struct {
		leaf  uint64
		value int64
	}
	var samples []sample
	locFunc := map[uint64]uint64{}  // location id -> leaf function id
	funcName := map[uint64]uint64{} // function id -> string table index
	var strs []string

	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Profile.sample
			var s sample
			first := true
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1: // location_id, leaf first
					ids, err := protoUints(v, b)
					if err == nil && first && len(ids) > 0 {
						s.leaf, first = ids[0], false
					}
					return err
				case 2: // value: the last one is CPU nanoseconds
					vals, err := protoUints(v, b)
					if err == nil && len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Profile.location
			var id, fn uint64
			haveLine := false
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line: the first is the innermost inlined frame
					if haveLine {
						return nil
					}
					haveLine = true
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Profile.function
			var id, name uint64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.leaf]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		shares[layerOf(packageOf(name))] += float64(s.value)
		total += float64(s.value)
	}
	if total == 0 {
		return nil, errors.New("no CPU samples")
	}
	for l := range shares {
		shares[l] /= total
	}
	return shares, nil
}

var errProto = errors.New("malformed protobuf")

// protoFields calls fn for every field of one protobuf message: v holds a
// varint or fixed-width value, b the bytes of a length-delimited one.
func protoFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := protoVarint(msg)
		if n == 0 {
			return errProto
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0: // varint
			if v, n = protoVarint(msg); n == 0 {
				return errProto
			}
			msg = msg[n:]
		case 1: // 64-bit
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2: // length-delimited
			l, n := protoVarint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5: // 32-bit
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// protoUints reads a repeated integer field that arrived either as one
// varint (v, with b nil) or packed into b.
func protoUints(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := protoVarint(b)
		if n == 0 {
			return nil, errProto
		}
		out, b = append(out, x), b[n:]
	}
	return out, nil
}

// protoVarint decodes one base-128 varint, returning 0 bytes read on error.
func protoVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
