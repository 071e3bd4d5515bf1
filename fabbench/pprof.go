package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// A minimal reader for the gzip-compressed protocol-buffer profiles that
// runtime/pprof writes: just enough of profile.proto (samples, locations,
// functions, string table) to walk each sample's stack. It keeps the
// benchmark on the standard library; `go tool pprof -traces <binary>
// <profile>` reads the same files by hand.

// profSample is one stack, leaf first, with its CPU nanoseconds.
type profSample struct {
	stack []string
	ns    int64
}

var errProto = errors.New("pprof: malformed profile")

// pbField is one decoded protocol-buffer field: varint fields set v,
// length-delimited fields set b.
type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

func pbVarint(buf []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(buf) && i < 10; i++ {
		v |= uint64(buf[i]&0x7f) << (7 * i)
		if buf[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errProto
}

// pbFields splits a message into its fields.
func pbFields(buf []byte) ([]pbField, error) {
	var out []pbField
	for len(buf) > 0 {
		key, n, err := pbVarint(buf)
		if err != nil {
			return nil, err
		}
		buf = buf[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n, err = pbVarint(buf)
			if err != nil {
				return nil, err
			}
		case 1:
			n = 8
		case 2:
			l, m, err := pbVarint(buf)
			if err != nil || uint64(len(buf)-m) < l {
				return nil, errProto
			}
			f.b, n = buf[m:m+int(l)], m+int(l)
		case 5:
			n = 4
		default:
			return nil, errProto
		}
		if n > len(buf) {
			return nil, errProto
		}
		buf = buf[n:]
		out = append(out, f)
	}
	return out, nil
}

// pbUints reads a repeated integer field in either packed or plain form.
func pbUints(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	buf := f.b
	for len(buf) > 0 {
		v, n, err := pbVarint(buf)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		buf = buf[n:]
	}
	return out, nil
}

// parseProfile decodes a CPU profile into leaf-first stacks of function
// names, expanding inlined frames.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFuncs := map[uint64][]uint64{}
	type rawSample struct{ locs, vals []uint64 }
	var samples []rawSample
	for _, f := range top {
		switch f.num {
		case 2: // sample
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var s rawSample
			for _, g := range sub {
				vs, err := pbUints(g)
				if err != nil {
					return nil, err
				}
				switch g.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					s.vals = append(s.vals, vs...)
				}
			}
			samples = append(samples, s)
		case 4: // location
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line: the first entry is the innermost inlined call
					line, err := pbFields(g.b)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.b))
		}
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ps := profSample{ns: int64(s.vals[len(s.vals)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// moduleOf names the layer a stack is charged to: the innermost
// dumbnet/internal/<module> frame, else "bench" for the benchmark's own
// code, else "runtime" (GC workers, the scheduler, the profiler itself).
func moduleOf(stack []string) string {
	const prefix = "dumbnet/internal/"
	bench := false
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, prefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(fn, "main.") {
			bench = true
		}
	}
	if bench {
		return "bench"
	}
	return "runtime"
}
