package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// profileLayers are the buckets a CPU sample can land in: the repo's
// packages, plus two for samples with no frame of this module on the stack.
var profileLayers = []string{
	"block", "storage", "raid", "bitmap", "fs", "aggregate", "nvlog", "sim",
	"waffinity", "core", "cp", "snap", "bcache", "obs", "facade", "workload",
	"runtime_gc", "runtime_other",
}

// packageLayer maps a package of this module to its layer. Packages with no
// bucket of their own fold into the layer that calls them.
var packageLayer = map[string]string{
	"wafl":                      "facade",
	"wafl/harness":              "workload",
	"wafl/workload":             "workload",
	"wafl/internal/clone":       "aggregate",
	"wafl/internal/counters":    "aggregate",
	"wafl/internal/faultinject": "storage",
}

// funcPackage returns the import path of a symbol as runtime/pprof names
// it, e.g. "wafl/internal/block" for "wafl/internal/block.Clone" and "wafl"
// for "wafl.(*ClientCtx).WriteTag".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// frameLayer returns the layer of a module function, or "" for a function
// outside the module (runtime, standard library, bench itself).
func frameLayer(fn string) string {
	pkg := funcPackage(fn)
	if l, ok := packageLayer[pkg]; ok {
		return l
	}
	if rest, ok := strings.CutPrefix(pkg, "wafl/internal/"); ok {
		for _, l := range profileLayers {
			if l == rest {
				return l
			}
		}
		return "facade"
	}
	return ""
}

// attributeStack applies the attribution rule to one sample's stack, given
// innermost frame first: the sample belongs to the innermost frame whose
// package is part of this module, so runtime.memmove under block.Clone
// counts for block and mallocgc under fs.File.WriteBlock for fs. A stack
// with no module frame is a GC worker if it runs the background mark or
// sweep loops, and other runtime work (scheduler, timers, signal handling)
// if not.
func attributeStack(frames []string) string {
	for _, fn := range frames {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	for _, fn := range frames {
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") {
			return "runtime_gc"
		}
	}
	return "runtime_other"
}

// profileShares reads a runtime/pprof CPU profile and returns each layer's
// share of the CPU samples and the sample count. The shares sum to 1 unless
// the window was too short to be sampled at all (quick mode), when all are 0.
func profileShares(path string) (map[string]float64, int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	stacks, err := parseProfile(data)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, st := range stacks {
		counts[attributeStack(st.frames)] += st.count
		total += st.count
	}
	shares := map[string]float64{}
	for _, l := range profileLayers {
		shares[l] = ratio(float64(counts[l]), float64(total))
	}
	return shares, total, nil
}

// stack is one profile sample: function names innermost first, and the
// sample's first value (runtime/pprof CPU profiles: samples/count).
type stack struct {
	frames []string
	count  int64
}

// The rest of this file is a minimal reader for the four messages of
// pprof's profile.proto that attribution needs (Profile, Sample, Location
// with its Lines, Function), so the benchmark needs no dependency and no
// `go tool pprof` subprocess.

var errTruncated = errors.New("truncated protobuf")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// protoField is one decoded field: a varint value or a length-delimited
// payload.
type protoField struct {
	num   int
	wire  int // 0 varint, 2 length-delimited; fixed-width fields are skipped
	value uint64
	bytes []byte
}

// readFields decodes the top-level fields of one message.
func readFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch key & 7 {
		case 0:
			if f.value, b, err = readVarint(b); err != nil {
				return nil, err
			}
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
		case 2:
			n, rest, err := readVarint(b)
			if err != nil {
				return nil, err
			}
			if n > uint64(len(rest)) {
				return nil, errTruncated
			}
			f.bytes, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

// repeatedVarints collects a repeated integer field, packed or not.
func repeatedVarints(fields []protoField, num int) ([]uint64, error) {
	var out []uint64
	for _, f := range fields {
		if f.num != num {
			continue
		}
		if f.wire != 2 {
			out = append(out, f.value)
			continue
		}
		for b := f.bytes; len(b) > 0; {
			v, rest, err := readVarint(b)
			if err != nil {
				return nil, err
			}
			out, b = append(out, v), rest
		}
	}
	return out, nil
}

func parseProfile(data []byte) ([]stack, error) {
	top, err := readFields(data)
	if err != nil {
		return nil, err
	}
	var strtab []string
	funcName := map[uint64]uint64{}   // function id -> string index of name
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var samples []rawSample
	for _, f := range top {
		if f.wire != 2 {
			continue
		}
		switch f.num {
		case 2: // Sample{location_id = 1, value = 2}
			sf, err := readFields(f.bytes)
			if err != nil {
				return nil, err
			}
			locs, err := repeatedVarints(sf, 1)
			if err != nil {
				return nil, err
			}
			vals, err := repeatedVarints(sf, 2)
			if err != nil {
				return nil, err
			}
			if len(vals) == 0 {
				continue
			}
			samples = append(samples, rawSample{locs: locs, count: int64(vals[0])})
		case 4: // Location{id = 1, line = 4 {function_id = 1}}
			lf, err := readFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, x := range lf {
				switch {
				case x.num == 1 && x.wire == 0:
					id = x.value
				case x.num == 4 && x.wire == 2:
					line, err := readFields(x.bytes)
					if err != nil {
						return nil, err
					}
					for _, y := range line {
						if y.num == 1 {
							// Lines are ordered innermost inlined callee first.
							fns = append(fns, y.value)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function{id = 1, name = 2}
			ff, err := readFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, x := range ff {
				switch x.num {
				case 1:
					id = x.value
				case 2:
					name = x.value
				}
			}
			funcName[id] = name
		case 6: // string_table
			strtab = append(strtab, string(f.bytes))
		}
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strtab)) {
					st.frames = append(st.frames, strtab[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}
