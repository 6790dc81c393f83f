package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes: just enough of the schema (samples, locations with their inline
// chains, functions, the string table) to attribute CPU time to layers.
// Field numbers are those of github.com/google/pprof/proto/profile.proto.

// stackSample is one profile sample: function names leaf first (inlined
// callees before the function they were inlined into) and its CPU weight.
type stackSample struct {
	funcs []string
	value int64
}

// protoField is one decoded field of a message: its number and either a
// varint value or a length-delimited payload.
type protoField struct {
	num   int
	varnt uint64
	bytes []byte
}

// protoFields splits one message into its fields.
func protoFields(msg []byte) ([]protoField, error) {
	var out []protoField
	for len(msg) > 0 {
		tag, n := binary.Uvarint(msg)
		if n <= 0 {
			return nil, fmt.Errorf("profile: bad field tag")
		}
		msg = msg[n:]
		f := protoField{num: int(tag >> 3)}
		switch tag & 7 {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return nil, fmt.Errorf("profile: bad varint in field %d", f.num)
			}
			f.varnt, msg = v, msg[n:]
		case 1:
			if len(msg) < 8 {
				return nil, fmt.Errorf("profile: short fixed64 in field %d", f.num)
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return nil, fmt.Errorf("profile: bad length in field %d", f.num)
			}
			f.bytes, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return nil, fmt.Errorf("profile: short fixed32 in field %d", f.num)
			}
			msg = msg[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", tag&7)
		}
		out = append(out, f)
	}
	return out, nil
}

// repeatedVarints reads a repeated integer field that may arrive packed
// (one payload) or as separate varint fields.
func repeatedVarints(dst []uint64, f protoField) []uint64 {
	if f.bytes == nil {
		return append(dst, f.varnt)
	}
	for b := f.bytes; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst
}

// parseProfile decodes a gzipped pprof profile into stack samples weighted
// by the profile's last value type (cpu/nanoseconds for a CPU profile).
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := protoFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{}   // function id -> string index
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	type rawSample struct {
		locs, values []uint64
	}
	var samples []rawSample
	for _, f := range top {
		switch f.num {
		case 2: // Sample{location_id=1, value=2}
			sub, err := protoFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s rawSample
			for _, sf := range sub {
				switch sf.num {
				case 1:
					s.locs = repeatedVarints(s.locs, sf)
				case 2:
					s.values = repeatedVarints(s.values, sf)
				}
			}
			samples = append(samples, s)
		case 4: // Location{id=1, line=4{function_id=1}}
			sub, err := protoFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, sf := range sub {
				switch sf.num {
				case 1:
					id = sf.varnt
				case 4:
					line, err := protoFields(sf.bytes)
					if err != nil {
						return nil, err
					}
					for _, lf := range line {
						if lf.num == 1 {
							fns = append(fns, lf.varnt)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function{id=1, name=2}
			sub, err := protoFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, sf := range sub {
				switch sf.num {
				case 1:
					id = sf.varnt
				case 2:
					name = sf.varnt
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.bytes))
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stackSample{value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// profiledLayers are the simulator packages that get a <layer>.cpu_share
// metric; gcLayer is the collector's own bucket.
var profiledLayers = []string{"sim", "geom", "radio", "core", "node", "energy",
	"coverage", "forward", "connectivity", "checkpoint"}

const gcLayer = "runtime.gc"

// gcFrames mark a stack as garbage-collector work wherever it was
// triggered from (background workers, allocation assists, sweeping).
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkTermination", "runtime.gcMarkDone"}

// layerOfFunc maps "peas/internal/sim.(*Engine).Run" to "sim"; functions
// outside the profiled layers map to "".
func layerOfFunc(name string) string {
	rest, ok := strings.CutPrefix(name, "peas/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	for _, l := range profiledLayers {
		if l == pkg {
			return l
		}
	}
	return ""
}

// layerShares partitions the profile: a sample belongs to the collector if
// any frame is collector work, otherwise to the innermost profiled layer
// on its stack — so the runtime and library time a layer causes (memmove,
// allocation, math) is charged to that layer — and to "other" when no
// layer is on the stack (the benchmark itself, net/http, idle scheduling).
// Shares sum to 1.
func layerShares(samples []stackSample) map[string]float64 {
	weight := map[string]float64{}
	var total float64
	for _, s := range samples {
		layer := "other"
	frames:
		for _, fn := range s.funcs {
			for _, g := range gcFrames {
				if strings.HasPrefix(fn, g) {
					layer = gcLayer
					break frames
				}
			}
		}
		if layer != gcLayer {
			for _, fn := range s.funcs {
				if l := layerOfFunc(fn); l != "" {
					layer = l
					break
				}
			}
		}
		weight[layer] += float64(s.value)
		total += float64(s.value)
	}
	for k := range weight {
		weight[k] = ratio(weight[k], total)
	}
	return weight
}
