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

// layers are the packages the CPU profile is attributed to, in report order.
// hip and cuda are the backend's two driver flavours and count as backend.
var layers = []string{"codeobj", "miopen", "graphx", "core", "backend", "sim", "device", "metrics",
	"serving", "trace", "httpapi", "experiments", "runtime", "other"}

// layerOf maps a fully qualified function name to its layer.
func layerOf(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, "pask/internal/")
	if !ok {
		if strings.HasPrefix(fn, "pask.") || strings.HasPrefix(fn, "pask/") {
			return "other", true
		}
		return "", false
	}
	pkg := rest
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	switch pkg {
	case "hip", "cuda":
		return "backend", true
	}
	for _, l := range layers {
		if l == pkg {
			return l, true
		}
	}
	return "other", true
}

// sampleLayer attributes one sample, given its stack leaf first: the layer
// of the innermost pask frame, else runtime for a runtime leaf (the garbage
// collector, the scheduler), else other.
func sampleLayer(stack []string) string {
	for _, fn := range stack {
		if l, ok := layerOf(fn); ok {
			return l
		}
	}
	if len(stack) > 0 && strings.HasPrefix(stack[0], "runtime.") {
		return "runtime"
	}
	return "other"
}

// stage is a call into the program whose cumulative CPU share a traced run
// reports: a sample counts toward it when any frame of its stack is one of
// funcs, a closure inside one, or, for a package path, any function of it.
type stage struct {
	name  string
	funcs []string
}

// stages are the calls the paper's breakdown and the ROADMAP's items are
// about: set-up (zoo graph building, compilation, code-object building) and
// the steps of a cold start (process creation, resident kernels, parsing
// loaded objects, the pipeline of each scheme, the breakdown of its spans).
var stages = []stage{
	{"onnx_build", []string{"pask/internal/onnx/zoo"}},
	{"graphx_compile", []string{"pask/internal/graphx.Compile"}},
	{"codeobj_build", []string{"pask/internal/codeobj.Build"}},
	{"experiments_new_process", []string{"pask/internal/experiments.(*ModelSetup).NewProcessIn"}},
	{"miopen_load_residents", []string{"pask/internal/miopen.(*Library).LoadResidents"}},
	{"codeobj_parse", []string{"pask/internal/codeobj.Parse"}},
	{"core_pipeline", []string{"pask/internal/core.RunInterleaved", "pask/internal/core.RunSequentialReuseOpts"}},
	{"graphx_baseline", []string{"pask/internal/graphx.(*Runner).RunBaseline"}},
	{"metrics_breakdown", []string{"pask/internal/metrics.Breakdown"}},
}

// setupStages are the stages a set-up unit consists of.
var setupStages = stages[:3]

func (s stage) matches(fn string) bool {
	for _, f := range s.funcs {
		if fn == f || strings.HasPrefix(fn, f+".") {
			return true
		}
	}
	return false
}

// cpuProfile is a decoded CPU profile: each sample's stack of function
// names, leaf first, and its CPU nanoseconds.
type cpuProfile struct {
	stacks [][]string
	values []float64
	total  float64
}

// readProfile decodes a gzipped pprof CPU profile.
func readProfile(gz []byte) (*cpuProfile, error) {
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
		return nil, err
	}
	out := &cpuProfile{}
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcNames[fid]])
			}
		}
		out.stacks = append(out.stacks, stack)
		out.values = append(out.values, float64(s.value))
		out.total += float64(s.value)
	}
	return out, nil
}

func (p *cpuProfile) share(v float64) float64 {
	if p.total == 0 {
		return 0
	}
	return v / p.total
}

// layerShares returns each layer's share of the sampled CPU time, by the
// sample's innermost pask frame. The layers missing from the profile read 0.
func (p *cpuProfile) layerShares() map[string]float64 {
	by := map[string]float64{}
	for i, stack := range p.stacks {
		by[sampleLayer(stack)] += p.values[i]
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = p.share(by[l])
	}
	return out
}

// cumShare returns the share of the sampled CPU time spent in s and in
// everything it calls.
func (p *cpuProfile) cumShare(s stage) float64 {
	var v float64
	for i, stack := range p.stacks {
		for _, fn := range stack {
			if s.matches(fn) {
				v += p.values[i]
				break
			}
		}
	}
	return p.share(v)
}

// profile holds the parts of profile.proto the attribution needs.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value: CPU nanoseconds for a CPU profile
}

var errProto = errors.New("cpu profile: malformed protobuf")

// pbField is one decoded protobuf field: a varint or a length-delimited body.
type pbField struct {
	num  int
	v    uint64
	body []byte
	wire int
}

func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// pbInts reads a repeated integer field, packed or not.
func pbInts(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.body; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	for _, f := range top {
		switch f.num {
		case 2: // Sample
			fs, err := pbFields(f.body)
			if err != nil {
				return nil, err
			}
			var s profSample
			for _, sf := range fs {
				vs, err := pbInts(sf)
				if err != nil {
					return nil, err
				}
				switch sf.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					if len(vs) > 0 {
						s.value = int64(vs[len(vs)-1])
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			fs, err := pbFields(f.body)
			if err != nil {
				return nil, err
			}
			var id uint64
			var funcs []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.v
				case 4: // Line
					ls, err := pbFields(lf.body)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							funcs = append(funcs, l.v)
						}
					}
				}
			}
			p.locFuncs[id] = funcs
		case 5: // Function
			fs, err := pbFields(f.body)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = int64(ff.v)
				}
			}
			p.funcNames[id] = name
		case 6:
			p.strings = append(p.strings, string(f.body))
		}
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}
