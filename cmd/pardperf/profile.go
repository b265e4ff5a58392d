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

// layers are the buckets a CPU profile sample can be charged to: the
// repository's modules, with internal/sim split into the event engine
// and the shard runtime, plus the benchmark itself (bench), samples
// with no repository frame (runtime), and repository packages outside
// this list (other).
var layers = []string{
	"sim.engine", "sim.shard", "cpu", "cache", "dram", "core", "iodev",
	"fabric", "prm", "policy", "telemetry", "metric", "trace", "workload",
	"pard", "runtime", "bench", "other",
}

// layerOf maps one profile frame's function name to its layer; ok is
// false for frames outside the repository.
func layerOf(fn string) (layer string, ok bool) {
	if strings.HasPrefix(fn, "main.") {
		return "bench", true
	}
	rest, ok := strings.CutPrefix(fn, "repro/")
	if !ok {
		return "", false
	}
	// No repository package path contains a dot, so the first one ends
	// the path.
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return "other", true
	}
	pkg, name := rest[:dot], rest[dot+1:]
	if pkg == "pard" {
		return "pard", true
	}
	mod, ok := strings.CutPrefix(pkg, "internal/")
	if !ok {
		return "other", true
	}
	if mod == "sim" {
		for _, recv := range []string{"(*Shard).", "(*ShardGroup).", "Shard.", "ShardGroup."} {
			if strings.HasPrefix(name, recv) {
				return "sim.shard", true
			}
		}
		return "sim.engine", true
	}
	for _, l := range layers {
		if l == mod {
			return l, true
		}
	}
	return "other", true
}

// cpuSplit is a decoded CPU profile charged by layer.
type cpuSplit struct {
	samples int64
	cpuNs   int64            // profiled CPU time
	byLayer map[string]int64 // sample counts
}

// share is layer l's fraction of all samples.
func (c *cpuSplit) share(l string) float64 {
	if c.samples == 0 {
		return 0
	}
	return float64(c.byLayer[l]) / float64(c.samples)
}

// attribute decodes a runtime/pprof CPU profile and charges every
// sample to the leaf-most frame that belongs to the repository (inlined
// frames included); a sample with none goes to runtime.
func attribute(gz []byte) (*cpuSplit, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	split := &cpuSplit{byLayer: map[string]int64{}}
	for _, s := range p.samples {
		layer := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				if l, ok := layerOf(p.funcName(fid)); ok {
					layer = l
					break frames
				}
			}
		}
		n := s.values[p.countIdx]
		split.samples += n
		split.cpuNs += s.values[p.cpuIdx]
		split.byLayer[layer] += n
	}
	return split, nil
}

// profile holds the parts of profile.proto attribution reads.
type profile struct {
	strs      []string
	funcNames map[uint64]int64    // function id -> string index
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	samples   []sample
	countIdx  int // sample value holding the sample count
	cpuIdx    int // sample value holding CPU nanoseconds
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) funcName(id uint64) string {
	i := p.funcNames[id]
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

var errTruncated = errors.New("truncated protobuf")

// decodeProfile parses the gzipped profile.proto that runtime/pprof
// writes; see github.com/google/pprof/proto/profile.proto for the field
// numbers.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{funcNames: map[uint64]int64{}, locFuncs: map[uint64][]uint64{}, countIdx: -1, cpuIdx: -1}
	var sampleTypes [][2]uint64 // (type, unit) string indices
	err = fields(raw, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]uint64
			err := fields(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 || num == 2 {
					t[num-1] = v
				}
				return nil
			})
			sampleTypes = append(sampleTypes, t)
			return err
		case 2: // sample
			var s sample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = repeated(s.locs, wire, v, b)
				case 2:
					var vs []uint64
					vs, err = repeated(nil, wire, v, b)
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, t := range sampleTypes {
		if int(t[0]) >= len(p.strs) {
			return nil, fmt.Errorf("sample type %d names string %d of %d", i, t[0], len(p.strs))
		}
		switch p.strs[t[0]] {
		case "samples":
			p.countIdx = i
		case "cpu":
			p.cpuIdx = i
		}
	}
	if p.countIdx < 0 || p.cpuIdx < 0 {
		return nil, errors.New("not a CPU profile: no samples/cpu sample types")
	}
	for _, s := range p.samples {
		if len(s.values) != len(sampleTypes) {
			return nil, fmt.Errorf("sample has %d values for %d sample types", len(s.values), len(sampleTypes))
		}
	}
	return p, nil
}

// fields calls fn for each field of a protobuf message: v carries
// varint and fixed-width values, b length-delimited ones.
func fields(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeated appends a repeated varint field, which runtime/pprof writes
// packed or one value per field.
func repeated(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errTruncated
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
