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

// The traced run's CPU profile is split into cpuGroups by decoding the
// gzipped profile.proto that runtime/pprof writes. Only the fields the
// split needs are read (samples, locations, functions, the string
// table), which keeps the benchmark free of any module beyond the
// standard library.

// cpuGroups are the cpu.<group>.pct metrics: one per simulator layer,
// plus the Go scheduler, the garbage collector and everything else.
var cpuGroups = []string{
	"sim", "simos", "fs", "cache", "vm", "mem", "disk", "core", "workload",
	"telemetry", "audit", "experiments", "runtime.sched", "runtime.gc", "other",
}

// layerPkgs maps a package under graybox/internal/ to its group; core/*
// (the ICLs and the probe layer) is matched by prefix.
var layerPkgs = map[string]string{
	"sim": "sim", "simos": "simos", "fs": "fs", "cache": "cache", "vm": "vm",
	"mem": "mem", "disk": "disk", "workload": "workload", "telemetry": "telemetry",
	"audit": "audit", "experiments": "experiments",
}

// Runtime functions that mark a sample as goroutine scheduling: channel
// handoff, parking and waking, and the scheduler loop itself.
var schedFuncs = map[string]bool{
	"chansend": true, "chansend1": true, "chanrecv": true, "chanrecv1": true, "chanrecv2": true,
	"selectgo": true, "gopark": true, "goparkunlock": true, "goready": true, "ready": true,
	"park_m": true, "schedule": true, "findRunnable": true, "wakep": true, "startm": true,
	"stopm": true, "handoffp": true, "mcall": true, "gosched_m": true, "goschedImpl": true,
	"execute": true, "newproc": true, "newproc1": true, "goexit0": true, "goexit1": true,
	"gogo": true, "sysmon": true,
}

// Substrings that mark a runtime function as allocation or collection.
var gcMarkers = []string{
	"gc", "malloc", "sweep", "scanobject", "scanblock", "scanstack", "greyobject",
	"markroot", "wbBuf", "scavenge", "mheap", "mcache", "mcentral", "bulkBarrier",
	"heapBits", "nextFreeFast",
}

// groupOf attributes one sample, given its stack from the leaf frame
// outwards. The first frame in a simulator package decides; runtime
// frames on the way decide first when they are scheduling or GC work;
// other standard-library frames are looked through to their caller; a
// frame of the benchmark itself (package main) counts as other.
func groupOf(stack []string) string {
	for _, fn := range stack {
		pkg, name := splitFunc(fn)
		switch {
		case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/internal/"):
			if schedFuncs[name] {
				return "runtime.sched"
			}
			for _, m := range gcMarkers {
				if strings.Contains(name, m) {
					return "runtime.gc"
				}
			}
		case strings.HasPrefix(pkg, "graybox/internal/"):
			layer := strings.TrimPrefix(pkg, "graybox/internal/")
			if strings.HasPrefix(layer, "core/") {
				return "core"
			}
			if g, ok := layerPkgs[layer]; ok {
				return g
			}
			return "other"
		case pkg == "main":
			return "other"
		}
	}
	return "other"
}

// splitFunc splits a symbol such as "graybox/internal/sim.(*Engine).step"
// into its package path and the rest. Type arguments in brackets may
// themselves contain paths, so the search stops at the first '['.
func splitFunc(fn string) (pkg, name string) {
	head := fn
	if i := strings.IndexByte(head, '['); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return fn, ""
	}
	cut := slash + 1 + dot
	name = fn[cut+1:]
	if i := strings.IndexByte(name, '.'); i >= 0 && !strings.HasPrefix(name, "(") {
		name = name[:i] // closures: "Spawn.func1" -> "Spawn"
	}
	return fn[:cut], name
}

// cpuShares decodes gzipped CPU profiles and returns each group's share
// of the sampled CPU time in percent.
func cpuShares(profiles [][]byte) (map[string]float64, error) {
	byGroup := map[string]int64{}
	var total int64
	for _, raw := range profiles {
		p, err := decodeProfile(raw)
		if err != nil {
			return nil, err
		}
		for _, s := range p.samples {
			var stack []string
			for _, loc := range s.locs {
				for _, fid := range p.locs[loc] {
					if si := p.funcs[fid]; si >= 0 && int(si) < len(p.strings) {
						stack = append(stack, p.strings[si])
					}
				}
			}
			byGroup[groupOf(stack)] += s.value
			total += s.value
		}
	}
	shares := make(map[string]float64, len(cpuGroups))
	for _, g := range cpuGroups {
		if total > 0 {
			shares[g] = 100 * float64(byGroup[g]) / float64(total)
		} else {
			shares[g] = 0
		}
	}
	return shares, nil
}

type profSample struct {
	locs  []uint64
	value int64 // the last sample value: CPU nanoseconds
}

type profile struct {
	strings []string
	funcs   map[uint64]int64    // function id -> name's string-table index
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	samples []profSample
}

func decodeProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{funcs: map[uint64]int64{}, locs: map[uint64][]uint64{}}
	err = eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s profSample
			var values []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					return appendVarints(&values, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = int64(values[len(values)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fids []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locs[id] = fids
		case 5: // Function
			var id uint64
			name := int64(-1)
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcs[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b != nil) or not.
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
