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

// layers are the buckets CPU-profile samples are charged to: one per
// simulator module, the simulator engine split by role, and the Go
// runtime's collector. "other" takes scheduler, profiler and benchmark
// frames that have no graphmem caller.
var layers = []string{
	"cpu", "cache", "core", "tlb", "dram", "coherence", "prefetch",
	"kernels", "trace", "graph",
	"sim.walk", "sim.serial_mc", "sim.weave", "sim.warm",
	"sample", "store", "harness", "runtime.gc", "other",
}

const modulePrefix = "graphmem/internal/"

// gcFrames are runtime function-name prefixes that belong to allocation
// or garbage collection. A sample whose stack reaches one of these
// before any graphmem frame is charged to runtime.gc.
var gcFrames = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
	"runtime.growslice", "runtime.makemap", "runtime.newarray",
	"runtime.gc", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
	"runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
	"runtime.greyobject", "runtime.markroot", "runtime.findObject",
	"runtime.bgsweep", "runtime.sweepone", "runtime.(*sweepLocked)",
	"runtime.bgscavenge", "runtime.(*scavengerState)",
	"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)",
	"runtime.(*mspan)", "runtime.wbBuf", "runtime.bulkBarrier",
	"runtime.gcWriteBarrier", "runtime.wbMove",
}

// layerOf maps one stack frame to its layer, or "" when the frame is
// neither a graphmem function nor an allocation/GC frame (standard
// library, runtime plumbing, this benchmark), so the caller keeps
// walking towards the root.
func layerOf(fn, file string) string {
	if strings.HasPrefix(fn, "runtime.") {
		for _, p := range gcFrames {
			if strings.HasPrefix(fn, p) {
				return "runtime.gc"
			}
		}
		return ""
	}
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	rest := fn[len(modulePrefix):]
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return "other"
	}
	pkg, name := rest[:dot], rest[dot+1:]
	if pkg == "sim" {
		return simLayer(name, file)
	}
	switch pkg {
	case "cpu", "cache", "core", "tlb", "dram", "coherence", "prefetch",
		"kernels", "trace", "graph", "sample", "store", "harness":
		return pkg
	}
	return "other"
}

// simLayer splits internal/sim by role: bound–weave (bw*/weave
// functions and boundweave.go), the serial interleaver (mc* functions
// and multicore.go), functional warming (warm* functions and warm.go),
// and the single hierarchy walk everything else belongs to.
func simLayer(name, file string) string {
	// Strip a method receiver: "(*coreCtx).warmObserve" -> "warmObserve".
	base := name
	if i := strings.LastIndex(base, ")."); i >= 0 {
		base = base[i+2:]
	}
	recv := ""
	if strings.HasPrefix(name, "(") {
		recv = strings.TrimPrefix(strings.TrimPrefix(name[:strings.IndexByte(name, ')')], "("), "*")
	}
	lower := strings.ToLower(base)
	switch {
	case strings.HasPrefix(base, "bw") || strings.HasPrefix(recv, "bw") ||
		strings.Contains(lower, "weave"):
		return "sim.weave"
	case strings.HasPrefix(base, "mc") || strings.HasPrefix(recv, "mc"):
		return "sim.serial_mc"
	case strings.HasPrefix(base, "warm") || strings.HasPrefix(recv, "warm"):
		return "sim.warm"
	}
	switch {
	case strings.HasSuffix(file, "/boundweave.go"):
		return "sim.weave"
	case strings.HasSuffix(file, "/multicore.go"):
		return "sim.serial_mc"
	case strings.HasSuffix(file, "/warm.go"):
		return "sim.warm"
	}
	return "sim.walk"
}

// frame is one (possibly inlined) function on a sample's stack.
type frame struct{ fn, file string }

// attribute charges a stack (leaf first) to the first frame that has a
// layer: standard-library and benchmark frames go to their nearest
// graphmem caller, allocation and GC frames to runtime.gc.
func attribute(stack []frame) string {
	for _, f := range stack {
		if l := layerOf(f.fn, f.file); l != "" {
			return l
		}
	}
	return "other"
}

// profileShares decodes a gzipped pprof CPU profile and returns the
// sample count charged to each layer and the total.
func profileShares(raw []byte) (map[string]int64, int64, error) {
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		var stack []frame
		for _, id := range s.locs {
			stack = append(stack, p.locs[id]...)
		}
		counts[attribute(stack)] += s.count
		total += s.count
	}
	return counts, total, nil
}

// The decoder below reads only the parts of profile.proto
// (github.com/google/pprof/proto/profile.proto) that attribution needs:
// samples with their location IDs and first value, locations with their
// line entries, functions, and the string table.

type pSample struct {
	locs  []uint64
	count int64
}

type profile struct {
	samples []pSample
	locs    map[uint64][]frame // leaf-first inline frames
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
	type line struct{ fn uint64 }
	type function struct{ name, file int64 }
	var (
		strs    []string
		samples []pSample
		locLine = make(map[uint64][]line)
		funcs   = make(map[uint64]function)
	)
	err = walkFields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s pSample
			first := true
			err := walkFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					if b == nil {
						s.locs = append(s.locs, v)
						return nil
					}
					return packed(b, func(v uint64) { s.locs = append(s.locs, v) })
				case 2:
					take := func(v uint64) {
						if first {
							s.count, first = int64(v), false
						}
					}
					if b == nil {
						take(v)
						return nil
					}
					return packed(b, take)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var lines []line
			err := walkFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					var l line
					err := walkFields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							l.fn = v
						}
						return nil
					})
					lines = append(lines, l)
					return err
				}
				return nil
			})
			locLine[id] = lines
			return err
		case 5: // function
			var id uint64
			var f function
			err := walkFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{samples: samples, locs: make(map[uint64][]frame, len(locLine))}
	for id, lines := range locLine {
		fr := make([]frame, len(lines))
		for i, l := range lines {
			f := funcs[l.fn]
			fr[i] = frame{fn: str(f.name), file: str(f.file)}
		}
		p.locs[id] = fr
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// walkFields calls f for each field of a protobuf message: v carries a
// varint or fixed-width value, b a length-delimited payload (nil
// otherwise).
func walkFields(data []byte, f func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num, wt := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b = data[n : n+int(l)]
			if b == nil {
				b = []byte{}
			}
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wt)
		}
		if err := f(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

func packed(b []byte, f func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		f(v)
		b = b[n:]
	}
	return nil
}
