package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestAttribute(t *testing.T) {
	const sim = "graphmem/internal/sim."
	cases := []struct {
		name  string
		stack []frame // leaf first
		want  string
	}{
		{"module frame", []frame{{fn: "graphmem/internal/cache.(*Cache).Access"}}, "cache"},
		{"stdlib charged to caller", []frame{{fn: "sort.Sort"}, {fn: "graphmem/internal/graph.Build"}}, "graph"},
		{"bench frame charged to caller", []frame{{fn: "main.(*countSink).Access"}, {fn: "graphmem/internal/trace.(*Tracer).Load"}}, "trace"},
		{"malloc before module", []frame{{fn: "runtime.memclrNoHeapPointers"}, {fn: "runtime.mallocgc"}, {fn: sim + "NewSystem"}}, "runtime.gc"},
		{"gc worker", []frame{{fn: "runtime.scanobject"}, {fn: "runtime.gcBgMarkWorker"}}, "runtime.gc"},
		{"scheduler", []frame{{fn: "runtime.futex"}, {fn: "runtime.mcall"}}, "other"},
		{"weave by name", []frame{{fn: sim + "(*bwCore).step", file: "/x/system.go"}}, "sim.weave"},
		{"weave by file", []frame{{fn: sim + "runBoundWeave.func1", file: "/x/boundweave.go"}}, "sim.weave"},
		{"serial interleaver by name", []frame{{fn: sim + "(*mcHeap).siftDown", file: "/x/multicore.go"}}, "sim.serial_mc"},
		{"serial interleaver by file", []frame{{fn: sim + "RunMultiCoreOn", file: "/x/multicore.go"}}, "sim.serial_mc"},
		{"warming by name", []frame{{fn: sim + "(*coreCtx).warmObserve", file: "/x/runner.go"}}, "sim.warm"},
		{"walk", []frame{{fn: sim + "(*coreCtx).observe", file: "/x/runner.go"}}, "sim.walk"},
		{"unlisted module package", []frame{{fn: "graphmem/internal/stats.Delta"}}, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("%s: attribute = %q, want %q", c.name, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	return x
}

func TestProfileSharesDecodesRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range p.samples {
		for _, id := range s.locs {
			for _, f := range p.locs[id] {
				found = found || strings.HasSuffix(f.fn, ".spin")
			}
		}
	}
	if !found {
		t.Error("no sample names the spinning function")
	}
	counts, total, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, n := range counts {
		sum += n
	}
	if total == 0 || sum != total {
		t.Errorf("shares sum to %d of %d samples", sum, total)
	}
}
