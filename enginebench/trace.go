package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// span is one timed call into the program, recorded from the
// benchmark's side of the boundary.
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"` // index of the enclosing span, -1 at top level
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory; the benchmark is single-threaded
// around its calls, so the open-span stack is the causal parent chain.
type tracer struct {
	start time.Time
	spans []span
	open  []int
}

// do runs f inside a span named name and returns its duration.
func (t *tracer) do(name string, f func()) time.Duration {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	begin := time.Now()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: begin.Sub(t.start).Seconds()})
	t.open = append(t.open, i)
	defer func() {
		t.spans[i].End = time.Since(t.start).Seconds()
		t.open = t.open[:len(t.open)-1]
	}()
	f()
	return time.Since(begin)
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// measure runs a workload's closed loop — the next iteration starts
// when the previous one returns — until the run's seconds have elapsed,
// collecting each iteration's simulated MIPS and peak RSS. An untraced
// run spends all its seconds unprofiled; a traced run spends the first
// half unprofiled and the second under the profiler, so the profiler's
// overhead is measured in the same process.
func (b *bench) measure(iter func() (float64, error)) (plain, profiled []float64, err error) {
	secs := b.seconds
	if b.traced {
		secs /= 2
	}
	var peaks []float64
	loop := func(dst *[]float64) error {
		start := time.Now()
		for {
			// Start from a collected heap returned to the OS, so one
			// iteration's garbage is neither collected inside the next
			// one's timing nor counted in its peak memory.
			debug.FreeOSMemory()
			resetPeakRSS()
			m, err := iter()
			if err != nil {
				return err
			}
			peak := peakRSSMB()
			fmt.Fprintf(os.Stderr, "enginebench: %s iteration: %.4f MIPS, peak RSS %.1f MB\n", b.workload, m, peak)
			if m > 0 {
				*dst = append(*dst, m)
				peaks = append(peaks, peak)
			}
			if time.Since(start).Seconds() >= secs {
				return nil
			}
		}
	}
	err = loop(&plain)
	b.setE2E("peak_rss_mb", median(peaks), "MB")
	if err != nil || !b.traced {
		return plain, nil, err
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return plain, nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	err = loop(&profiled)
	pprof.StopCPUProfile()
	b.cpuProfile = buf.Bytes()
	return plain, profiled, err
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) tracking for this
// process; where that is unsupported, peakRSSMB stays the peak since
// process start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size since the last
// resetPeakRSS.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscan(rest, &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// finish records the metrics every workload reports: sim_mips and any
// carried fidelity metric end to end; the profiler overhead, layer
// shares and spans per layer.
func (b *bench) finish(plain, profiled []float64) error {
	b.setE2E("sim_mips", median(plain), "MIPS")
	if !b.writing {
		b.carryFidelity()
	}
	if !b.traced {
		return nil
	}
	if p := median(profiled); p > 0 {
		b.setLayer("bench.trace_overhead_pct", 100*(median(plain)/p-1), "%")
	}
	counts, total, err := profileShares(b.cpuProfile)
	if err != nil {
		return err
	}
	b.setLayer("bench.profile_samples", float64(total), "count")
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = float64(counts[l]) / float64(total)
		}
		b.setLayer(l+".share", share, "fraction")
	}
	for name, unit := range perLayerUnits {
		if _, ok := b.layer[name]; !ok {
			b.setLayer(name, 0, unit) // layer not exercised by this workload
		}
	}
	return b.spans.write(filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", b.workload, b.seed)))
}

// perLayerUnits lists the per-layer metrics beside the shares; a
// workload that does not exercise a layer reports 0 for it.
var perLayerUnits = map[string]string{
	"graph.build_s":                "s",
	"graph.edges_per_s":            "1/s",
	"kernels.mrec_per_s":           "Mrec/s",
	"sim.ns_per_record":            "ns",
	"sim.weave.wj_speedup":         "x",
	"store.get_ms":                 "ms",
	"store.put_ms":                 "ms",
	"store.warm_run_ms":            "ms",
	"store.hit_ratio":              "fraction",
	"cache.l1d_mpki":               "MPKI",
	"cache.l2_mpki":                "MPKI",
	"cache.llc_mpki":               "MPKI",
	"core.sdc_mpki":                "MPKI",
	"core.lp_averse_frac":          "fraction",
	"tlb.dtlb_miss_rate":           "fraction",
	"dram.reads_pki":               "PKI",
	"dram.row_hit_rate":            "fraction",
	"coherence.sdcdir_lookups_pki": "PKI",
	"prefetch.issued_pki":          "PKI",
	"cpu.cycles":                   "count",
	"sample.detailed_frac":         "fraction",
	"bench.trace_overhead_pct":     "%",
	"bench.profile_samples":        "count",
}
