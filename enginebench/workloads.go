package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"graphmem/internal/graph"
	"graphmem/internal/harness"
	"graphmem/internal/sample"
	"graphmem/internal/sim"
	"graphmem/internal/stats"
	"graphmem/internal/trace"
)

// Instruction windows. single-detailed keeps the bench profile's 4M
// warm-up, which covers pr's sequential contrib phase (~6 instructions
// per vertex at scale 19), and measures 1M so one pass over its five
// cells fits several times in a run. The 16-core cell runs 250k+750k
// per core; cc gathers from record 0, so short windows still measure the
// irregular phase, and shorter ones than these make bound–weave's host
// speed depend more on the input seed. sampled-store uses the windows of
// ci/sample_reference.json.
const (
	singleWarmup, singleMeasure = 4_000_000, 1_000_000
	mcCores                     = 16
	mcWarmup, mcMeasure         = 250_000, 750_000
	sampleRefPath               = "ci/sample_reference.json"
)

// cell is one simulated configuration of a workload.
type cell struct {
	id     harness.WorkloadID
	config string // a harness.ConfigByName name
	pf     string // prefetcher preset; "" keeps the default wiring
}

func (c cell) String() string {
	s := c.id.String() + "/" + c.config
	if c.pf != "" {
		s += "+" + c.pf
	}
	return s
}

func (b *bench) config(c cell, cores int) (sim.Config, error) {
	cfg, err := harness.ConfigByName(b.profile.BaseConfig(cores), c.config)
	if err != nil {
		return cfg, err
	}
	if c.pf != "" {
		cfg = cfg.WithPrefetchers(c.pf)
	}
	return cfg, nil
}

// setup builds the named graphs setupReps times, each time in a fresh
// Workbench, and keeps the first set. setup_s is the median time spent
// in Workbench.Graph before any simulation.
func (b *bench) setup(names ...string) map[string]*graph.Graph {
	var graphs map[string]*graph.Graph
	var secs []float64
	var edges int64
	for rep := 0; rep < setupReps; rep++ {
		wb := harness.NewWorkbench(b.profile)
		got := make(map[string]*graph.Graph, len(names))
		d := b.spans.do("setup", func() {
			for _, n := range names {
				b.spans.do("harness.Workbench.Graph", func() { got[n] = wb.Graph(n) })
			}
		})
		secs = append(secs, d.Seconds())
		if graphs == nil {
			graphs = got
			for _, g := range got {
				edges += g.NumEdges()
			}
		}
		runtime.GC() // drop the repeat builds before the next one
	}
	s := median(secs)
	b.setE2E("setup_s", s, "s")
	b.setLayer("graph.build_s", s, "s")
	b.setLayer("graph.edges_per_s", float64(edges)/s, "1/s")
	return graphs
}

// workbench returns a fresh Workbench (empty memo, so every RunSingle
// simulates) over already-built graphs, one simulation at a time.
func (b *bench) workbench(graphs map[string]*graph.Graph) *harness.Workbench {
	p := b.profile
	p.Graphs = make(map[string]harness.GraphSpec, len(graphs))
	for name, g := range graphs {
		g := g
		p.Graphs[name] = harness.GraphSpec{Name: name, Build: func() *graph.Graph { return g }}
	}
	wb := harness.NewWorkbench(p)
	wb.Parallelism = 1
	return wb
}

func digestOf(v any) (string, error) {
	blob, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(blob)
	return hex.EncodeToString(h[:8]), nil
}

// singleDigest covers every simulated counter of a single-core result,
// including a sampled run's estimate. Whether the warm-up came from a
// checkpoint is host-side provenance, not a counter, so it is excluded.
func singleDigest(res *sim.Result) (string, error) {
	v := struct {
		Stats    stats.CoreStats
		Reruns   int
		Sampling *sample.Estimate
	}{Stats: res.Stats, Reruns: res.Reruns}
	if res.Sampling != nil {
		e := *res.Sampling
		e.CheckpointHit = false
		v.Sampling = &e
	}
	return digestOf(v)
}

// countSink drains a kernel's trace, counting records and instructions
// the way the simulated core does, without simulating anything.
type countSink struct{ instr, records, limit int64 }

func (s *countSink) Access(r trace.Record) bool {
	s.records++
	s.instr += int64(r.NonMem) + 1
	return s.instr < s.limit
}

// drain runs the kernel (restarting it like the simulator does) until
// it has emitted limit instructions, and returns the records emitted and
// the host time taken.
func (b *bench) drain(w sim.Workload, limit int64) (int64, time.Duration) {
	s := &countSink{limit: limit}
	var d time.Duration
	for s.instr < limit {
		before := s.instr
		d += b.spans.do("kernels.Instance.Run", func() { w.Inst.Run(trace.New(s)) })
		if s.instr == before {
			break
		}
	}
	return s.records, d
}

// recordWork sets the kernel-generation and per-record simulation
// rates from the simulate time of a set of cells and the time to drain
// the same cells' kernels.
func (b *bench) recordWork(simSecs, drainSecs float64, records int64) {
	if records == 0 || drainSecs <= 0 {
		return
	}
	b.setLayer("kernels.mrec_per_s", float64(records)/drainSecs/1e6, "Mrec/s")
	b.setLayer("sim.ns_per_record", (simSecs-drainSecs)*1e9/float64(records), "ns")
}

// recordCounts sets the simulated work counts of one pass over the
// workload's cells (all cores).
func (b *bench) recordCounts(all []stats.CoreStats) {
	var s stats.CoreStats
	cycles := 0.0 // summed as float: a runaway bound–weave core can report ~1e18 cycles
	for i := range all {
		s.Add(&all[i])
		cycles += float64(all[i].Cycles)
	}
	pki := func(x int64) float64 {
		if s.Instructions == 0 {
			return 0
		}
		return float64(x) * 1000 / float64(s.Instructions)
	}
	b.setLayer("cache.l1d_mpki", pki(s.L1D.Misses), "MPKI")
	b.setLayer("cache.l2_mpki", pki(s.L2.Misses), "MPKI")
	b.setLayer("cache.llc_mpki", pki(s.LLC.Misses), "MPKI")
	b.setLayer("core.sdc_mpki", pki(s.SDC.Misses), "MPKI")
	b.setLayer("core.lp_averse_frac", s.LPAverseFraction(), "fraction")
	b.setLayer("tlb.dtlb_miss_rate", s.DTLB.MissRate(), "fraction")
	b.setLayer("dram.reads_pki", pki(s.DRAMReads), "PKI")
	b.setLayer("dram.row_hit_rate", s.DRAMRowHitRate(), "fraction")
	b.setLayer("coherence.sdcdir_lookups_pki", pki(s.SDCDirLookups), "PKI")
	b.setLayer("prefetch.issued_pki", pki(s.L1D.Prefetches+s.SDC.Prefetches+s.L2.Prefetches+s.LLC.Prefetches), "PKI")
	b.setLayer("cpu.cycles", cycles, "count")
}

// medianSum adds up the median duration of each cell.
func medianSum(times map[string][]float64) float64 {
	total := 0.0
	for _, ts := range times {
		total += median(ts)
	}
	return total
}

// runSingleDetailed is the default path: single-core, serial engine,
// detailed windows, through Workbench.RunSingle.
func runSingleDetailed(b *bench) error {
	b.profile.Warmup, b.profile.Measure = singleWarmup, singleMeasure
	pr, cc := harness.WorkloadID{Kernel: "pr", Graph: "kron"}, harness.WorkloadID{Kernel: "cc", Graph: "urand"}
	cells := []cell{
		{id: pr, config: "baseline"}, {id: pr, config: "sdclp"},
		{id: cc, config: "baseline"}, {id: cc, config: "sdclp"},
		{id: cc, config: "baseline", pf: "imp"},
	}
	graphs := b.setup("kron", "urand")
	simTimes := make(map[string][]float64)
	var last []stats.CoreStats
	iter := func() (float64, error) {
		wb := b.workbench(graphs)
		var instr int64
		var dur time.Duration
		last = last[:0]
		for _, c := range cells {
			cfg, err := b.config(c, 1)
			if err != nil {
				return 0, err
			}
			var res *sim.Result
			b.op(c.String(), false, func() (string, error) {
				d := b.spans.do("harness.Workbench.RunSingle", func() { res = wb.RunSingle(cfg, c.id) })
				dur += d
				simTimes[c.String()] = append(simTimes[c.String()], d.Seconds())
				instr += b.profile.Warmup + res.Stats.Instructions
				last = append(last, res.Stats)
				return singleDigest(res)
			})
		}
		return float64(instr) / dur.Seconds() / 1e6, nil
	}
	plain, profiled, err := b.measure(iter)
	if err != nil {
		return err
	}
	if b.traced {
		b.recordCounts(last)
		wb := b.workbench(graphs)
		var records int64
		var drain time.Duration
		for _, c := range cells {
			r, d := b.drain(wb.Workload(c.id, 0), singleWarmup+singleMeasure)
			records += r
			drain += d
		}
		b.recordWork(medianSum(simTimes), drain.Seconds(), records)
	}
	return b.finish(plain, profiled)
}

// runMC16 runs cc.urand SDC+LP on 16 cores through sim.RunMultiCore:
// the serial interleaver, or bound–weave with one host worker per CPU.
func runMC16(b *bench, weave bool) error {
	c := cell{id: harness.WorkloadID{Kernel: "cc", Graph: "urand"}, config: "sdclp"}
	graphs := b.setup("urand")
	cfg, err := b.config(c, mcCores)
	if err != nil {
		return err
	}
	cfg = cfg.WithWindows(mcWarmup, mcMeasure)
	if weave {
		cfg = cfg.WithBoundWeave(0, b.nproc)
	}
	run := func(graphs map[string]*graph.Graph, cfg sim.Config, pinned bool) (res *sim.MultiResult, d time.Duration, ok bool) {
		wb := b.workbench(graphs)
		ok = b.op(c.String(), pinned, func() (string, error) {
			ws := make([]sim.Workload, mcCores)
			for i := range ws {
				ws[i] = wb.Workload(c.id, i)
			}
			d = b.spans.do("sim.RunMultiCore", func() { res = sim.RunMultiCore(cfg, ws) })
			return digestOf(res.PerCore)
		})
		return res, d, ok
	}

	var first *sim.MultiResult
	var times []float64
	iter := func() (float64, error) {
		res, d, ok := run(graphs, cfg, false)
		if !ok {
			return 0, nil
		}
		if first == nil {
			first = res
		}
		times = append(times, d.Seconds())
		var instr int64
		for _, s := range res.PerCore {
			instr += mcWarmup + s.Instructions
		}
		return float64(instr) / d.Seconds() / 1e6, nil
	}
	plain, profiled, err := b.measure(iter)
	if err != nil {
		return err
	}
	if first == nil {
		return fmt.Errorf("no %s simulation completed", c)
	}

	// Fidelity: bound–weave's aggregate IPC on the pinned input against
	// the serial engine's committed one. mc16-serial carries the
	// committed gap (see finish).
	switch {
	case b.writing:
		b.ref.IPC[b.workload+"/"+c.String()] = aggIPC(first)
	case weave:
		pinned := first
		if b.seed != defaultSeed {
			if pinned, _, _ = run(b.pinnedGraphs(graphs, "urand"), cfg, true); pinned == nil {
				return fmt.Errorf("pinned %s run failed", c)
			}
		}
		serialIPC, weaveIPC := b.ref.IPC["mc16-serial/"+c.String()], aggIPC(pinned)
		fmt.Fprintf(os.Stderr, "enginebench: %s pinned input: aggregate IPC serial %.4f (committed), bound-weave %.4f\n", c, serialIPC, weaveIPC)
		b.setE2E("weave_ipc_gap_pct", gapPct(serialIPC, weaveIPC), "%")
	}

	if weave && (b.seed != defaultSeed || b.traced) {
		// Determinism: one host worker must reproduce the nproc-worker
		// counters exactly (op compares the digest with the first run's).
		var wj1 []float64
		for i := 0; i < 2; i++ {
			if _, d, ok := run(graphs, cfg.WithBoundWeave(0, 1), false); ok {
				wj1 = append(wj1, d.Seconds())
			}
			if !b.traced {
				break
			}
		}
		if b.traced && len(wj1) > 0 {
			b.setLayer("sim.weave.wj_speedup", median(wj1)/median(times), "x")
		}
	}
	if b.traced {
		b.recordCounts(first.PerCore)
		wb := b.workbench(graphs)
		var records int64
		var drain time.Duration
		for i := 0; i < mcCores; i++ {
			r, d := b.drain(wb.Workload(c.id, i), mcWarmup+mcMeasure)
			records += r
			drain += d
		}
		b.recordWork(median(times), drain.Seconds(), records)
	}
	return b.finish(plain, profiled)
}

// pinnedGraphs returns the named graphs at the default seed, on which
// the fidelity metrics are defined: the workload's own graphs when the
// run uses that seed, otherwise built here, outside setup_s.
func (b *bench) pinnedGraphs(own map[string]*graph.Graph, names ...string) map[string]*graph.Graph {
	if b.seed == defaultSeed {
		return own
	}
	wb := harness.NewWorkbench(harness.Bench())
	out := make(map[string]*graph.Graph, len(names))
	for _, n := range names {
		b.spans.do("harness.Workbench.Graph", func() { out[n] = wb.Graph(n) })
	}
	return out
}

func aggIPC(res *sim.MultiResult) float64 {
	sum := 0.0
	for _, ipc := range res.IPCs() {
		sum += ipc
	}
	return sum
}

// sampleRef is the committed sampled-vs-detailed gate reference,
// ci/sample_reference.json, narrowed to the sampled-store cells.
type sampleRef struct {
	Warmup  int64 `json:"warmup"`
	Measure int64 `json:"measure"`
	Cells   []struct {
		Config   string      `json:"config"`
		Workload string      `json:"workload"`
		Plan     sample.Plan `json:"plan"`
		IPC      float64     `json:"ipc"`
	} `json:"cells"`
	ipc map[string]float64 // detailed IPC by sampled-store cell
}

// loadSampleRef reads the sampling reference and checks that it covers
// every sampled-store cell with one shared plan.
func loadSampleRef() (*sampleRef, error) {
	blob, err := os.ReadFile(sampleRefPath)
	if err != nil {
		return nil, fmt.Errorf("reading sampling reference: %w", err)
	}
	var ref sampleRef
	if err := json.Unmarshal(blob, &ref); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", sampleRefPath, err)
	}
	ref.ipc = make(map[string]float64)
	wanted := make(map[string]bool)
	for _, c := range sampledCells {
		wanted[c.String()] = true
	}
	cells := ref.Cells[:0]
	for _, rc := range ref.Cells {
		key := rc.Workload + "/" + rc.Config
		if !wanted[key] {
			continue
		}
		if len(cells) > 0 && rc.Plan != cells[0].Plan {
			return nil, fmt.Errorf("%s: the sampled-store cells use different plans", sampleRefPath)
		}
		cells = append(cells, rc)
		ref.ipc[key] = rc.IPC
	}
	ref.Cells = cells
	if len(ref.ipc) != len(sampledCells) {
		return nil, fmt.Errorf("%s lacks some of the sampled-store cells", sampleRefPath)
	}
	return &ref, nil
}

// errPct is the largest relative error of the sampled IPC estimates
// (by cell) against the committed detailed IPCs, in percent.
func (r *sampleRef) errPct(est map[string]float64) float64 {
	worst := 0.0
	for key, ref := range r.ipc {
		worst = math.Max(worst, math.Abs(est[key]-ref)/ref)
	}
	return 100 * worst
}

func gapPct(serialIPC, weaveIPC float64) float64 {
	return 100 * math.Abs(weaveIPC-serialIPC) / serialIPC
}

// sampledCells are the sampled-store cells, looked up in the sampling
// reference by (config, workload).
var sampledCells = []cell{
	{id: harness.WorkloadID{Kernel: "pr", Graph: "kron"}, config: "baseline"},
	{id: harness.WorkloadID{Kernel: "pr", Graph: "kron"}, config: "sdclp"},
	{id: harness.WorkloadID{Kernel: "cc", Graph: "kron"}, config: "baseline"},
	{id: harness.WorkloadID{Kernel: "cc", Graph: "kron"}, config: "sdclp"},
}

// runSampledStore runs the sampled cells in two passes over fresh store
// directories: a cold pass that simulates and writes checkpoints and
// results, and a warm pass through a new Workbench where every run is a
// result-store hit that must equal the cold result.
func runSampledStore(b *bench) error {
	sref := b.sref
	b.profile.Warmup, b.profile.Measure = sref.Warmup, sref.Measure
	plan := sref.Cells[0].Plan
	graphs := b.setup("kron")

	var (
		cold       []*sim.Result // the first cold pass
		coldTimes  = make(map[string][]float64)
		warmTimes  []float64
		warmHits   int64
		warmMisses int64
		window     = int64(len(sampledCells)) * (sref.Warmup + sref.Measure)
	)
	// pass runs every cell once through a new Workbench on the store
	// directories under dir. Warm passes check their results under the
	// same cell names as cold ones, so op flags any warm result that
	// differs from the cold result.
	pass := func(graphs map[string]*graph.Graph, dir string, warm, pinned bool) ([]*sim.Result, time.Duration, error) {
		ckpt, err := sample.NewStore(filepath.Join(dir, "ckpt"))
		if err != nil {
			return nil, 0, err
		}
		rs, err := harness.OpenResultStore(filepath.Join(dir, "results"))
		if err != nil {
			return nil, 0, err
		}
		wb := b.workbench(graphs)
		wb.Sampling, wb.Checkpoints, wb.Store = plan, ckpt, rs
		var results []*sim.Result
		var total time.Duration
		for _, c := range sampledCells {
			cfg, err := b.config(c, 1)
			if err != nil {
				return nil, 0, err
			}
			b.op(c.String(), pinned, func() (string, error) {
				var res *sim.Result
				d := b.spans.do("harness.Workbench.RunSingle", func() { res = wb.RunSingle(cfg, c.id) })
				total += d
				if warm {
					warmTimes = append(warmTimes, d.Seconds())
				} else {
					coldTimes[c.String()] = append(coldTimes[c.String()], d.Seconds())
				}
				if res.Sampling == nil {
					return "", fmt.Errorf("sampled run returned no estimate")
				}
				results = append(results, res)
				return singleDigest(res)
			})
		}
		if warm {
			warmHits += rs.Hits()
			warmMisses += rs.Misses()
		}
		return results, total, nil
	}
	iter := func() (float64, error) {
		dir, err := os.MkdirTemp(b.tmp, "store-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		res, dc, err := pass(graphs, dir, false, false)
		if err != nil {
			return 0, err
		}
		if cold == nil {
			cold = res
		}
		_, dw, err := pass(graphs, dir, true, false)
		if err != nil {
			return 0, err
		}
		return float64(window) / (dc + dw).Seconds() / 1e6, nil
	}
	plain, profiled, err := b.measure(iter)
	if err != nil {
		return err
	}
	if len(cold) != len(sampledCells) {
		return fmt.Errorf("the first cold pass did not complete")
	}

	// Fidelity on the pinned input: the largest relative error of a
	// sampled IPC estimate against the committed detailed IPC.
	pinned := cold
	if b.seed != defaultSeed {
		dir, err := os.MkdirTemp(b.tmp, "pinned-")
		if err != nil {
			return err
		}
		pinned, _, err = pass(b.pinnedGraphs(graphs, "kron"), dir, false, true)
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		if len(pinned) != len(sampledCells) {
			return fmt.Errorf("pinned sampled pass failed")
		}
	}
	est := make(map[string]float64, len(pinned))
	for i, c := range sampledCells {
		est[c.String()] = pinned[i].Sampling.IPC.Mean
		fmt.Fprintf(os.Stderr, "enginebench: %s pinned input: sampled IPC %.4f, detailed %.4f (committed)\n",
			c, est[c.String()], sref.ipc[c.String()])
		if b.writing {
			b.ref.IPC[b.workload+"/"+c.String()] = est[c.String()]
		}
	}
	if !b.writing {
		b.setE2E("sample_ipc_err_pct", sref.errPct(est), "%")
	}

	if b.traced {
		var all []stats.CoreStats
		var detailedInstr int64
		for _, r := range cold {
			all = append(all, r.Stats)
			detailedInstr += r.Sampling.DetailedInstructions
		}
		b.recordCounts(all)
		b.setLayer("sample.detailed_frac", float64(detailedInstr)/float64(int64(len(cold))*sref.Measure), "fraction")
		if warmHits+warmMisses > 0 {
			b.setLayer("store.hit_ratio", float64(warmHits)/float64(warmHits+warmMisses), "fraction")
		}
		b.setLayer("store.warm_run_ms", 1e3*median(warmTimes), "ms")
		if err := b.storeTimings(cold); err != nil {
			return err
		}
		wb := b.workbench(graphs)
		var records int64
		var drain time.Duration
		for _, c := range sampledCells {
			r, d := b.drain(wb.Workload(c.id, 0), sref.Warmup+sref.Measure)
			records += r
			drain += d
		}
		b.recordWork(medianSum(coldTimes), drain.Seconds(), records)
	}
	return b.finish(plain, profiled)
}

// storeTimings times Store.Acquire+commit of each encoded cold result
// into an empty store (a put), then Acquire of the same key through a
// second handle on the directory (a get that must return the bytes).
func (b *bench) storeTimings(results []*sim.Result) error {
	dir, err := os.MkdirTemp(b.tmp, "timing-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	writer, err := harness.OpenResultStore(dir)
	if err != nil {
		return err
	}
	reader, err := harness.OpenResultStore(dir)
	if err != nil {
		return err
	}
	var puts, gets []float64
	for i, res := range results {
		data, err := sim.EncodeResult(res)
		if err != nil {
			return err
		}
		key := fmt.Sprintf("enginebench-%d-%s", i, res.Config)
		var putErr error
		d := b.spans.do("store.Store.Acquire+commit", func() {
			payload, commit := writer.Acquire(key)
			if payload != nil {
				putErr = fmt.Errorf("store: unexpected hit for %s", key)
				_ = commit(nil)
				return
			}
			putErr = commit(data)
		})
		if putErr != nil {
			return putErr
		}
		puts = append(puts, d.Seconds())
		var got []byte
		d = b.spans.do("store.Store.Acquire", func() {
			var commit func([]byte) error
			got, commit = reader.Acquire(key)
			_ = commit(nil)
		})
		gets = append(gets, d.Seconds())
		if string(got) != string(data) {
			b.fail(res.Workload, "result store returned different bytes")
		}
	}
	b.setLayer("store.put_ms", 1e3*median(puts), "ms")
	b.setLayer("store.get_ms", 1e3*median(gets), "ms")
	return nil
}

// carryFidelity fills in the fidelity metrics a workload does not
// measure, because it does not run the engine pair they compare, with
// the values computed from the committed default-seed references. Those
// change only when the references are regenerated.
func (b *bench) carryFidelity() {
	if _, ok := b.e2e["weave_ipc_gap_pct"]; !ok {
		key := "/cc.urand/sdclp"
		b.setE2E("weave_ipc_gap_pct", gapPct(b.ref.IPC["mc16-serial"+key], b.ref.IPC["mc16-weave"+key]), "%")
	}
	if _, ok := b.e2e["sample_ipc_err_pct"]; !ok {
		est := make(map[string]float64)
		for _, c := range sampledCells {
			est[c.String()] = b.ref.IPC["sampled-store/"+c.String()]
		}
		b.setE2E("sample_ipc_err_pct", b.sref.errPct(est), "%")
	}
}
