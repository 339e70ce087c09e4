package sim

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"graphmem/internal/cache"
	"graphmem/internal/check"
	"graphmem/internal/kernels"
	"graphmem/internal/mem"
	"graphmem/internal/trace"
)

// bwWorkloads builds a fresh workload set (kernel instances are
// stateful, so every run gets its own) with the named kernels in the
// first len(names) slots; empty names are idle slots.
func bwWorkloads(t testing.TB, cores, scale int, names []string) []Workload {
	t.Helper()
	ws := make([]Workload, cores)
	for i, k := range names {
		if k == "" {
			continue
		}
		ws[i] = kronWorkloadSlot(t, k, scale, i)
	}
	return ws
}

// TestBoundWeaveDeterministicAcrossWorkers is the engine's hard
// contract: byte-identical results at any host worker count, including
// the -wj 1 serial reference. Run under -race this also shakes out
// bound-phase sharing bugs.
func TestBoundWeaveDeterministicAcrossWorkers(t *testing.T) {
	cfg := TableI(4).BenchScale().WithWindows(20_000, 120_000).WithSDCLP().WithBoundWeave(0, 1)
	names := []string{"pr", "cc", "bfs", "tc"}
	ref := RunMultiCore(cfg, bwWorkloads(t, 4, 16, names))
	for _, wj := range []int{2, 8} {
		cfg2 := cfg
		cfg2.WeaveWorkers = wj
		got := RunMultiCore(cfg2, bwWorkloads(t, 4, 16, names))
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("WeaveWorkers=%d result differs from the serial reference:\nref: %+v\ngot: %+v",
				wj, ref.PerCore, got.PerCore)
		}
	}
	for i, s := range ref.PerCore {
		if s.Instructions < cfg.Measure {
			t.Fatalf("core %d measured only %d instructions", i, s.Instructions)
		}
	}
}

// TestBoundWeaveQuantumOne drives the degenerate 1-cycle quantum: the
// weave runs after nearly every record, so any bound/weave boundary bug
// shows up immediately, and the parallel run must still match the
// serial reference exactly.
func TestBoundWeaveQuantumOne(t *testing.T) {
	cfg := TableI(2).BenchScale().WithWindows(2_000, 10_000).WithSDCLP().WithBoundWeave(1, 1)
	names := []string{"pr", "cc"}
	ref := RunMultiCore(cfg, bwWorkloads(t, 2, 16, names))
	par := RunMultiCore(cfg.WithBoundWeave(1, 4), bwWorkloads(t, 2, 16, names))
	if !reflect.DeepEqual(ref, par) {
		t.Fatalf("quantum=1 parallel run differs from serial reference:\nref: %+v\ngot: %+v",
			ref.PerCore, par.PerCore)
	}
	for i, s := range ref.PerCore {
		if s.Instructions < cfg.Measure {
			t.Fatalf("core %d measured only %d instructions", i, s.Instructions)
		}
	}
}

// TestBoundWeaveQuantumLargerThanWindow uses a quantum far beyond the
// whole run: the first bound phase must carry every core to its window
// close (not spin forever waiting for a boundary no core reaches).
func TestBoundWeaveQuantumLargerThanWindow(t *testing.T) {
	cfg := TableI(2).BenchScale().WithWindows(10_000, 60_000).WithSDCLP().WithBoundWeave(1<<40, 2)
	res := RunMultiCore(cfg, bwWorkloads(t, 2, 16, []string{"pr", "cc"}))
	for i, s := range res.PerCore {
		if s.Instructions < cfg.Measure {
			t.Fatalf("core %d measured only %d instructions", i, s.Instructions)
		}
	}
}

// TestBoundWeaveQuantumBoundaries sweeps awkward quantum sizes —
// including ones that never divide the run evenly — and expects filled
// windows and sane IPC from each.
func TestBoundWeaveQuantumBoundaries(t *testing.T) {
	for _, q := range []int64{1, 3, 777, DefaultQuantum} {
		cfg := TableI(1).BenchScale().WithWindows(5_000, 25_000).WithSDCLP().WithBoundWeave(q, 2)
		res := RunMultiCore(cfg, bwWorkloads(t, 1, 16, []string{"pr"}))
		s := res.PerCore[0]
		if s.Instructions < cfg.Measure {
			t.Fatalf("quantum=%d: measured only %d instructions", q, s.Instructions)
		}
		if s.IPC() <= 0 || s.IPC() > 4 {
			t.Fatalf("quantum=%d: IPC = %g", q, s.IPC())
		}
	}
}

// TestBoundWeave64CoreSmoke runs the engine at the paper's upper SDC+LP
// scale: 64 simulated cores, every slot active.
func TestBoundWeave64CoreSmoke(t *testing.T) {
	const cores = 64
	cfg := TableI(cores).BenchScale().WithWindows(1_000, 5_000).WithSDCLP().WithBoundWeave(0, 4)
	names := make([]string, cores)
	rot := []string{"pr", "cc", "bfs", "tc"}
	for i := range names {
		names[i] = rot[i%len(rot)]
	}
	res := RunMultiCore(cfg, bwWorkloads(t, cores, 12, names))
	for i, s := range res.PerCore {
		if s.Instructions < cfg.Measure {
			t.Fatalf("core %d measured only %d instructions", i, s.Instructions)
		}
	}
}

// TestBoundWeave128CoreSmoke runs 128 simulated cores on the baseline
// machine (the SDCDir's sharer bitmap caps SDC configurations at 64).
func TestBoundWeave128CoreSmoke(t *testing.T) {
	const cores = 128
	cfg := TableI(cores).BenchScale().WithWindows(1_000, 5_000).WithBoundWeave(0, 4)
	names := make([]string, cores)
	rot := []string{"pr", "cc", "bfs", "tc"}
	for i := range names {
		names[i] = rot[i%len(rot)]
	}
	res := RunMultiCore(cfg, bwWorkloads(t, cores, 12, names))
	for i, s := range res.PerCore {
		if s.Instructions < cfg.Measure {
			t.Fatalf("core %d measured only %d instructions", i, s.Instructions)
		}
	}
}

// TestBoundWeaveIdleSlots mirrors the legacy idle-slot behaviour.
func TestBoundWeaveIdleSlots(t *testing.T) {
	cfg := TableI(2).BenchScale().WithWindows(10_000, 60_000).WithBoundWeave(0, 2)
	res := RunMultiCore(cfg, bwWorkloads(t, 2, 16, []string{"tc"}))
	if res.PerCore[0].Instructions == 0 {
		t.Fatal("active core measured nothing")
	}
	if res.PerCore[1].Instructions != 0 {
		t.Error("idle core measured instructions")
	}
}

// TestBoundWeaveCheckFullClean runs the full differential harness (PR
// 3's shadow oracle + invariant sweeps) on the parallel engine: the
// sharded oracle must see traffic, sweep, and find nothing.
func TestBoundWeaveCheckFullClean(t *testing.T) {
	cfg := TableI(2).BenchScale().WithWindows(50_000, 250_000).
		WithSDCLP().WithCheck(check.Full).WithBoundWeave(0, 4)
	res := RunMultiCore(cfg, bwWorkloads(t, 2, 18, []string{"pr", "cc"}))
	if res.Check.Violations != 0 {
		t.Fatalf("bound–weave full-check run found %d violations; first: %v",
			res.Check.Violations, res.Check.Details)
	}
	if res.Check.LoadsChecked == 0 || res.Check.StoresTracked == 0 {
		t.Fatalf("oracle saw no traffic: %+v", res.Check)
	}
	if res.Check.Sweeps == 0 {
		t.Fatal("full-check run performed no invariant sweeps")
	}
}

// TestBoundWeaveCheckCatchesBrokenInval proves the sharded oracle is
// still a real oracle under the parallel engine: the fault-injection
// hook must produce violations, exactly as on the serial engine.
func TestBoundWeaveCheckCatchesBrokenInval(t *testing.T) {
	cfg := TableI(1).BenchScale().WithWindows(200_000, 1_000_000).
		WithSDCLP().WithCheck(check.Full).WithBoundWeave(0, 2)
	cfg.BreakSDCDirInval = true
	res := RunMultiCore(cfg, bwWorkloads(t, 1, 19, []string{"cc"}))
	if res.Check.Violations == 0 {
		t.Fatal("fault-injected bound–weave run reported zero violations; the oracle is blind")
	}
	if len(res.Check.Details) == 0 {
		t.Fatal("violations counted but no details retained")
	}
}

// TestBoundWeaveRecorderQuanta checks flight-recorder integration: the
// recorder counts quanta while attached, stamps occupancy samples with
// quantum provenance, and the legacy engine stays at zero.
func TestBoundWeaveRecorderQuanta(t *testing.T) {
	cfg := TableI(1).BenchScale().WithWindows(10_000, 60_000).WithFlightRecorder(0)
	legacy := RunMultiCore(cfg, bwWorkloads(t, 1, 16, []string{"pr"}))
	if legacy.Recorders[0] == nil {
		t.Fatal("legacy run produced no recorder summary")
	}
	if q := legacy.Recorders[0].Quanta; q != 0 {
		t.Fatalf("legacy engine counted %d quanta, want 0", q)
	}

	bw := RunMultiCore(cfg.WithBoundWeave(0, 2), bwWorkloads(t, 1, 16, []string{"pr"}))
	rec := bw.Recorders[0]
	if rec == nil {
		t.Fatal("bound–weave run produced no recorder summary")
	}
	if rec.Quanta == 0 {
		t.Fatal("recorder saw no quantum boundaries under bound–weave")
	}
	stamped := 0
	for _, s := range rec.Samples {
		if s.Quantum > 0 {
			stamped++
		}
	}
	if stamped == 0 {
		t.Fatal("no occupancy sample carries a quantum stamp")
	}
}

// panicKernel is a fake kernels.Instance that emits a few records and
// then panics inside its producer goroutine — the failure mode the
// panic-capture path and the goroutine-leak contract guard against.
type panicKernel struct {
	reg   *mem.Region
	after int
}

func newPanicKernel(space *mem.Space, after int) *panicKernel {
	return &panicKernel{reg: space.Alloc("panic.buf", 1<<20, 8, mem.ClassRegular), after: after}
}

func (k *panicKernel) Info() kernels.Info              { return kernels.Info{Name: "panic"} }
func (k *panicKernel) IrregularRegions() []*mem.Region { return nil }
func (k *panicKernel) Oracle() cache.NextUseOracle     { return nil }

func (k *panicKernel) Run(tr *trace.Tracer) {
	pc := tr.Site("panic.loop")
	for i := 0; ; i++ {
		if i >= k.after {
			panic("injected kernel failure")
		}
		tr.Exec(4)
		tr.Load(pc, k.reg.Base+mem.Addr(uint64(i)*8%k.reg.Size), 8, trace.NoDep)
	}
}

// waitGoroutines waits for the goroutine count to settle back to the
// baseline (producers unwind asynchronously after stopAndDrain).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines still live (baseline %d):\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestKernelPanicSurfacesAndLeaksNothing injects a panicking kernel
// into both engines: the panic must surface to the caller as a regular
// panic, and no producer goroutine may survive the run.
func TestKernelPanicSurfacesAndLeaksNothing(t *testing.T) {
	for _, mode := range []string{"legacy", "boundweave"} {
		t.Run(mode, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			cfg := TableI(2).BenchScale().WithWindows(100_000, 500_000)
			if mode == "boundweave" {
				cfg = cfg.WithBoundWeave(0, 2)
			}
			space0 := mem.NewSpace(0)
			ws := []Workload{
				{Name: "panic", Inst: newPanicKernel(space0, 10_000), Space: space0},
				kronWorkloadSlot(t, "cc", 16, 1),
			}
			panicked := func() (p any) {
				defer func() { p = recover() }()
				RunMultiCore(cfg, ws)
				return nil
			}()
			if panicked == nil {
				t.Fatal("kernel panic did not surface to the caller")
			}
			waitGoroutines(t, baseline)
		})
	}
}

// TestEarlyStopLeavesNoProducerGoroutines covers the normal early-stop
// path: windows fill while kernels are still producing; stopAndDrain
// must unwind every producer.
func TestEarlyStopLeavesNoProducerGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := TableI(2).BenchScale().WithWindows(5_000, 25_000)
	res := RunMultiCore(cfg, bwWorkloads(t, 2, 16, []string{"pr", "cc"}))
	if res.PerCore[0].Instructions < cfg.Measure {
		t.Fatal("windows did not fill")
	}
	waitGoroutines(t, baseline)
}

// TestProducerChunkRecycling verifies the free-list actually recycles
// chunk buffers: with a rendezvous-sized stream channel the producer
// must reuse a returned array instead of allocating fresh ones.
func TestProducerChunkRecycling(t *testing.T) {
	stop := &atomic.Bool{}
	free := make(chan []mcItem, 4)
	prod := &mcProducer{ch: make(chan []mcItem, 1), free: free, buf: make([]mcItem, 0, mcChunk), stop: stop}
	done := make(chan struct{})
	const chunks = 4
	go func() {
		defer close(done)
		for i := 0; i < chunks*mcChunk; i++ {
			prod.Access(trace.Record{})
		}
		prod.flushAndClose()
	}()
	seen := map[*mcItem]bool{}
	reused := false
	total := 0
	for chunk := range prod.ch {
		total += len(chunk)
		p := &chunk[0]
		if seen[p] {
			reused = true
		}
		seen[p] = true
		select {
		case free <- chunk[:0]:
		default:
		}
	}
	<-done
	if total != chunks*mcChunk {
		t.Fatalf("received %d items, want %d", total, chunks*mcChunk)
	}
	if !reused {
		t.Error("producer never reused a recycled chunk buffer")
	}
}

// TestLegacyHeapSchedulerDeterministic pins the heap-based scheduler's
// determinism: the same mix run twice must be identical (the heap's
// (clock, core) ordering replicates the old linear scan exactly;
// TestEngineGolden additionally pins its counters to committed digests).
func TestLegacyHeapSchedulerDeterministic(t *testing.T) {
	cfg := TableI(4).BenchScale().WithWindows(10_000, 60_000).WithSDCLP()
	names := []string{"pr", "cc", "bfs", "tc"}
	a := RunMultiCore(cfg, bwWorkloads(t, 4, 16, names))
	b := RunMultiCore(cfg, bwWorkloads(t, 4, 16, names))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("legacy scheduler is nondeterministic:\nfirst:  %+v\nsecond: %+v",
			a.PerCore, b.PerCore)
	}
}
