package sim

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"graphmem/internal/check"
	"graphmem/internal/mem"
	"graphmem/internal/trace"
)

// Bound–weave parallel engine (ZSim / Graphite style, selected by
// Config.Quantum > 0).
//
// Simulation proceeds in global cycle quanta. In the *bound phase* each
// simulated core runs on its own host goroutine until its dispatch
// clock reaches the quantum boundary, touching only private state —
// core, L1D, victim cache, L2, SDC, TLBs, LP — plus *reads* of the
// frozen shared structures (LLC, DRAM state, SDCDir). The private walk
// reaches the shared domain through the sharedDomain seam (system.go);
// in the bound phase each core's seam is its *logged* bwCore, which
// buffers every shared-domain side effect (LLC lookup/fill/invalidate,
// DRAM access, SDCDir transition) into the core's ordered event log
// with a deterministic estimated latency. The serial *weave phase* then
// merges all logs in (timestamp, core, seq) order and replays them
// through the *direct* seam on the System — the same LLC, write-back
// and Pickle code the serial engines run; the difference between
// actual and estimated latency accumulates as per-core skew, charged
// to the core as a dispatch stall at the quantum boundary.
//
// One deliberate semantic difference from the legacy engine: a core
// stops consuming its trace the moment its measurement window closes,
// rather than replaying on for contention until every core finishes
// (with a quantum longer than the run, a finished core would otherwise
// spin forever inside its bound task). The stop point is a pure
// function of the core's own state, so it cannot affect determinism.
//
// Determinism: the bound phase shares nothing mutable between cores
// (each core's accesses stay inside its disjoint 1 TiB address window,
// so the logged seam's remote probe and purge are empty),
// the weave order is a pure function of the logs, and the worker count
// only changes which host thread runs which independent bound task.
// Reports are therefore byte-identical at any WeaveWorkers setting,
// including the -wj 1 serial reference.
//
// Differential checking: the shadow oracle (internal/check) is sharded
// per core — exact, because each core is the single writer of its
// window. Program-order checks run at bound time against the core's own
// shard; cross-core effects (an LLC replay eviction writing another
// core's dirty block back to DRAM) are applied to the owning shard
// serially during the weave. Structural invariant sweeps run at quantum
// boundaries, where replay has made the shared structures consistent.

// bwLine is one overlay entry: the core's private view of its own
// pending LLC changes this quantum (fills and invalidations the weave
// has not applied yet).
type bwLine struct {
	present bool
	ver     uint64
}

// bwEventKind classifies a logged shared-domain event.
type bwEventKind uint8

const (
	// bwEvLLCRead is a read reaching the LLC (demand or prefetch):
	// predicted hit, predicted miss to DRAM, or an SDC-to-hierarchy
	// transfer (bwFXfer). Replay runs the real lookup / MSHR / fill.
	bwEvLLCRead bwEventKind = iota
	// bwEvLLCBypass is a bypass-path (Selective-Cache ablation) access
	// served at the LLC or DRAM without allocation.
	bwEvLLCBypass
	// bwEvLLCWB is a dirty write-back fill into the LLC.
	bwEvLLCWB
	// bwEvLLCInval purges the LLC copy (SDC write took ownership).
	bwEvLLCInval
	// bwEvDRAMRead / bwEvDRAMWrite access DRAM directly (SDC fast path,
	// bypass path, SDC write-backs).
	bwEvDRAMRead
	bwEvDRAMWrite
	// bwEvDir* replay SDCDir transitions (stats/LRU-bearing lookups,
	// sharer-set changes).
	bwEvDirLookup
	bwEvDirAdd
	bwEvDirRemove
	bwEvDirInvalAll
)

// bwEvent flag bits.
const (
	// bwFXfer marks an LLC read filled by an SDC transfer rather than
	// DRAM.
	bwFXfer uint8 = 1 << iota
	// bwFWrite marks a bypass event as a store.
	bwFWrite
	// bwFPf marks prefetch traffic: replayed for state/stats but its
	// latency never skews the core (prefetches are off the critical
	// path).
	bwFPf
	// bwFExcl marks a directory AddSharer as an exclusive write upgrade.
	bwFExcl
)

// bwEvent is one buffered shared-domain access. The weave replays
// events in (t, core, seq) order: t is the estimated shared-domain
// arrival time, core/seq break ties deterministically (seq is the
// event's position in its core's log, i.e. program order).
type bwEvent struct {
	t    int64
	est  int64 // estimated ready time; skew = actual - est (0: no skew)
	blk  mem.BlockAddr
	addr mem.Addr
	ver  uint64 // version stamp the fill installs (checked runs)
	core int32
	seq  int32
	kind bwEventKind
	flag uint8
	size uint8
}

// bwCore is one core's bound-phase state.
type bwCore struct {
	eng *bwEngine
	id  int32
	// overlay is the core's private view of its own LLC changes this
	// quantum, consulted before the frozen LLC (bwLLCView).
	overlay map[mem.BlockAddr]bwLine
	// log is the quantum's event buffer, in program order.
	log []bwEvent
	// skew accumulates Σ(actual − estimated) latency from the weave.
	// Positive skew stalls the core at the quantum boundary and resets;
	// negative skew persists as credit against future corrections.
	skew int64
	// tClock makes the core's logged timestamps non-decreasing: some
	// events are stamped with completion times (an SDC fill's AddSharer
	// at the fill's ready time) while later program-order events carry
	// earlier issue times; without the clamp the (t, core, seq) weave
	// order could replay them inverted — e.g. a directory InvalidateAll
	// before the AddSharer it must undo, leaving a stale sharer bit.
	// With it, weave order always respects per-core program order.
	tClock int64
}

// logEv appends an event to the core's log, stamping provenance and
// clamping t so the core's event times never run backwards.
func (b *bwCore) logEv(e bwEvent) {
	if e.t < b.tClock {
		e.t = b.tClock
	} else {
		b.tClock = e.t
	}
	e.core = b.id
	e.seq = int32(len(b.log))
	b.log = append(b.log, e)
}

// bwDeferredEvict is an SDCDir capacity eviction raised during replay;
// the SDC invalidations are applied at weave end (the bound phase that
// logged the quantum's events saw the copies as still live, so they
// cannot be yanked mid-replay).
type bwDeferredEvict struct {
	blk     mem.BlockAddr
	sharers uint64
}

// bwEngine drives the quantum loop for one system.
type bwEngine struct {
	sys     *System
	quantum int64
	workers int
	// dramEst is the deterministic DRAM latency estimate used by the
	// bound phase: the unloaded row-hit channel latency. The weave
	// charges the difference to the real bank/bus reservations as skew.
	dramEst int64
	cores   []*bwCore
	// quanta counts completed quanta (the value passed to QuantumTaps).
	quanta int64

	// Scratch reused across quanta.
	events   []bwEvent
	live     []*mcSlot
	panics   []any
	deferred []bwDeferredEvict

	// sweepMark is the total instruction count at the last invariant
	// sweep (engine-driven; per-core observeSlow sweeps are disarmed
	// under this engine).
	sweepMark int64
}

func newBWEngine(sys *System) *bwEngine {
	eng := &bwEngine{
		sys:     sys,
		quantum: sys.cfg.Quantum,
		workers: sys.cfg.WeaveWorkers,
		dramEst: sys.dram.MinLatency(),
	}
	if eng.workers <= 0 {
		eng.workers = runtime.GOMAXPROCS(0)
	}
	for i, c := range sys.cores {
		b := &bwCore{eng: eng, id: int32(i), overlay: make(map[mem.BlockAddr]bwLine)}
		c.dom = b
		eng.cores = append(eng.cores, b)
		// Sweeps are engine-driven at quantum boundaries (the shared
		// structures are only consistent there); disarm the per-core
		// observeSlow trigger.
		c.nextSweep = noEpoch
		if sys.chk != nil {
			// Shard the oracle: program-order checks go against the
			// core's own shard (exact — single writer per window);
			// sys.chk keeps the structural sweeps and the merge base.
			c.chk = check.New(sys.cfg.CheckLevel)
		}
	}
	return eng
}

// deferEvict buffers an SDCDir capacity eviction raised during replay.
func (eng *bwEngine) deferEvict(blk mem.BlockAddr, sharers uint64) {
	eng.deferred = append(eng.deferred, bwDeferredEvict{blk: blk, sharers: sharers})
}

// applyDeferredEvicts performs the SDC back-invalidations of directory
// entries evicted during replay. An entry re-added later in the same
// weave keeps its copies: only cores the *final* directory state no
// longer tracks are invalidated, preserving the SDC ⟺ SDCDir invariant
// at the sweep point.
func (eng *bwEngine) applyDeferredEvicts() {
	s := eng.sys
	for _, d := range eng.deferred {
		sharers := d.sharers
		if cur, _, ok := s.sdcDir.Probe(d.blk); ok {
			sharers &^= cur // re-added: still tracked
		}
		s.onSDCDirEvict(d.blk, sharers)
	}
	eng.deferred = eng.deferred[:0]
}

// boundOne advances one core's private simulation to the quantum
// boundary (or its stream's end). Runs concurrently with other cores'
// bound tasks: everything it touches is private to the slot except
// read-only probes of the frozen shared structures.
func (eng *bwEngine) boundOne(sl *mcSlot, qEnd int64) {
	c := sl.c
	if qt, ok := c.cpuCore.Tap.(mem.QuantumTap); ok {
		qt.BeginQuantum(eng.quanta)
	}
	for sl.alive && c.cpuCore.DispatchCycle() < qEnd {
		it, ok := sl.stream.next()
		if !ok {
			sl.alive = false
			return
		}
		if it.isProgress {
			if o, okp := c.oracle.(trace.ProgressSink); okp && o != nil {
				o.SetProgress(it.progress)
			}
			continue
		}
		if !c.observe(it.rec) {
			// Window closed: under bound–weave a core stops at its own
			// boundary (the legacy engine replays finished cores for
			// contention; here that would never terminate when the quantum
			// exceeds the run). Purely core-local, hence deterministic.
			return
		}
	}
}

// boundPhase runs every live core's bound task, fanned out over up to
// eng.workers host goroutines. Tasks are independent, so the worker
// count affects scheduling only, never results; workers ≤ 1 (or a
// single live core) degrades to the in-place serial reference.
func (eng *bwEngine) boundPhase(slots []*mcSlot, qEnd int64) {
	live := eng.live[:0]
	for _, sl := range slots {
		if sl.alive && !sl.c.doneMeasure {
			live = append(live, sl)
		}
	}
	eng.live = live

	workers := eng.workers
	if workers > len(live) {
		workers = len(live)
	}
	if workers <= 1 {
		for _, sl := range live {
			eng.boundOne(sl, qEnd)
		}
		return
	}

	if cap(eng.panics) < workers {
		eng.panics = make([]any, workers)
	}
	panics := eng.panics[:workers]
	for i := range panics {
		panics[i] = nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[w] = r
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(live) {
					return
				}
				eng.boundOne(live[i], qEnd)
			}
		}(w)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			// Re-raise on the engine goroutine; RunMultiCoreOn's deferred
			// stopAndDrain keeps producer goroutines from leaking.
			panic(p)
		}
	}
}

// weave merges the quantum's event logs in (t, core, seq) order and
// replays them serially against the real shared structures, then
// settles the quantum: deferred directory evictions, skew stalls,
// overlay/log reset.
func (eng *bwEngine) weave() {
	evs := eng.events[:0]
	for _, b := range eng.cores {
		evs = append(evs, b.log...)
	}
	slices.SortFunc(evs, func(a, b bwEvent) int {
		if c := cmp.Compare(a.t, b.t); c != 0 {
			return c
		}
		if c := cmp.Compare(a.core, b.core); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for i := range evs {
		eng.replay(&evs[i])
	}
	eng.events = evs[:0]
	eng.applyDeferredEvicts()
	for _, b := range eng.cores {
		b.log = b.log[:0]
		clear(b.overlay)
		if b.skew > 0 {
			c := eng.sys.cores[b.id]
			c.cpuCore.Stall(c.cpuCore.DispatchCycle() + b.skew)
			b.skew = 0
		}
	}
	eng.quanta++
}

// replay applies one event to the shared structures through the direct
// shared domain and accumulates latency skew for skew-bearing kinds
// (est > 0, non-prefetch).
func (eng *bwEngine) replay(e *bwEvent) {
	s := eng.sys
	c := s.cores[e.core]
	pf := e.flag&bwFPf != 0
	var actual int64
	switch e.kind {
	case bwEvLLCRead:
		fetch := fetchDRAM
		if e.flag&bwFXfer != 0 {
			fetch = fetchXfer
		}
		actual, _, _ = s.llcServe(c, e.blk, e.addr, e.size, pf, e.t, fetch, e.ver)
	case bwEvLLCBypass:
		actual = eng.replayLLCBypass(e)
	case bwEvLLCWB:
		s.llcWriteback(c, e.blk, e.t, e.ver)
		return
	case bwEvLLCInval:
		// Dirty data transferred into the logging core's SDC fill; the
		// LLC copy is just dropped (move semantics, no write-back).
		s.llcInvalidate(c, e.blk, e.t)
		return
	case bwEvDRAMRead:
		actual = s.dramRead(c, e.blk, e.t, pf)
	case bwEvDRAMWrite:
		// Writes are posted: the bound phase already returned; only the
		// bank/bus reservation is replayed. The oracle's DRAM-version
		// update ran at bound time in the owner's shard.
		s.dram.Access(e.blk, true, e.t)
		return
	case bwEvDirLookup:
		s.dirLookup(c, e.blk, e.t)
		return
	case bwEvDirAdd:
		s.dirAdd(c, e.blk, e.t, e.flag&bwFExcl != 0)
		return
	case bwEvDirRemove:
		s.dirRemove(c, e.blk, e.t)
		return
	case bwEvDirInvalAll:
		s.dirInvalidateAll(c, e.blk, e.t)
		return
	}
	if e.est > 0 && !pf {
		eng.cores[e.core].skew += actual - e.est
	}
}

// replayLLCBypass replays a bypass-path access: a real lookup against
// the LLC (no allocation on miss), falling back to DRAM when the bound
// phase's view hit was falsified by a cross-core eviction.
func (eng *bwEngine) replayLLCBypass(e *bwEvent) int64 {
	s := eng.sys
	write := e.flag&bwFWrite != 0
	res := s.llc.Lookup(e.blk, e.addr, e.size, write, false, e.t)
	if res.Hit {
		if write && s.chk != nil {
			s.llc.SetVer(e.blk, e.ver)
		}
		return res.ReadyAt
	}
	if write {
		// The store's version now lands in DRAM instead of the LLC line.
		s.dramWrite(nil, e.blk, e.t, e.ver)
		return e.t + 1
	}
	return s.dram.Access(e.blk, false, e.t)
}

// sweepIfDue runs a structural invariant sweep when enough instructions
// retired since the last one. Called between quanta, where the weave
// has made the shared structures consistent with the private ones.
func (eng *bwEngine) sweepIfDue(final bool) {
	if eng.sys.chk == nil || eng.sys.chk.Level() != check.Full {
		return
	}
	var total int64
	for _, c := range eng.sys.cores {
		total += c.cpuCore.Instructions
	}
	if final || total-eng.sweepMark >= checkSweepEvery {
		eng.sweepMark = total
		eng.sys.CheckInvariants()
	}
}

// runBoundWeave is the bound–weave replacement for the legacy serial
// scheduler loop in RunMultiCoreOn (which owns slot startup and the
// deferred drain).
func runBoundWeave(sys *System, ws []Workload, slots []*mcSlot) *MultiResult {
	eng := newBWEngine(sys)
	if sys.sdcDir != nil {
		// Replay-time capacity evictions: the bound phase that logged the
		// quantum saw the SDC copies as live, so the back-invalidations
		// wait for the weave's end (applyDeferredEvicts).
		defer sys.sdcDir.SetOnEvict(sys.sdcDir.SetOnEvict(eng.deferEvict))
	}
	defer func() {
		for _, c := range sys.cores {
			c.dom = sys
		}
	}()

	remaining := 0
	for _, sl := range slots {
		if sl.alive {
			remaining++
		}
	}

	qEnd := eng.quantum
	for remaining > 0 {
		eng.boundPhase(slots, qEnd)
		eng.weave()
		eng.sweepIfDue(false)

		remaining = 0
		minClock := int64(noEpoch)
		for _, sl := range slots {
			if sl.alive && !sl.c.doneMeasure {
				if cc := sl.c.cpuCore.DispatchCycle(); cc < minClock {
					minClock = cc
				}
				remaining++
			} else if !sl.alive && !sl.c.doneMeasure {
				// Stream ended mid-window: close the core out (idempotent).
				sl.c.finish()
			}
		}

		// Advance the boundary. When every live core is already past
		// several quanta (e.g. a long skew stall), skip ahead to the
		// first boundary beyond the slowest live core — deterministic,
		// since it depends only on simulated clocks.
		next := qEnd + eng.quantum
		if minClock != noEpoch {
			if q := (minClock/eng.quantum + 1) * eng.quantum; q > next {
				next = q
			}
		}
		qEnd = next
	}

	stopAndDrain(slots)
	raiseKernelPanics(slots)

	res := collectMulti(sys, ws, slots)
	eng.sweepIfDue(true) // final structural sweep at a consistent point
	if sys.chk != nil {
		sum := sys.chk.Summary()
		for _, c := range sys.cores {
			if c.chk != nil && c.chk != sys.chk {
				sum = sum.Merge(c.chk.Summary())
			}
		}
		res.Check = sum
	}
	return res
}

// --- the logged shared domain (sharedDomain for the bound phase) ---
//
// Every method answers from the core's view — its own overlay of
// pending LLC changes over the frozen LLC — with deterministic
// estimated latencies, and logs the operation for the weave. Under
// disjoint per-core windows this core is the only possible sharer of
// its blocks and no other core's private cache can hold them, so the
// directory question is answered by the core's own SDC (the invariant
// sweeps verify SDC ⟺ SDCDir) and the remote probe and purge are empty.

// llcCopy returns the core's view of its own block in the LLC: the
// quantum's overlay first, then the frozen LLC. Cross-core replay
// evictions can falsify a predicted hit, which the replay repairs by
// refetching (fetchDRAM).
func (b *bwCore) llcCopy(c *coreCtx, blk mem.BlockAddr) (bool, uint64) {
	if ln, ok := b.overlay[blk]; ok {
		return ln.present, ln.ver
	}
	if llc := c.sys.llc; llc.Probe(blk) {
		return true, llc.VerOf(blk)
	}
	return false, 0
}

func (b *bwCore) llcInvalidate(_ *coreCtx, blk mem.BlockAddr, t int64) {
	b.logEv(bwEvent{kind: bwEvLLCInval, t: t, blk: blk})
	b.overlay[blk] = bwLine{}
}

func (b *bwCore) llcWriteback(_ *coreCtx, blk mem.BlockAddr, t int64, ver uint64) {
	b.logEv(bwEvent{kind: bwEvLLCWB, t: t, blk: blk, ver: ver})
	b.overlay[blk] = bwLine{present: true, ver: ver}
}

// dramRead returns the unloaded estimate; the weave charges the real
// bank/bus reservation's difference as skew (unless pf).
func (b *bwCore) dramRead(_ *coreCtx, blk mem.BlockAddr, t int64, pf bool) int64 {
	est := t + b.eng.dramEst
	var f uint8
	if pf {
		f = bwFPf
	}
	b.logEv(bwEvent{kind: bwEvDRAMRead, t: t, est: est, blk: blk, flag: f})
	return est
}

// dramWrite updates the oracle's DRAM version in the core's own shard
// at once (program order); the replay only reserves bank/bus time.
func (b *bwCore) dramWrite(c *coreCtx, blk mem.BlockAddr, t int64, ver uint64) {
	b.logEv(bwEvent{kind: bwEvDRAMWrite, t: t, blk: blk, ver: ver})
	if c.chk != nil {
		c.chk.DRAMWrite(blk, ver)
	}
}

func (b *bwCore) dirLookup(c *coreCtx, blk mem.BlockAddr, t int64) (uint64, bool) {
	b.logEv(bwEvent{kind: bwEvDirLookup, t: t, blk: blk})
	if c.sdc != nil && c.sdc.Probe(blk) {
		return 1 << c.id, true
	}
	return 0, false
}

func (b *bwCore) dirAdd(_ *coreCtx, blk mem.BlockAddr, t int64, excl bool) {
	var f uint8
	if excl {
		f = bwFExcl
	}
	b.logEv(bwEvent{kind: bwEvDirAdd, t: t, blk: blk, flag: f})
}

func (b *bwCore) dirRemove(_ *coreCtx, blk mem.BlockAddr, t int64) {
	b.logEv(bwEvent{kind: bwEvDirRemove, t: t, blk: blk})
}

func (b *bwCore) dirInvalidateAll(_ *coreCtx, blk mem.BlockAddr, t int64) {
	b.logEv(bwEvent{kind: bwEvDirInvalAll, t: t, blk: blk})
}

func (b *bwCore) remoteCopy(*coreCtx, mem.BlockAddr) (bool, uint64) { return false, 0 }

func (b *bwCore) purgeRemote(*coreCtx, mem.BlockAddr) {}

// llcRead serves against the view with estimated latencies and logs
// the read for the weave, which replays it through llcServe.
func (b *bwCore) llcRead(c *coreCtx, blk mem.BlockAddr, addr mem.Addr, size uint8, pf bool, issue int64) mem.Response {
	s := c.sys
	var f uint8
	if pf {
		f = bwFPf
	}

	if present, hver := b.llcCopy(c, blk); present {
		est := issue + s.llc.Latency()
		b.logEv(bwEvent{kind: bwEvLLCRead, t: issue, est: est, blk: blk, addr: addr, size: size, ver: hver, flag: f})
		c.verScratch = hver
		return mem.Response{Ready: est, Source: mem.ServedLLC}
	}

	t := issue + s.llc.Latency() // miss still pays the lookup

	// SDC-to-hierarchy transfer: the directory question is answered by
	// the core's own SDC; the directory transitions replay in order.
	if s.sdcDir != nil && c.sdc != nil && c.sdc.Probe(blk) {
		b.dirLookup(c, blk, t)
		var ver uint64
		if c.chk != nil {
			ver = c.sdc.VerOf(blk)
		}
		if present, dirty := c.sdc.Invalidate(blk); present && dirty {
			b.dramWrite(c, blk, t, ver)
		}
		b.dirInvalidateAll(c, blk, t)
		ready := t + s.sdcDir.Latency() + s.cfg.DirLatency/8
		b.logEv(bwEvent{kind: bwEvLLCRead, t: t, est: ready, blk: blk, addr: addr, size: size, ver: ver, flag: f | bwFXfer})
		b.overlay[blk] = bwLine{present: true, ver: ver}
		c.verScratch = ver
		return mem.Response{Ready: ready, Source: mem.ServedSDC}
	}

	// Miss to DRAM.
	est := t + b.eng.dramEst
	var ver uint64
	if c.chk != nil {
		ver = c.chk.DRAMRead(blk)
	}
	c.verScratch = ver
	b.logEv(bwEvent{kind: bwEvLLCRead, t: t, est: est, blk: blk, addr: addr, size: size, ver: ver, flag: f})
	b.overlay[blk] = bwLine{present: true, ver: ver}
	return mem.Response{Ready: est, Source: mem.ServedDRAM}
}

// llcBypass serves the bypass tail against the view: LLC, else DRAM,
// no allocation anywhere.
func (b *bwCore) llcBypass(c *coreCtx, blk mem.BlockAddr, addr mem.Addr, size uint8, write bool, t int64) mem.Response {
	s := c.sys
	if present, hver := b.llcCopy(c, blk); present {
		at := t + c.l2.Latency()
		est := at + s.llc.Latency()
		var f uint8
		var ver uint64
		skewEst := est
		if write {
			// Stores absorb at dispatch; their latency never reaches the
			// core, so the event carries no skew reference.
			f, skewEst = bwFWrite, 0
			if c.chk != nil {
				ver = c.chk.StoreAbsorbed(blk)
				b.overlay[blk] = bwLine{present: true, ver: ver}
			}
		} else if c.chk != nil {
			c.chk.CheckLoad(c.id, c.curPC, blk, mem.ServedLLC, hver)
		}
		b.logEv(bwEvent{kind: bwEvLLCBypass, t: at, est: skewEst, blk: blk, addr: addr, size: size, ver: ver, flag: f})
		return mem.Response{Ready: est, Source: mem.ServedLLC}
	}
	if write {
		var ver uint64
		if c.chk != nil {
			ver = c.chk.StoreAbsorbed(blk)
		}
		b.dramWrite(c, blk, t, ver)
		return mem.Response{Ready: t + 1, Source: mem.ServedDRAM}
	}
	est := b.dramRead(c, blk, t, false)
	if c.chk != nil {
		c.chk.CheckLoad(c.id, c.curPC, blk, mem.ServedDRAM, c.chk.DRAMRead(blk))
	}
	return mem.Response{Ready: est, Source: mem.ServedDRAM}
}
