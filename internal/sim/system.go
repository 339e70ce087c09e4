package sim

import (
	"fmt"
	"math/bits"

	"graphmem/internal/cache"
	"graphmem/internal/check"
	"graphmem/internal/coherence"
	corepkg "graphmem/internal/core"
	"graphmem/internal/cpu"
	"graphmem/internal/dram"
	"graphmem/internal/kernels"
	"graphmem/internal/mem"
	"graphmem/internal/obs"
	"graphmem/internal/prefetch"
	"graphmem/internal/stats"
	"graphmem/internal/tlb"
)

// ptOffset places the synthetic page-table region far inside each
// core's address window, beyond any workload allocation.
const ptOffset = mem.Addr(1) << 39

// Workload binds a prepared kernel instance to the core slot whose
// address window its regions live in.
type Workload struct {
	// Name labels the workload ("pr.kron", ...).
	Name string
	// Inst is the kernel instance, prepared with mem.NewSpace(slot).
	Inst kernels.Instance
	// Space is the address space the instance was prepared in.
	Space *mem.Space
}

// Observer receives every demand load with its serving level, during
// the measurement window only (the Fig. 3 characterization hook).
type Observer func(coreID int, pc uint64, blk mem.BlockAddr, served mem.ServedBy)

// System is one simulated machine instance running one or more
// workloads.
type System struct {
	cfg    Config
	llc    *cache.Cache
	sdcDir *coherence.SDCDir
	dram   *dram.Memory
	cores  []*coreCtx
	chk    *check.Checker // nil unless cfg.CheckLevel != check.Off

	// llcpf is the shared cross-core LLC prefetcher (the "pickle"
	// preset), nil otherwise. It observes demand misses from every core
	// at the LLC. Both engines touch it only from serial code — the
	// legacy multi-core engine interleaves cores on one goroutine, and
	// the bound–weave engine trains/issues during the serial weave
	// replay — so one shared scratch buffer is safe.
	llcpf    prefetch.Prefetcher
	llcPfBuf []mem.BlockAddr

	// warming is true while the sampling engine is functionally warming
	// (never set for unsampled runs): the direct dramWrite, which every
	// write-back the warm walk shares with the detailed one ends in,
	// then touches the row instead of issuing timed DRAM traffic.
	warming bool

	// Observer, when set, sees demand loads in the measure window.
	Observer Observer
}

// Checker returns the differential checker, or nil when checking is
// off.
func (s *System) Checker() *check.Checker { return s.chk }

type coreCtx struct {
	id  int
	sys *System
	w   Workload

	cpuCore *cpu.Core
	l1d     *cache.Cache
	victim  *cache.Cache
	l2      *cache.Cache
	sdc     *cache.Cache
	lp      *corepkg.LP
	alp     *corepkg.AdaptiveLP
	tlbs    *tlb.Hierarchy
	l1pf    prefetch.Prefetcher
	sdcpf   prefetch.Prefetcher
	l2pf    prefetch.Prefetcher
	imppf   prefetch.Prefetcher // indirect-memory prefetcher, nil unless preset enables it
	oracle  cache.NextUseOracle
	irreg   []*mem.Region
	noSPP   bool

	pfBuf []mem.BlockAddr
	// sppBuf holds l2Access's SPP candidates across the recursive
	// prefetch walk (which reuses pfBuf), so the demand path allocates
	// nothing per record. l2Access never nests inside itself with
	// pf=false, so one buffer per core suffices.
	sppBuf []mem.BlockAddr

	// Window accounting.
	inMeasure    bool
	doneMeasure  bool
	baseCounters stats.CoreStats // snapshot at warm-up end

	// Epoch sampler state (armed by beginMeasure when the config's
	// EpochInterval is positive; nextEpoch is noEpoch otherwise, so
	// the hot loop pays a single comparison).
	nextEpoch int64
	epochBase stats.CoreStats   // snapshot at the current epoch start
	epochs    []obs.EpochSample // completed epoch deltas

	// Flight-recorder state (nil / disarmed unless cfg.FlightRecorder).
	// recorder owns the run's data; fr aliases it only while the
	// measurement window is open — beginMeasure attaches it (and the
	// cpu/cache/dram taps), the window-close snapshot detaches — so the
	// recorder's totals are exactly the measurement-window deltas.
	// nextFR is the next occupancy-sample boundary (noEpoch when
	// disarmed, folding into the observe fast path's one comparison).
	recorder   *obs.Recorder
	fr         *obs.Recorder
	nextFR     int64
	frInterval int64

	// Final measure-window stats (valid once doneMeasure).
	measured stats.CoreStats

	// Serving-level counters (running totals; snapshot like the rest).
	served [8]int64

	// Differential-checker state (nil / unused when checking is off;
	// every hook site is gated on chk != nil so the Off cost is one
	// pointer compare). curPC carries the access PC into the routing
	// paths, whose signatures the direct-call unit tests pin down;
	// verScratch carries the version a hierarchy serve delivered back
	// up from l2Access/llcAccess (0 = unknown, e.g. MSHR merges).
	chk        *check.Checker
	curPC      uint64
	verScratch uint64
	// nextSweep triggers the periodic invariant sweep (check.Full),
	// armed like nextEpoch so the hot loop pays one comparison.
	nextSweep int64
	// nextEvent is the earliest of every armed boundary above (sweep,
	// warm-up end, epoch, measure end); observe's fast path compares
	// the instruction count against it once per record. Zero initially
	// so the first record takes the slow path and arms it.
	nextEvent int64

	// dom is the core's shared domain: the System itself (direct) under
	// the serial engines, the core's bwCore (logged) during a
	// bound–weave run.
	dom sharedDomain

	// Statistical-sampling state (warm.go / checkpoint.go). warmMode is
	// warmOff for unsampled runs, making observe's extra cost one byte
	// compare per record; under sampling it cycles functional-warm ↔ off
	// at sample boundaries, or starts in warmDrain when a warm-up
	// checkpoint was found. nextSampleStart/nextSampleEnd fold into the
	// nextEvent boundary minimum like every other window boundary.
	warmMode        uint8
	warmWalkFn      tlb.WarmWalkFunc
	nextSampleStart int64
	nextSampleMeas  int64
	nextSampleEnd   int64
	sampleK         int
	sampleBase      stats.CoreStats
	sampleDeltas    []stats.CoreStats
	// Checkpoint bookkeeping: drainTo is the instruction position the
	// restored warm-up ended at (drainCount tracks progress toward it);
	// ckptPayload holds the decoded state until the drain arrives;
	// ckptCommit publishes a freshly captured warm-up on a store miss.
	drainTo     int64
	drainCount  int64
	ckptPayload []byte
	ckptCommit  func([]byte) error
	ckptHit     bool
}

// warmMode values.
const (
	warmOff        = iota // detailed simulation (the only mode when sampling is off)
	warmFunctional        // functional warming: tags/recency/row state, no timing
	warmDrain             // checkpoint resume: count instructions only, touch nothing
)

// checkSweepEvery is the retired-instruction period of the structural
// invariant sweep in check.Full runs.
const checkSweepEvery = 4096

// oracleMux dispatches T-OPT rank queries to the owning core's
// workload oracle based on the address window.
type oracleMux struct {
	oracles []cache.NextUseOracle
}

// poptOracle coarsens ranks to 32 epochs, modelling P-OPT's quantized
// re-reference matrix.
type poptOracle struct {
	inner cache.NextUseOracle
}

// Rank implements cache.NextUseOracle.
func (p poptOracle) Rank(blk mem.BlockAddr) uint8 {
	r := p.inner.Rank(blk)
	if r == cache.RankMax {
		return r
	}
	return r &^ 7
}

// Rank implements cache.NextUseOracle.
func (m *oracleMux) Rank(blk mem.BlockAddr) uint8 {
	coreID := blockOwner(blk)
	if coreID < len(m.oracles) && m.oracles[coreID] != nil {
		return m.oracles[coreID].Rank(blk)
	}
	return cache.RankDefault
}

// NewSystem builds a machine from cfg with one workload per core slot.
// Slots may hold a zero Workload (idle core).
func NewSystem(cfg Config, ws []Workload) *System {
	if len(ws) != cfg.Cores {
		panic("sim: workload count must equal core count")
	}
	if cfg.Sampling.Enabled() {
		// The sampler owns the window state machine and the byte-identity
		// contract of the other observation subsystems; it composes with
		// none of them. Misconfigurations panic here, at machine build
		// time, rather than producing silently wrong estimates.
		if !cfg.Sampling.Valid() {
			panic(fmt.Sprintf("sim: invalid sampling plan %+v", cfg.Sampling.Plan))
		}
		if cfg.Cores != 1 {
			panic("sim: sampling requires a single-core machine")
		}
		if cfg.CheckLevel != check.Off || cfg.EpochInterval > 0 || cfg.FlightRecorder || cfg.Quantum > 0 {
			panic("sim: sampling composes with none of check/epochs/flight-recorder/bound-weave")
		}
	}
	s := &System{cfg: cfg, dram: dram.NewMemory(cfg.DRAM, cfg.DRAMChannels)}
	if cfg.CheckLevel != check.Off {
		s.chk = check.New(cfg.CheckLevel)
	}

	llcCfg := cfg.llcConfig()
	if cfg.LLCRRIP {
		llcCfg.Policy = cache.SRRIP{}
	}
	mux := &oracleMux{oracles: make([]cache.NextUseOracle, cfg.Cores)}
	if cfg.LLCTOPT {
		var oracle cache.NextUseOracle = mux
		if cfg.LLCPOPT {
			// P-OPT: the re-reference matrix occupies one LLC way per
			// set and is itself epoch-quantized.
			llcCfg.SizeBytes = llcCfg.SizeBytes / llcCfg.Ways * (llcCfg.Ways - 1)
			llcCfg.Ways--
			oracle = poptOracle{inner: mux}
		}
		llcCfg.Policy = &cache.TOPT{Oracle: oracle}
	}
	s.llc = cache.New(llcCfg)

	if cfg.Routing == RouteLP || cfg.Routing == RouteExpert {
		s.sdcDir = coherence.New(cfg.sdcDirConfig(), s.onSDCDirEvict)
	}

	for i := 0; i < cfg.Cores; i++ {
		c := &coreCtx{id: i, sys: s, dom: s, w: ws[i], nextEpoch: noEpoch, chk: s.chk, nextSweep: noEpoch, nextFR: noEpoch,
			nextSampleStart: noEpoch, nextSampleMeas: noEpoch, nextSampleEnd: noEpoch}
		if cfg.Sampling.Enabled() {
			// The warm-up itself runs under functional warming; detailed
			// simulation only happens inside samples.
			c.warmMode = warmFunctional
			s.warming = true
		}
		if cfg.CheckLevel == check.Full {
			c.nextSweep = checkSweepEvery
		}
		if cfg.FlightRecorder {
			c.frInterval = cfg.frInterval()
			c.recorder = obs.NewRecorder(c.frInterval)
		}
		l1Cfg := cfg.L1D
		c.l1d = cache.New(l1Cfg)
		if cfg.VictimEntries > 0 {
			c.victim = cache.New(cache.Config{
				Name:      "VC",
				SizeBytes: cfg.VictimEntries * mem.BlockSize,
				Ways:      cfg.VictimEntries, // fully associative
				Latency:   1,
			})
		}
		l2Cfg := cfg.L2
		if cfg.L2Distill {
			l2Cfg.Distill = true
			l2Cfg.DistillWOCWays = cfg.L2DistillWays
		}
		c.l2 = cache.New(l2Cfg)
		if cfg.Routing == RouteLP || cfg.Routing == RouteExpert {
			c.sdc = cache.New(cfg.SDC)
			c.sdcpf = prefetch.NextLine{}
		}
		if cfg.Routing == RouteLP || cfg.Routing == RouteBypass {
			if cfg.LPAdaptive {
				c.alp = corepkg.NewAdaptiveLP(cfg.LP)
				c.lp = c.alp.LP
			} else {
				c.lp = corepkg.NewLP(cfg.LP)
			}
		}
		// Prefetcher wiring: the default is Table I's (next-line at the
		// L1D/SDC, SPP at the L2); cfg.Prefetchers swaps in one of the
		// competitive baseline presets or turns every prefetcher off.
		c.l1pf = prefetch.NextLine{}
		c.l2pf = prefetch.NewSPP()
		switch cfg.Prefetchers {
		case "", "spp":
			// Default Table I wiring.
		case "none":
			c.l1pf = prefetch.None{}
			c.sdcpf = prefetch.None{}
			c.noSPP = true
		case "nextline":
			c.noSPP = true
		case "stride":
			c.l2pf = prefetch.NewStride()
		case "imp":
			c.noSPP = true
			c.imppf = prefetch.NewIMP()
		case "pickle":
			c.noSPP = true
			if s.llcpf == nil {
				s.llcpf = prefetch.NewPickle()
			}
		case "spp+imp":
			c.imppf = prefetch.NewIMP()
		default:
			panic(fmt.Sprintf("sim: unknown prefetcher preset %q", cfg.Prefetchers))
		}
		ptBase := mem.Addr(uint64(i)<<mem.CoreSpaceBits) + ptOffset
		cc := c
		c.tlbs = tlb.DefaultHierarchy(ptBase, func(addr mem.Addr, now int64) int64 {
			return cc.walkRead(addr, now)
		})
		if cfg.Sampling.Enabled() {
			// Warm page walks touch the leaf PTE block through the warm L2
			// path, mirroring walkRead; the closure is built once so the
			// warm loop allocates nothing per record.
			c.warmWalkFn = func(addr mem.Addr) {
				cc.warmL2(addr.Block(), addr, 8)
			}
		}
		cpuCfg := cfg.CPU
		if cfg.BranchMissPenalty > 0 {
			cpuCfg.BranchMissPenalty = cfg.BranchMissPenalty
		}
		c.cpuCore = cpu.New(cpuCfg, func(pc uint64, addr mem.Addr, size uint8, write bool, issue int64, hint mem.ValueHint) mem.Response {
			return cc.access(pc, addr, size, write, issue, hint)
		})
		if ws[i].Inst != nil {
			c.irreg = ws[i].Inst.IrregularRegions()
			if cfg.LLCTOPT {
				c.oracle = ws[i].Inst.Oracle()
				mux.oracles[i] = c.oracle
			}
		}
		s.cores = append(s.cores, c)
	}
	return s
}

// onSDCDirEvict implements the SDCDir replacement semantics of Section
// III-C: every SDC in sharers invalidates the block, writing it back to
// DRAM at its core's clock if dirty. The bound–weave engine calls it at
// the end of each weave for the evictions its replay deferred.
func (s *System) onSDCDirEvict(blk mem.BlockAddr, sharers uint64) {
	for i, c := range s.cores {
		if sharers&(1<<i) == 0 || c.sdc == nil {
			continue
		}
		var ver uint64
		if s.chk != nil {
			ver = c.sdc.VerOf(blk)
		}
		if present, dirty := c.sdc.Invalidate(blk); present && dirty {
			s.dramWrite(c, blk, c.cpuCore.Cycle(), ver)
		}
	}
}

// sharedDomain is the seam between a core's private walk (L1D, victim
// cache, SDC, L2, TLBs, LP) and the shared domain: the LLC, DRAM, the
// SDCDir, and the other cores' private caches. The direct
// implementation (*System, below) performs each operation at once; it
// serves single-core runs and the serial interleaver, and the
// bound–weave weave replays through it. The logged implementation
// (*bwCore, boundweave.go) serves the bound phase: it answers from the
// core's frozen view with estimated latencies and logs the operation
// for the weave. t is the operation's arrival at the shared domain;
// operations that take no time ignore it on the direct side.
type sharedDomain interface {
	// llcRead serves an L2 miss (demand, or prefetch when pf) and
	// leaves the delivered version in c.verScratch.
	llcRead(c *coreCtx, blk mem.BlockAddr, addr mem.Addr, size uint8, pf bool, issue int64) mem.Response
	// llcWriteback installs a dirty L2 victim in the LLC.
	llcWriteback(c *coreCtx, blk mem.BlockAddr, t int64, ver uint64)
	// llcBypass serves a bypass-path access that missed the L1D and L2:
	// from the LLC if it holds the block, else DRAM, allocating nowhere.
	llcBypass(c *coreCtx, blk mem.BlockAddr, addr mem.Addr, size uint8, write bool, t int64) mem.Response
	// llcCopy reports whether the LLC holds blk, and the copy's version
	// in checked runs.
	llcCopy(c *coreCtx, blk mem.BlockAddr) (held bool, ver uint64)
	// llcInvalidate drops the LLC copy: an SDC write took ownership.
	llcInvalidate(c *coreCtx, blk mem.BlockAddr, t int64)
	// dramRead reads blk from DRAM and returns the completion time.
	dramRead(c *coreCtx, blk mem.BlockAddr, t int64, pf bool) int64
	// dramWrite posts a write-back of blk carrying version ver.
	dramWrite(c *coreCtx, blk mem.BlockAddr, t int64, ver uint64)
	// dirLookup is the stats-bearing SDCDir lookup; ok reports an entry.
	dirLookup(c *coreCtx, blk mem.BlockAddr, t int64) (sharers uint64, ok bool)
	// dirAdd, dirRemove and dirInvalidateAll are c's SDCDir transitions.
	dirAdd(c *coreCtx, blk mem.BlockAddr, t int64, excl bool)
	dirRemove(c *coreCtx, blk mem.BlockAddr, t int64)
	dirInvalidateAll(c *coreCtx, blk mem.BlockAddr, t int64)
	// remoteCopy probes the other cores' private stacks: held reports
	// a copy, ver is the first holder's topmost version.
	remoteCopy(c *coreCtx, blk mem.BlockAddr) (held bool, ver uint64)
	// purgeRemote invalidates every other core's private copies.
	purgeRemote(c *coreCtx, blk mem.BlockAddr)
}

// blockOwner returns the core whose address window blk belongs to.
func blockOwner(blk mem.BlockAddr) int {
	return int(uint64(blk) >> (mem.CoreSpaceBits - mem.BlockBits))
}

// chkOf returns the oracle that tracks blk, nil when checking is off:
// the owning core's shard under bound–weave, which under the serial
// engines is s.chk itself (every core shares it).
func (s *System) chkOf(blk mem.BlockAddr) *check.Checker {
	if s.chk == nil {
		return nil
	}
	if o := blockOwner(blk); o < len(s.cores) {
		return s.cores[o].chk
	}
	return s.chk
}

// LLC miss sources for llcServe.
const (
	// fetchCoherent is the direct read: the SDCDir, then the other
	// cores' private caches, then DRAM.
	fetchCoherent uint8 = iota
	// fetchDRAM replays a bound-phase read from DRAM: a predicted miss,
	// or the refetch of a predicted hit that an earlier replayed event
	// evicted (sound: each window has a single writer, so the logged
	// version is current).
	fetchDRAM
	// fetchXfer replays a bound-phase SDC-to-LLC transfer: the bound
	// phase already moved the SDC copy and logged the directory
	// transitions, so only the transfer hop is charged. Transfers do
	// not train Pickle.
	fetchXfer
)

// llcServe is the LLC read protocol both engines share: lookup, MSHR
// merge or allocate, the miss fetch, then the miss tail (fill, version
// stamp, dirty-victim write-back, MSHR release, Pickle training). ver
// is the version a replayed fetch installs; the coherent fetch finds
// its own. It returns the ready time, the serving level and the
// delivered version.
func (s *System) llcServe(c *coreCtx, blk mem.BlockAddr, addr mem.Addr, size uint8, pf bool, issue int64, fetch uint8, ver uint64) (int64, mem.ServedBy, uint64) {
	res := s.llc.Lookup(blk, addr, size, false, pf, issue)
	if res.Hit {
		if s.chk != nil {
			ver = s.llc.VerOf(blk)
		}
		return res.ReadyAt, mem.ServedLLC, ver
	}
	t := res.ReadyAt
	if m := s.llc.MSHR(); m != nil {
		if ready, inflight := m.Lookup(blk, t); inflight {
			s.llc.Stats.MergedMSHR++
			return max64(ready, t), mem.ServedDRAM, 0 // merged: delivered version unknown
		}
		t = m.Allocate(blk, t)
	}

	src := mem.ServedDRAM
	switch fetch {
	case fetchCoherent:
		src, ver = s.llcMissSource(c, blk, t)
	case fetchXfer:
		src = mem.ServedSDC
	}
	var ready int64
	switch src {
	case mem.ServedSDC:
		ready = t + s.sdcDir.Latency() + s.cfg.DirLatency/8
	case mem.ServedRemote:
		ready = t + s.cfg.DirLatency/2
	default:
		ready = s.dram.Access(blk, false, t)
		if k := s.chkOf(blk); k != nil && fetch == fetchCoherent {
			ver = k.DRAMRead(blk)
		}
	}

	v := s.llc.Fill(blk, addr, size, false, false, ready)
	if s.chk != nil {
		s.llc.SetVer(blk, ver)
	}
	if v.Valid && v.Dirty {
		s.dramWrite(c, v.Blk, ready, v.Ver)
	}
	if m := s.llc.MSHR(); m != nil {
		m.Complete(blk, ready)
	}

	// Cross-core LLC prefetcher (the "pickle" preset): it trains on
	// every core's demand misses here and issues into the shared level.
	// Both engines run this serially — the interleaver in its global
	// order, bound–weave in its (t, core, seq) replay — so its state is
	// independent of -wj.
	if s.llcpf != nil && !pf && fetch != fetchXfer {
		s.llcPfBuf = s.llcpf.OnAccess(mem.AccessInfo{Addr: addr, Blk: blk, Core: c.id}, s.llcPfBuf[:0])
		for _, cand := range s.llcPfBuf {
			s.llcPrefetch(cand, t)
		}
	}
	return ready, src, ver
}

// llcMissSource finds a direct LLC miss's data outside the LLC. SDC
// copies transfer over and are invalidated so the hierarchy becomes
// the owner (dirty ones are written back); else a remote private copy
// serves it; else DRAM.
func (s *System) llcMissSource(c *coreCtx, blk mem.BlockAddr, t int64) (mem.ServedBy, uint64) {
	if s.sdcDir != nil {
		if sharers, _, ok := s.sdcDir.Lookup(blk); ok && sharers != 0 {
			var ver uint64
			for i, rc := range s.cores {
				if sharers&(1<<i) == 0 || rc.sdc == nil {
					continue
				}
				if s.chk != nil && ver == 0 {
					ver = rc.sdc.VerOf(blk)
				}
				if present, dirty := rc.sdc.Invalidate(blk); present && dirty {
					s.dramWrite(c, blk, t, ver)
				}
			}
			s.sdcDir.InvalidateAll(blk)
			return mem.ServedSDC, ver
		}
	}
	if held, ver := s.remoteCopy(c, blk); held {
		return mem.ServedRemote, ver
	}
	return mem.ServedDRAM, 0
}

// llcPrefetch fetches a Pickle candidate into the shared LLC. The block
// must be absent from the whole hierarchy (a shared-level fill above a
// private dirty copy would shadow it in lookup order) and from every
// SDC (the SDCDir owns those blocks).
func (s *System) llcPrefetch(blk mem.BlockAddr, now int64) {
	if s.anyCacheHolds(blk) {
		return
	}
	if s.sdcDir != nil {
		if sharers, _, ok := s.sdcDir.Lookup(blk); ok && sharers != 0 {
			return
		}
	}
	if m := s.llc.MSHR(); m != nil {
		if _, inflight := m.Lookup(blk, now); inflight {
			return
		}
		if m.Outstanding(now) >= m.Capacity() {
			return
		}
		m.Allocate(blk, now)
	}
	ready := s.dram.Access(blk, false, now)
	v := s.llc.Fill(blk, blk.Addr(), mem.BlockSize, false, true, ready)
	s.llc.MarkPrefetchFill()
	if k := s.chkOf(blk); k != nil {
		s.llc.SetVer(blk, k.DRAMRead(blk))
	}
	if v.Valid && v.Dirty {
		s.dramWrite(nil, v.Blk, ready, v.Ver)
	}
	if m := s.llc.MSHR(); m != nil {
		m.Complete(blk, ready)
	}
}

// anyCacheHolds reports whether the LLC or any core's private stack
// holds blk.
func (s *System) anyCacheHolds(blk mem.BlockAddr) bool {
	if s.llc.Probe(blk) {
		return true
	}
	held, _ := s.remoteCopy(nil, blk)
	return held
}

// --- the direct shared domain ---

func (s *System) llcRead(c *coreCtx, blk mem.BlockAddr, addr mem.Addr, size uint8, pf bool, issue int64) mem.Response {
	ready, src, ver := s.llcServe(c, blk, addr, size, pf, issue, fetchCoherent, 0)
	c.verScratch = ver
	return mem.Response{Ready: ready, Source: src}
}

func (s *System) llcWriteback(c *coreCtx, blk mem.BlockAddr, t int64, ver uint64) {
	v := s.llc.Fill(blk, blk.Addr(), mem.BlockSize, true, false, t)
	s.llc.Stats.Writebacks++
	if s.chk != nil {
		s.llc.SetVer(blk, ver)
	}
	if v.Valid && v.Dirty {
		s.dramWrite(c, v.Blk, t, v.Ver)
	}
}

func (s *System) llcBypass(c *coreCtx, blk mem.BlockAddr, addr mem.Addr, size uint8, write bool, t int64) mem.Response {
	if s.llc.Probe(blk) {
		r := s.llc.Lookup(blk, addr, size, write, false, t+c.l2.Latency())
		c.checkCacheHit(s.llc, blk, mem.ServedLLC, write)
		return mem.Response{Ready: r.ReadyAt, Source: mem.ServedLLC}
	}
	done := s.dram.Access(blk, write, t)
	if write {
		done = t + 1 // write-through to DRAM, off the critical path
	}
	if c.chk != nil {
		if write {
			c.chk.DRAMWrite(blk, c.chk.StoreAbsorbed(blk))
		} else {
			c.chk.CheckLoad(c.id, c.curPC, blk, mem.ServedDRAM, c.chk.DRAMRead(blk))
		}
	}
	return mem.Response{Ready: done, Source: mem.ServedDRAM}
}

func (s *System) llcCopy(_ *coreCtx, blk mem.BlockAddr) (bool, uint64) {
	if !s.llc.Probe(blk) {
		return false, 0
	}
	if s.chk == nil {
		return true, 0
	}
	return true, s.llc.VerOf(blk)
}

func (s *System) llcInvalidate(_ *coreCtx, blk mem.BlockAddr, _ int64) { s.llc.Invalidate(blk) }

func (s *System) dramRead(_ *coreCtx, blk mem.BlockAddr, t int64, _ bool) int64 {
	return s.dram.Access(blk, false, t)
}

// dramWrite posts a timed write-back; under functional warming it is
// a timeless row touch instead.
func (s *System) dramWrite(_ *coreCtx, blk mem.BlockAddr, t int64, ver uint64) {
	if s.warming {
		s.dram.WarmTouch(blk)
		return
	}
	s.dram.Access(blk, true, t)
	if k := s.chkOf(blk); k != nil {
		k.DRAMWrite(blk, ver)
	}
}

func (s *System) dirLookup(_ *coreCtx, blk mem.BlockAddr, _ int64) (uint64, bool) {
	sharers, _, ok := s.sdcDir.Lookup(blk)
	return sharers, ok
}

func (s *System) dirAdd(c *coreCtx, blk mem.BlockAddr, _ int64, excl bool) {
	s.sdcDir.AddSharer(blk, c.id, excl)
}

func (s *System) dirRemove(c *coreCtx, blk mem.BlockAddr, _ int64) { s.sdcDir.RemoveSharer(blk, c.id) }

func (s *System) dirInvalidateAll(_ *coreCtx, blk mem.BlockAddr, _ int64) {
	s.sdcDir.InvalidateAll(blk)
}

func (s *System) remoteCopy(c *coreCtx, blk mem.BlockAddr) (bool, uint64) {
	for _, rc := range s.cores {
		if rc == c {
			continue
		}
		if top, ver := rc.privateCopy(blk); top != nil {
			return true, ver
		}
	}
	return false, 0
}

func (s *System) purgeRemote(c *coreCtx, blk mem.BlockAddr) {
	for _, rc := range s.cores {
		if rc != c {
			rc.purgePrivate(blk)
		}
	}
}

// privateCopy probes c's private stack top-down — L1D, victim cache,
// L2 — without touching state. top is the topmost cache holding blk
// (nil when none does); ver is the first version stamp found top-down
// (checked runs only, 0 when unknown).
func (c *coreCtx) privateCopy(blk mem.BlockAddr) (top *cache.Cache, ver uint64) {
	switch {
	case c.l1d.Probe(blk):
		top = c.l1d
	case c.victim != nil && c.victim.Probe(blk):
		top = c.victim
	case c.l2.Probe(blk):
		top = c.l2
	default:
		return nil, 0
	}
	if c.chk != nil { // VerOf is 0 where the block is absent
		if ver = c.l1d.VerOf(blk); ver == 0 && c.victim != nil {
			ver = c.victim.VerOf(blk)
		}
		if ver == 0 {
			ver = c.l2.VerOf(blk)
		}
	}
	return top, ver
}

// purgePrivate invalidates every copy of blk in c's private stack.
func (c *coreCtx) purgePrivate(blk mem.BlockAddr) {
	c.l1d.Invalidate(blk)
	if c.victim != nil {
		c.victim.Invalidate(blk)
	}
	c.l2.Invalidate(blk)
}

// isIrregular applies the Expert Programmer classification.
func (c *coreCtx) isIrregular(addr mem.Addr) bool {
	for _, r := range c.irreg {
		if r.Contains(addr) {
			return true
		}
	}
	return false
}

// access is the core-side entry point for every demand memory access.
func (c *coreCtx) access(pc uint64, addr mem.Addr, size uint8, write bool, issue int64, hint mem.ValueHint) mem.Response {
	blk := addr.Block()
	// Stash the PC for oracle provenance and for PC-keyed prefetchers;
	// the routing paths keep their test-pinned signatures.
	c.curPC = pc

	// The indirect-memory prefetcher observes every demand load —
	// including L1 hits, since the index stream it trains on is usually
	// cache-resident — and issues its gather prefetches at the index
	// load's issue point, through the L1 prefetch path. Issuing here
	// (rather than after the dependent gather misses) is what hides the
	// dependent-load serialization IMP targets.
	if c.imppf != nil && !write {
		c.pfBuf = c.imppf.OnAccess(mem.AccessInfo{PC: pc, Addr: addr, Blk: blk, Core: c.id, ValueHint: hint}, c.pfBuf[:0])
		for _, cand := range c.pfBuf {
			c.l1Prefetch(cand, issue)
		}
	}

	// Address translation proceeds in parallel with the (VIPT) L1D/SDC
	// lookup; only its excess latency delays the response.
	transReady := c.tlbs.Translate(addr.Page(), issue)

	averse := false
	switch c.sys.cfg.Routing {
	case RouteLP, RouteBypass:
		averse = c.lp.PredictAndUpdate(pc, blk)
	case RouteExpert:
		averse = c.isIrregular(addr)
	}
	if c.fr != nil && c.sys.cfg.Routing != RouteNone {
		c.fr.LPDecision(averse)
	}

	var resp mem.Response
	switch {
	case averse && c.sys.cfg.Routing == RouteBypass:
		resp = c.bypassAccess(blk, addr, size, write, issue)
	case averse:
		resp = c.sdcAccess(blk, addr, size, write, issue)
	default:
		resp = c.l1Access(blk, addr, size, write, issue)
	}
	if transReady > resp.Ready {
		resp.Ready = transReady
	}

	if !write {
		c.served[resp.Source]++
		if c.fr != nil {
			c.fr.Load(resp.Source, resp.Ready-issue)
		}
		if c.alp != nil {
			c.alp.Feedback(averse, resp.Source)
		}
		if c.inMeasure && c.sys.Observer != nil {
			c.sys.Observer(c.id, pc, blk, resp.Source)
		}
	}
	return resp
}

// walkRead serves a page-walker leaf-PTE read: it enters the hierarchy
// at the L2, as hardware walkers do.
func (c *coreCtx) walkRead(addr mem.Addr, now int64) int64 {
	resp := c.l2Access(addr.Block(), addr, 8, false, false, now)
	return resp.Ready
}

// bypassAccess is the Selective-Cache-style ablation path: a
// cache-averse access checks the L1D (it is adjacent and VIPT), then
// goes straight to DRAM without allocating anywhere — L2/LLC bypass
// with no SDC. Cached copies in the local hierarchy still serve the
// access for correctness.
func (c *coreCtx) bypassAccess(blk mem.BlockAddr, addr mem.Addr, size uint8, write bool, issue int64) mem.Response {
	res := c.l1d.Lookup(blk, addr, size, write, false, issue)
	if res.Hit {
		c.checkCacheHit(c.l1d, blk, mem.ServedL1D, write)
		return mem.Response{Ready: res.ReadyAt, Source: mem.ServedL1D}
	}
	t := res.ReadyAt
	if present, _ := c.l2.ProbeDirty(blk); present {
		r := c.l2.Lookup(blk, addr, size, write, false, t)
		c.checkCacheHit(c.l2, blk, mem.ServedL2, write)
		return mem.Response{Ready: r.ReadyAt, Source: mem.ServedL2}
	}
	return c.dom.llcBypass(c, blk, addr, size, write, t)
}

// checkCacheHit applies the oracle to a demand hit in a cache: a load
// must have been served at the architectural version, a store dirties
// the line and bumps the version in place.
func (c *coreCtx) checkCacheHit(ch *cache.Cache, blk mem.BlockAddr, src mem.ServedBy, write bool) {
	if c.chk == nil {
		return
	}
	if write {
		ch.SetVer(blk, c.chk.StoreAbsorbed(blk))
		return
	}
	c.chk.CheckLoad(c.id, c.curPC, blk, src, ch.VerOf(blk))
}

// --- SDC path (Section III-D) ---

func (c *coreCtx) sdcAccess(blk mem.BlockAddr, addr mem.Addr, size uint8, write bool, issue int64) mem.Response {
	s := c.sys
	res := c.sdc.Lookup(blk, addr, size, write, false, issue)
	if res.Hit {
		if write {
			// A write upgrade: any other SDC sharing the line must
			// invalidate its copy before we own it Modified.
			sharers, _ := c.dom.dirLookup(c, blk, res.ReadyAt)
			for m := sharers &^ (1 << c.id); m != 0; m &= m - 1 {
				if rc := s.cores[bits.TrailingZeros64(m)]; rc.sdc != nil {
					rc.sdc.Invalidate(blk)
				}
			}
			c.dom.dirAdd(c, blk, res.ReadyAt, true)
		}
		c.checkCacheHit(c.sdc, blk, mem.ServedSDC, write)
		return mem.Response{Ready: res.ReadyAt, Source: mem.ServedSDC}
	}

	// Miss: merge into an outstanding fill if one exists.
	t := res.ReadyAt // lookup latency charged
	if m := c.sdc.MSHR(); m != nil {
		if ready, inflight := m.Lookup(blk, t); inflight {
			c.sdc.Stats.MergedMSHR++
			if c.chk != nil && !write {
				// Merged into an in-flight fill: served version unknown.
				c.chk.CheckLoad(c.id, c.curPC, blk, mem.ServedSDC, 0)
			}
			return mem.Response{Ready: max64(ready, t), Source: mem.ServedSDC}
		}
		t = m.Allocate(blk, t)
	}

	// Coherence: the SDCDir and the cache directory are checked while
	// the DRAM access is launched speculatively (the "fast path to
	// DRAM" of Section III-A); whichever source holds the valid copy
	// serves. The local L1D/L2 are probed en route (they sit between
	// the SDC and the directory), so locally-resident blocks serve at
	// their own latency rather than a full directory round.
	dirDone := t + s.cfg.DirLatency

	// (a) Our own or a remote SDC holds it.
	if sharers, _ := c.dom.dirLookup(c, blk, t); sharers != 0 {
		ready := c.serveFromSDCs(blk, addr, size, write, sharers, dirDone)
		if m := c.sdc.MSHR(); m != nil {
			m.Complete(blk, ready)
		}
		src := mem.ServedRemote
		if sharers == 1<<c.id {
			src = mem.ServedSDC
		}
		return mem.Response{Ready: ready, Source: src}
	}

	// (b) A private cache or the LLC holds it.
	if ready, found, src := c.serveFromHierarchy(blk, addr, size, write, dirDone); found {
		if m := c.sdc.MSHR(); m != nil {
			m.Complete(blk, ready)
		}
		return mem.Response{Ready: ready, Source: src}
	}

	// (c) DRAM, bypassing L2 and LLC. The row access was launched in
	// parallel with the directory check.
	ready := max64(c.dom.dramRead(c, blk, t, false), dirDone)
	var ver uint64
	if c.chk != nil {
		ver = c.chk.DRAMRead(blk)
		if write {
			ver = c.chk.StoreAbsorbed(blk)
		} else {
			c.chk.CheckLoad(c.id, c.curPC, blk, mem.ServedDRAM, ver)
		}
	}
	c.fillSDC(blk, addr, size, write, ready, ver)
	if m := c.sdc.MSHR(); m != nil {
		m.Complete(blk, ready)
	}

	// Next-line prefetch into the SDC (Table I), only for blocks nobody
	// else holds, to keep coherence simple. Prefetches launch at the
	// demand's issue point, not its completion, so they never reserve
	// bank/bus time in the future of younger demand requests.
	c.pfBuf = c.sdcpf.OnAccess(mem.AccessInfo{PC: c.curPC, Addr: addr, Blk: blk, Core: c.id}, c.pfBuf[:0])
	for _, cand := range c.pfBuf {
		c.sdcPrefetch(cand, t)
	}

	return mem.Response{Ready: ready, Source: mem.ServedDRAM}
}

// serveFromSDCs handles an SDC miss that hits in the SDCDir: the block
// lives in one or more SDCs (possibly our own — e.g. a WOC-less alias —
// but normally a remote core's).
func (c *coreCtx) serveFromSDCs(blk mem.BlockAddr, addr mem.Addr, size uint8, write bool, sharers uint64, t int64) int64 {
	s := c.sys
	ready := t
	if write {
		// Invalidate every copy; dirty data goes back to DRAM, then we
		// own the line Modified.
		for i := range s.cores {
			if sharers&(1<<i) == 0 || s.cores[i].sdc == nil {
				continue
			}
			var ver uint64
			if c.chk != nil {
				ver = s.cores[i].sdc.VerOf(blk)
			}
			if present, dirty := s.cores[i].sdc.Invalidate(blk); present && dirty {
				c.dom.dramWrite(c, blk, t, ver)
			}
		}
		c.dom.dirInvalidateAll(c, blk, t)
		var fillVer uint64
		if c.chk != nil {
			fillVer = c.chk.StoreAbsorbed(blk)
		}
		c.fillSDC(blk, addr, size, true, ready, fillVer)
		return ready
	}
	// Read: a cache-to-cache transfer; join the sharers.
	remote := sharers&^(1<<c.id) != 0
	if remote {
		ready += s.cfg.DirLatency / 2 // transfer hop
	}
	var ver uint64
	if c.chk != nil {
		for i := range s.cores {
			if sharers&(1<<i) == 0 || s.cores[i].sdc == nil {
				continue
			}
			if v := s.cores[i].sdc.VerOf(blk); v != 0 {
				ver = v
				break
			}
		}
		src := mem.ServedSDC
		if remote {
			src = mem.ServedRemote
		}
		c.chk.CheckLoad(c.id, c.curPC, blk, src, ver)
	}
	c.fillSDC(blk, addr, size, false, ready, ver)
	return ready
}

// serveFromHierarchy probes the caller's and remote cores' private
// caches plus the shared LLC (the idealized full-map directory) for an
// SDC miss. A read is served in place — the copy stays where it is and
// the SDC is NOT filled, so the hierarchy remains the sole owner and no
// copy can go stale behind the SDC's back. A write takes exclusive
// ownership with move semantics: every hierarchy copy is purged and the
// dirty data transfers into the SDC fill (no DRAM write-back needed —
// the SDC copy becomes the owner).
func (c *coreCtx) serveFromHierarchy(blk mem.BlockAddr, addr mem.Addr, size uint8, write bool, t int64) (ready int64, found bool, src mem.ServedBy) {
	s, d := c.sys, c.dom
	// Locate the closest (topmost) copy for latency and provenance: the
	// requester's own private stack is probed top-down on the way to
	// the directory and serves at its own latency (negative lat
	// relative to the directory round).
	var lat int64
	switch top, _ := c.privateCopy(blk); top {
	case nil:
		if held, _ := d.llcCopy(c, blk); held {
			src = mem.ServedLLC
		} else if held, _ := d.remoteCopy(c, blk); held {
			lat, src = s.cfg.DirLatency/2, mem.ServedRemote
		} else {
			return 0, false, mem.ServedNone
		}
	case c.l1d:
		lat, src = c.l1d.Latency()-s.cfg.DirLatency, mem.ServedL1D
	case c.l2:
		lat, src = c.l2.Latency()-s.cfg.DirLatency, mem.ServedL2
	default: // the victim cache
		lat, src = c.victim.Latency()+c.l1d.Latency()-s.cfg.DirLatency, mem.ServedL1D
	}
	ready = t + lat

	// The topmost copy in the owning stack carries the newest version.
	var ver uint64
	if c.chk != nil {
		ver = c.hierarchyVer(blk)
	}

	if !write {
		if c.chk != nil {
			c.chk.CheckLoad(c.id, c.curPC, blk, src, ver)
		}
		return ready, true, src
	}

	// Write: purge every copy. Dirty data is not written back — it
	// transfers into the (dirty) SDC fill, which supersedes it.
	c.purgePrivate(blk)
	d.llcInvalidate(c, blk, ready)
	d.purgeRemote(c, blk)

	if c.chk != nil {
		ver = c.chk.StoreAbsorbed(blk)
	}
	c.fillSDC(blk, addr, size, true, ready, ver)
	return ready, true, src
}

// hierarchyVer returns the version of the topmost hierarchy copy of
// blk (own stack top-down, then the LLC, then remote stacks), 0 if
// unknown everywhere.
func (c *coreCtx) hierarchyVer(blk mem.BlockAddr) uint64 {
	if _, v := c.privateCopy(blk); v != 0 {
		return v
	}
	if _, v := c.dom.llcCopy(c, blk); v != 0 {
		return v
	}
	_, v := c.dom.remoteCopy(c, blk)
	return v
}

// fillSDC inserts a block into the SDC, handling victim write-back and
// SDCDir bookkeeping. dirty marks the filled copy modified (a store,
// or a dirty transfer from the hierarchy), which also makes the SDCDir
// entry Modified with this core as sole owner. ver is the
// architectural version stamp (0 when checking is off or unknown).
func (c *coreCtx) fillSDC(blk mem.BlockAddr, addr mem.Addr, size uint8, dirty bool, ready int64, ver uint64) {
	v := c.sdc.Fill(blk, addr, size, dirty, false, ready)
	if c.chk != nil {
		c.sdc.SetVer(blk, ver)
	}
	if v.Valid {
		c.dom.dirRemove(c, v.Blk, ready)
		if v.Dirty {
			c.dom.dramWrite(c, v.Blk, ready, v.Ver)
		}
	}
	c.dom.dirAdd(c, blk, ready, dirty)
}

// sdcPrefetch fetches a next-line candidate into the SDC from DRAM.
func (c *coreCtx) sdcPrefetch(blk mem.BlockAddr, now int64) {
	d := c.dom
	if c.sdc.Probe(blk) {
		return
	}
	if m := c.sdc.MSHR(); m != nil {
		if _, inflight := m.Lookup(blk, now); inflight {
			return
		}
		if m.Outstanding(now) >= m.Capacity() {
			return // never stall for a prefetch
		}
		m.Allocate(blk, now)
		// Released at issue: the entry never carries the fill's
		// completion time, since this deferred call would overwrite a
		// fill-time Complete. A modelling deviation (DESIGN.md, "Key
		// fidelity notes") whose fix changes results.
		defer m.Complete(blk, now)
	}
	// Skip candidates other agents hold; a real design would take the
	// coherent path, but dropping the prefetch is always safe.
	if _, held := d.dirLookup(c, blk, now); held {
		return
	}
	if held, _ := d.llcCopy(c, blk); held {
		return
	}
	if top, _ := c.privateCopy(blk); top != nil {
		return
	}
	if held, _ := d.remoteCopy(c, blk); held {
		return
	}
	done := d.dramRead(c, blk, now, true)
	var ver uint64
	if c.chk != nil {
		ver = c.chk.DRAMRead(blk)
	}
	c.fillSDC(blk, blk.Addr(), mem.BlockSize, false, done, ver)
	c.sdc.MarkPrefetchFill()
}

// --- conventional hierarchy path ---

func (c *coreCtx) l1Access(blk mem.BlockAddr, addr mem.Addr, size uint8, write bool, issue int64) mem.Response {
	s := c.sys
	res := c.l1d.Lookup(blk, addr, size, write, false, issue)
	if res.Hit {
		c.checkCacheHit(c.l1d, blk, mem.ServedL1D, write)
		return mem.Response{Ready: res.ReadyAt, Source: mem.ServedL1D}
	}
	t := res.ReadyAt

	// Victim cache: L1D conflict victims are one cycle away and swap
	// back in on a hit (Jouppi).
	if c.victim != nil {
		if vres := c.victim.Lookup(blk, addr, size, write, false, t); vres.Hit {
			var ver uint64
			if c.chk != nil {
				ver = c.victim.VerOf(blk)
				if write {
					ver = c.chk.StoreAbsorbed(blk)
				} else {
					c.chk.CheckLoad(c.id, c.curPC, blk, mem.ServedL1D, ver)
				}
			}
			_, dirty := c.victim.Invalidate(blk)
			c.fillL1(blk, addr, size, write || dirty, vres.ReadyAt, ver)
			return mem.Response{Ready: vres.ReadyAt, Source: mem.ServedL1D}
		}
	}

	// The SDC may hold the block (friendly access to data previously
	// classified averse): the SDCDir transfers it over. The whole SDC
	// domain gives the block up — every sharer's copy is invalidated
	// and the directory entry dropped — so no SDC copy can linger
	// untracked and go stale once the hierarchy owns the line.
	if s.sdcDir != nil {
		if sharers, _ := c.dom.dirLookup(c, blk, t); sharers&(1<<c.id) != 0 {
			ready := t + s.sdcDir.Latency() + c.sdc.Latency()
			var ver uint64
			if c.chk != nil {
				ver = c.sdc.VerOf(blk)
			}
			anyDirty := false
			for i := range s.cores {
				if sharers&(1<<i) == 0 || s.cores[i].sdc == nil {
					continue
				}
				if i == c.id && s.cfg.BreakSDCDirInval {
					// Fault injection (tests only): "forget" to
					// invalidate our own SDC copy while the directory
					// entry is still dropped below — the classic
					// untracked-stale-copy bug the oracle must catch.
					continue
				}
				if _, dirty := s.cores[i].sdc.Invalidate(blk); dirty {
					anyDirty = true
				}
			}
			c.dom.dirInvalidateAll(c, blk, t)
			if c.chk != nil {
				if write {
					ver = c.chk.StoreAbsorbed(blk)
				} else {
					c.chk.CheckLoad(c.id, c.curPC, blk, mem.ServedSDC, ver)
				}
			}
			c.fillL1(blk, addr, size, write || anyDirty, ready, ver)
			return mem.Response{Ready: ready, Source: mem.ServedSDC}
		}
	}

	if m := c.l1d.MSHR(); m != nil {
		if ready, inflight := m.Lookup(blk, t); inflight {
			c.l1d.Stats.MergedMSHR++
			if c.chk != nil && !write {
				// Merged into an in-flight fill: served version unknown.
				c.chk.CheckLoad(c.id, c.curPC, blk, mem.ServedL2, 0)
			}
			return mem.Response{Ready: max64(ready, t), Source: mem.ServedL2}
		}
		t = m.Allocate(blk, t)
	}

	resp := c.l2Access(blk, addr, size, write, false, t)
	var ver uint64
	if c.chk != nil {
		ver = c.verScratch
		if write {
			ver = c.chk.StoreAbsorbed(blk)
		} else {
			c.chk.CheckLoad(c.id, c.curPC, blk, resp.Source, c.verScratch)
		}
	}
	c.fillL1(blk, addr, size, write, resp.Ready, ver)
	if m := c.l1d.MSHR(); m != nil {
		m.Complete(blk, resp.Ready)
	}

	// Next-line prefetcher (Table I: attached to the L1D), degree 1,
	// triggered on demand misses; the prefetch walks the hierarchy
	// without stalling the core.
	c.pfBuf = c.l1pf.OnAccess(mem.AccessInfo{PC: c.curPC, Addr: addr, Blk: blk, Core: c.id}, c.pfBuf[:0])
	for _, cand := range c.pfBuf {
		c.l1Prefetch(cand, t)
	}
	return resp
}

// fillL1 inserts into the L1D, cascading victims into the victim cache
// (when configured) and dirty data down the hierarchy. ver is the
// version stamp of the filled copy (0 when checking is off).
func (c *coreCtx) fillL1(blk mem.BlockAddr, addr mem.Addr, size uint8, write bool, ready int64, ver uint64) {
	v := c.l1d.Fill(blk, addr, size, write, false, ready)
	if c.chk != nil {
		c.l1d.SetVer(blk, ver)
	}
	if !v.Valid {
		return
	}
	if c.victim != nil {
		vv := c.victim.Fill(v.Blk, v.Blk.Addr(), mem.BlockSize, v.Dirty, false, ready)
		if c.chk != nil {
			c.victim.SetVer(v.Blk, v.Ver)
		}
		if vv.Valid && vv.Dirty {
			c.writebackToL2(vv.Blk, ready, vv.Ver)
		}
		return
	}
	if v.Dirty {
		c.writebackToL2(v.Blk, ready, v.Ver)
	}
}

// writebackToL2 installs a dirty L1 victim in the L2 (allocate-on-
// write-back), cascading further victims. ver travels with the data.
func (c *coreCtx) writebackToL2(blk mem.BlockAddr, now int64, ver uint64) {
	v := c.l2.Fill(blk, blk.Addr(), mem.BlockSize, true, false, now)
	c.l2.Stats.Writebacks++
	if c.chk != nil {
		c.l2.SetVer(blk, ver)
	}
	if v.Valid && v.Dirty {
		c.dom.llcWriteback(c, v.Blk, now, v.Ver)
	}
}

func (c *coreCtx) l2Access(blk mem.BlockAddr, addr mem.Addr, size uint8, write, pf bool, issue int64) mem.Response {
	res := c.l2.Lookup(blk, addr, size, false, pf, issue)

	// SPP trains on every L2 demand access and issues lookahead
	// prefetches into the L2 (prefetch traffic does not re-train it).
	cands := c.sppBuf[:0]
	if !pf && !c.noSPP {
		c.pfBuf = c.l2pf.OnAccess(mem.AccessInfo{PC: c.curPC, Addr: addr, Blk: blk, Hit: res.Hit, Core: c.id}, c.pfBuf[:0])
		cands = append(cands, c.pfBuf...)
	}
	c.sppBuf = cands

	var resp mem.Response
	if res.Hit {
		if c.chk != nil {
			c.verScratch = c.l2.VerOf(blk)
		}
		resp = mem.Response{Ready: res.ReadyAt, Source: mem.ServedL2}
	} else {
		t := res.ReadyAt
		if m := c.l2.MSHR(); m != nil {
			if ready, inflight := m.Lookup(blk, t); inflight {
				c.l2.Stats.MergedMSHR++
				c.verScratch = 0 // merged: delivered version unknown
				resp = mem.Response{Ready: max64(ready, t), Source: mem.ServedLLC}
				return resp
			}
			t = m.Allocate(blk, t)
		}
		resp = c.dom.llcRead(c, blk, addr, size, pf, t)
		v := c.l2.Fill(blk, addr, size, false, false, resp.Ready)
		if c.chk != nil {
			// llcRead left the delivered version in verScratch.
			c.l2.SetVer(blk, c.verScratch)
		}
		if v.Valid && v.Dirty {
			c.dom.llcWriteback(c, v.Blk, resp.Ready, v.Ver)
		}
		if m := c.l2.MSHR(); m != nil {
			m.Complete(blk, resp.Ready)
		}
	}

	// Prefetches launch at the demand's L2-lookup point, never at its
	// completion time (see sdcAccess for why). They recurse into
	// llcRead and clobber verScratch with their own blocks' versions,
	// so the demand's delivered version is restored for the caller.
	dv := c.verScratch
	for _, cand := range cands {
		c.l2Prefetch(cand, res.ReadyAt)
	}
	c.verScratch = dv
	return resp
}

// l2Prefetch fetches an SPP candidate into the L2 via the LLC path.
func (c *coreCtx) l2Prefetch(blk mem.BlockAddr, now int64) {
	if c.l2.Probe(blk) {
		return
	}
	if m := c.l2.MSHR(); m != nil {
		if _, inflight := m.Lookup(blk, now); inflight {
			return
		}
		if m.Outstanding(now) >= m.Capacity() {
			return
		}
		m.Allocate(blk, now)
	}
	resp := c.dom.llcRead(c, blk, blk.Addr(), mem.BlockSize, true, now)
	v := c.l2.Fill(blk, blk.Addr(), mem.BlockSize, false, true, resp.Ready)
	c.l2.MarkPrefetchFill()
	if c.chk != nil {
		c.l2.SetVer(blk, c.verScratch)
	}
	if v.Valid && v.Dirty {
		c.dom.llcWriteback(c, v.Blk, resp.Ready, v.Ver)
	}
	if m := c.l2.MSHR(); m != nil {
		m.Complete(blk, resp.Ready)
	}
}

// l1Prefetch fetches a next-line candidate into the L1D via L2.
func (c *coreCtx) l1Prefetch(blk mem.BlockAddr, now int64) {
	// Skip when the L1D or the victim cache already holds the block: a
	// prefetch fill above a newer (possibly dirty) victim-cache copy
	// would resurrect a stale version ahead of it in lookup order.
	if c.l1d.Probe(blk) || (c.victim != nil && c.victim.Probe(blk)) {
		return
	}
	if m := c.l1d.MSHR(); m != nil {
		if _, inflight := m.Lookup(blk, now); inflight {
			return
		}
		if m.Outstanding(now) >= m.Capacity() {
			return
		}
		m.Allocate(blk, now)
	}
	resp := c.l2Access(blk, blk.Addr(), mem.BlockSize, false, true, now)
	v := c.l1d.Fill(blk, blk.Addr(), mem.BlockSize, false, true, resp.Ready)
	c.l1d.MarkPrefetchFill()
	if c.chk != nil {
		c.l1d.SetVer(blk, c.verScratch)
	}
	if v.Valid && v.Dirty {
		c.writebackToL2(v.Blk, resp.Ready, v.Ver)
	}
	if m := c.l1d.MSHR(); m != nil {
		m.Complete(blk, resp.Ready)
	}
}

// CheckInvariants runs one structural invariant sweep over every cache
// and the SDCDir (see internal/check/invariants.go). It is a no-op
// unless the run is at check.Full; the runner calls it every
// checkSweepEvery retired instructions and once more at the end.
func (s *System) CheckInvariants() {
	k := s.chk
	if k == nil || k.Level() != check.Full {
		return
	}
	k.Sweeps++
	k.CheckCache("LLC", s.llc)
	sdcs := make([]*cache.Cache, len(s.cores))
	for _, c := range s.cores {
		k.CheckCache(fmt.Sprintf("core%d/L1D", c.id), c.l1d)
		if c.victim != nil {
			k.CheckCache(fmt.Sprintf("core%d/VC", c.id), c.victim)
		}
		k.CheckCache(fmt.Sprintf("core%d/L2", c.id), c.l2)
		if c.sdc != nil {
			k.CheckCache(fmt.Sprintf("core%d/SDC", c.id), c.sdc)
		}
		sdcs[c.id] = c.sdc
	}
	if s.sdcDir != nil {
		k.CheckSDCDir(s.sdcDir, sdcs, func(blk mem.BlockAddr) bool {
			return s.anyCacheHolds(blk)
		})
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
