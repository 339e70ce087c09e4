// Functional warming for the statistical sampling engine
// (internal/sample): the warm-up window and the gaps between detailed
// samples replay the record stream through stat-free, timing-free
// mirrors of the routing paths in system.go. Tags, recency, dirty
// bits, predictor and directory state and DRAM open rows evolve exactly
// as a detailed run's would at the structural level; MSHRs,
// prefetchers, latencies and every Stats counter stay untouched, which
// is what keeps per-sample counter deltas clean and the warm-up
// checkpoint payload small.
//
// The mirrors assume the single-core machine the sampler is restricted
// to (NewSystem panics otherwise): no remote SDCs or private caches
// exist, so the remote-probe arms of the detailed paths are dead and
// deliberately not mirrored.
package sim

import (
	"graphmem/internal/mem"
	"graphmem/internal/stats"
	"graphmem/internal/trace"
)

// warmObserve consumes one record while warmMode != warmOff. In
// warmDrain (checkpoint resume) it only counts instructions until the
// recorded warm-up end, then restores the checkpointed state; in
// warmFunctional it retires the record into the counters and warm-
// touches the hierarchy, sharing observeSlow's boundary cascade with
// the detailed path.
func (c *coreCtx) warmObserve(r trace.Record) bool {
	if c.warmMode == warmDrain {
		c.drainCount += int64(r.NonMem) + 1
		if c.drainCount >= c.drainTo {
			c.resumeFromCheckpoint()
		}
		return true
	}
	c.cpuCore.WarmRetire(r)
	if !c.sys.cfg.Sampling.MisWarm {
		c.warmTouch(r)
	}
	if c.cpuCore.Instructions < c.nextEvent {
		return !c.doneMeasure
	}
	return c.observeSlow()
}

// warmTouch mirrors coreCtx.access: translation, LP/expert routing, and
// the chosen data path, all through the warm methods.
func (c *coreCtx) warmTouch(r trace.Record) {
	blk := r.Addr.Block()
	c.tlbs.WarmTranslate(r.Addr.Page(), c.warmWalkFn)

	averse := false
	switch c.sys.cfg.Routing {
	case RouteLP, RouteBypass:
		averse = c.lp.WarmPredictAndUpdate(r.PC, blk)
	case RouteExpert:
		averse = c.isIrregular(r.Addr)
	}
	switch {
	case averse && c.sys.cfg.Routing == RouteBypass:
		c.warmBypass(blk, r.Addr, r.Size, r.Write)
	case averse:
		c.warmSDC(blk, r.Addr, r.Size, r.Write)
	default:
		c.warmL1(blk, r.Addr, r.Size, r.Write)
	}
}

// warmBypass mirrors bypassAccess: serve from whatever level holds the
// block, else touch the DRAM row; nothing allocates.
func (c *coreCtx) warmBypass(blk mem.BlockAddr, addr mem.Addr, size uint8, write bool) {
	if c.l1d.WarmLookup(blk, addr, size, write) {
		return
	}
	if c.l2.WarmLookup(blk, addr, size, write) {
		return
	}
	if c.sys.llc.WarmLookup(blk, addr, size, write) {
		return
	}
	c.sys.dram.WarmTouch(blk)
}

// warmSDC mirrors sdcAccess minus MSHRs and the next-line prefetch.
func (c *coreCtx) warmSDC(blk mem.BlockAddr, addr mem.Addr, size uint8, write bool) {
	s := c.sys
	if c.sdc.WarmLookup(blk, addr, size, write) {
		if write {
			s.sdcDir.WarmAddSharer(blk, c.id, true)
		}
		return
	}
	// Miss. The directory may still track a copy (e.g. a WOC alias that
	// could not serve this word mask).
	if sharers, _, ok := s.sdcDir.WarmLookup(blk); ok && sharers != 0 {
		if write {
			if present, dirty := c.sdc.Invalidate(blk); present && dirty {
				s.dram.WarmTouch(blk)
			}
			s.sdcDir.InvalidateAll(blk)
		}
		c.warmFillSDC(blk, addr, size, write)
		return
	}
	// The hierarchy may hold it: reads are served in place (the detailed
	// path's pure probes change no state, so there is nothing to mirror);
	// writes purge every copy and take SDC ownership.
	if held := c.l1d.Probe(blk) ||
		(c.victim != nil && c.victim.Probe(blk)) ||
		c.l2.Probe(blk) || s.llc.Probe(blk); held {
		if write {
			s.llc.Invalidate(blk)
			c.l1d.Invalidate(blk)
			if c.victim != nil {
				c.victim.Invalidate(blk)
			}
			c.l2.Invalidate(blk)
			c.warmFillSDC(blk, addr, size, true)
		}
		return
	}
	// DRAM, bypassing L2 and LLC.
	s.dram.WarmTouch(blk)
	c.warmFillSDC(blk, addr, size, write)
	// Next-line prefetch into the SDC, exactly when the detailed path
	// issues one (a miss served from DRAM). Skipping prefetchers during
	// warming would leave the SDC tags systematically short of the
	// next-line content every sample starts from.
	c.pfBuf = c.sdcpf.OnAccess(mem.AccessInfo{Blk: blk, Addr: addr, Core: c.id}, c.pfBuf[:0])
	for _, cand := range c.pfBuf {
		c.warmSDCPrefetch(cand)
	}
}

// warmSDCPrefetch mirrors sdcPrefetch's fill conditions without MSHR
// occupancy checks (MSHRs are idle while warming).
func (c *coreCtx) warmSDCPrefetch(blk mem.BlockAddr) {
	s := c.sys
	if c.sdc.Probe(blk) {
		return
	}
	if _, _, held := s.sdcDir.WarmLookup(blk); held {
		return
	}
	if s.anyCacheHolds(blk) {
		return
	}
	s.dram.WarmTouch(blk)
	c.warmFillSDC(blk, blk.Addr(), mem.BlockSize, false)
}

// warmFillSDC mirrors fillSDC: insert, handle the victim's directory
// exit and dirty row touch, record the sharer.
func (c *coreCtx) warmFillSDC(blk mem.BlockAddr, addr mem.Addr, size uint8, dirty bool) {
	s := c.sys
	v := c.sdc.WarmFill(blk, addr, size, dirty)
	if v.Valid {
		s.sdcDir.RemoveSharer(v.Blk, c.id)
		if v.Dirty {
			s.dram.WarmTouch(v.Blk)
		}
	}
	s.sdcDir.WarmAddSharer(blk, c.id, dirty)
}

// warmL1 mirrors l1Access minus MSHRs and prefetchers.
func (c *coreCtx) warmL1(blk mem.BlockAddr, addr mem.Addr, size uint8, write bool) {
	s := c.sys
	if c.l1d.WarmLookup(blk, addr, size, write) {
		return
	}
	if c.victim != nil {
		if present, dirty := c.victim.ProbeDirty(blk); present {
			c.victim.Invalidate(blk)
			c.warmFillL1(blk, addr, size, write || dirty)
			return
		}
	}
	// SDC transfer: the whole SDC domain gives the block up.
	if s.sdcDir != nil {
		if sharers, _, ok := s.sdcDir.WarmLookup(blk); ok && sharers&(1<<c.id) != 0 {
			_, dirty := c.sdc.Invalidate(blk)
			s.sdcDir.InvalidateAll(blk)
			c.warmFillL1(blk, addr, size, write || dirty)
			return
		}
	}
	c.warmL2(blk, addr, size)
	c.warmFillL1(blk, addr, size, write)
	// Next-line prefetcher on the demand miss, as in l1Access.
	c.pfBuf = c.l1pf.OnAccess(mem.AccessInfo{Blk: blk, Addr: addr, Core: c.id}, c.pfBuf[:0])
	for _, cand := range c.pfBuf {
		c.warmL1Prefetch(cand)
	}
}

// warmL1Prefetch mirrors l1Prefetch minus MSHR occupancy checks.
func (c *coreCtx) warmL1Prefetch(blk mem.BlockAddr) {
	if c.l1d.Probe(blk) || (c.victim != nil && c.victim.Probe(blk)) {
		return
	}
	c.warmL2(blk, blk.Addr(), mem.BlockSize)
	c.warmFillL1(blk, blk.Addr(), mem.BlockSize, false)
}

// warmFillL1 mirrors fillL1's victim cascade.
func (c *coreCtx) warmFillL1(blk mem.BlockAddr, addr mem.Addr, size uint8, write bool) {
	v := c.l1d.WarmFill(blk, addr, size, write)
	if !v.Valid {
		return
	}
	if c.victim != nil {
		vv := c.victim.WarmFill(v.Blk, v.Blk.Addr(), mem.BlockSize, v.Dirty)
		if vv.Valid && vv.Dirty {
			c.warmWritebackL2(vv.Blk)
		}
		return
	}
	if v.Dirty {
		c.warmWritebackL2(v.Blk)
	}
}

// warmWritebackL2 mirrors writebackToL2 (allocate-on-write-back).
func (c *coreCtx) warmWritebackL2(blk mem.BlockAddr) {
	v := c.l2.WarmFill(blk, blk.Addr(), mem.BlockSize, true)
	if v.Valid && v.Dirty {
		c.warmWritebackLLC(v.Blk)
	}
}

// warmWritebackLLC mirrors writebackToLLC.
func (c *coreCtx) warmWritebackLLC(blk mem.BlockAddr) {
	v := c.sys.llc.WarmFill(blk, blk.Addr(), mem.BlockSize, true)
	if v.Valid && v.Dirty {
		c.sys.dram.WarmTouch(v.Blk)
	}
}

// warmL2 mirrors l2Access's demand path (L2 lookups never carry the
// write bit — stores dirty the L1 and arrive here as write-backs).
func (c *coreCtx) warmL2(blk mem.BlockAddr, addr mem.Addr, size uint8) {
	if c.l2.WarmLookup(blk, addr, size, false) {
		return
	}
	c.warmLLC(blk, addr, size)
	v := c.l2.WarmFill(blk, addr, size, false)
	if v.Valid && v.Dirty {
		c.warmWritebackLLC(v.Blk)
	}
}

// warmLLC mirrors llcAccess: an SDC sharer surrenders the block, then
// the fill happens from wherever the data came.
func (c *coreCtx) warmLLC(blk mem.BlockAddr, addr mem.Addr, size uint8) {
	s := c.sys
	if s.llc.WarmLookup(blk, addr, size, false) {
		return
	}
	fromSDC := false
	if s.sdcDir != nil {
		if sharers, _, ok := s.sdcDir.WarmLookup(blk); ok && sharers != 0 {
			if c.sdc != nil {
				if present, dirty := c.sdc.Invalidate(blk); present && dirty {
					s.dram.WarmTouch(blk)
				}
			}
			s.sdcDir.InvalidateAll(blk)
			fromSDC = true
		}
	}
	if !fromSDC {
		s.dram.WarmTouch(blk)
	}
	v := s.llc.WarmFill(blk, addr, size, false)
	if v.Valid && v.Dirty {
		s.dram.WarmTouch(v.Blk)
	}
}

// beginSample hands the record stream back to the detailed path. With a
// DetailWarm prefix the measured slice starts later (beginSampleMeasure)
// so MSHR/prefetcher/pipeline transients drain into discarded counters
// first; without one, measurement starts immediately.
func (c *coreCtx) beginSample() {
	c.warmMode = warmOff
	c.sys.warming = false
	c.nextSampleStart = noEpoch
	plan := c.sys.cfg.Sampling.Plan
	c.nextSampleEnd = c.cpuCore.Instructions + plan.DetailWarm + plan.SampleLen
	if plan.DetailWarm > 0 {
		c.nextSampleMeas = c.cpuCore.Instructions + plan.DetailWarm
		return
	}
	c.beginSampleMeasure()
}

// beginSampleMeasure snapshots the per-sample baseline at the end of
// the sample's detailed-warm prefix.
func (c *coreCtx) beginSampleMeasure() {
	c.sampleBase = c.snapshotCounters()
	c.nextSampleMeas = noEpoch
}

// endSample closes the running sample, appends its counter delta to the
// series, and schedules the next sample from the window base so the
// schedule never drifts with boundary overshoot.
func (c *coreCtx) endSample() {
	snap := c.snapshotCounters()
	c.sampleDeltas = append(c.sampleDeltas, stats.Delta(snap, c.sampleBase))
	c.warmMode = warmFunctional
	c.sys.warming = true
	c.nextSampleEnd = noEpoch
	c.sampleK++
	c.nextSampleStart = c.baseCounters.Instructions + c.sys.cfg.Sampling.NextStart(c.sampleK)
}

// beginMeasureSampled is beginMeasure's sampling variant: publish the
// warm-up checkpoint if this run warmed from scratch on a store miss,
// open the window, and arm the first sample.
func (c *coreCtx) beginMeasureSampled() {
	if c.ckptCommit != nil {
		// Errors publishing a checkpoint never fail the run: the store is
		// a wall-clock cache, not a correctness dependency.
		_ = c.ckptCommit(c.sys.encodeWarmState())
		c.ckptCommit = nil
	}
	c.baseCounters = c.snapshotCounters()
	c.inMeasure = true
	c.nextSampleStart = c.baseCounters.Instructions + c.sys.cfg.Sampling.NextStart(0)
	if c.cpuCore.Instructions >= c.nextSampleStart {
		c.beginSample()
	}
}

// measuredFromSamples closes the window in sampling mode: any open
// sample contributes its (possibly short) delta, and the window total
// is the sum over samples — warm periods spend no cycles and move no
// counters, so the sum is exactly the detailed portion of the window.
func (c *coreCtx) measuredFromSamples() {
	if c.nextSampleMeas != noEpoch {
		// The window closed inside a sample's discarded warm prefix:
		// nothing of this sample was measured.
		c.nextSampleMeas = noEpoch
		c.nextSampleEnd = noEpoch
	} else if c.nextSampleEnd != noEpoch {
		c.endSample()
	}
	c.warmMode = warmOff
	c.sys.warming = false
	c.nextSampleStart = noEpoch
	var m stats.CoreStats
	for i := range c.sampleDeltas {
		m.Add(&c.sampleDeltas[i])
	}
	c.measured = m
	c.doneMeasure = true
}
