package sim

import (
	"reflect"
	"testing"

	"graphmem/internal/check"
	"graphmem/internal/prefetch"
)

// TestPrefetchDefaultPresetIsBitIdentical pins that spelling out the
// default wiring ("spp") changes nothing against the empty preset.
func TestPrefetchDefaultPresetIsBitIdentical(t *testing.T) {
	cfg := TableI(1).BenchScale().WithWindows(100_000, 500_000)
	def := RunSingleCore(cfg, kronWorkload(t, "pr", 19))
	spelled := RunSingleCore(cfg.WithPrefetchers("spp"), kronWorkload(t, "pr", 19))
	if !reflect.DeepEqual(def.Stats, spelled.Stats) {
		t.Fatalf("preset \"spp\" differs from the default wiring:\ndefault: %+v\nspp:     %+v",
			def.Stats, spelled.Stats)
	}
}

// TestPrefetchPresetsCheckedClean runs every non-default preset under
// the full differential checker: prefetch fills must never corrupt the
// simulated memory image, whatever the candidate source. cc gathers
// from its first record, so the indirect prefetchers actually fire
// inside the window.
func TestPrefetchPresetsCheckedClean(t *testing.T) {
	cfg := TableI(1).BenchScale().WithWindows(100_000, 500_000).WithCheck(check.Full)
	for _, preset := range []string{"none", "nextline", "stride", "imp", "pickle", "spp+imp"} {
		res := RunSingleCore(cfg.WithPrefetchers(preset), kronWorkload(t, "cc", 19))
		if res.Check.Violations != 0 {
			t.Fatalf("preset %q: full-check run found %d violations; first: %v",
				preset, res.Check.Violations, res.Check.Details)
		}
		if res.Stats.Instructions < cfg.Measure {
			t.Fatalf("preset %q measured only %d instructions", preset, res.Stats.Instructions)
		}
	}
}

// TestIMPIssuesOnGatherKernel separates imp from the plain next-line
// machine it extends: on cc — whose index loads are value-annotated and
// whose comp[NA[i]] gathers start at the first record — the indirect
// prefetcher must generate candidates and move the counters.
func TestIMPIssuesOnGatherKernel(t *testing.T) {
	cfg := TableI(1).BenchScale().WithWindows(100_000, 500_000).WithPrefetchers("imp")
	w := kronWorkload(t, "cc", 19)
	ws := make([]Workload, cfg.Cores)
	ws[0] = w
	sys := NewSystem(cfg, ws)
	res := sys.RunCore0(w)
	imp := sys.cores[0].imppf.(*prefetch.IMP)
	if imp.Issued == 0 {
		t.Fatal("the indirect prefetcher generated no candidates on cc's gather stream")
	}
	nl := RunSingleCore(cfg.WithPrefetchers("nextline"), kronWorkload(t, "cc", 19))
	if reflect.DeepEqual(nl.Stats, res.Stats) {
		t.Fatal("imp run is bit-identical to nextline: the candidates changed nothing")
	}
}

// TestBranchMissPenaltyInjectsStalls pins the sensitivity knob's sim
// plumbing: Config.BranchMissPenalty must reach the core (misses are
// counted) and perturb the run. The cycle delta's sign is not asserted
// — refill stalls are often absorbed by ROB-full dispatch, and the
// shifted issue times feed back into DRAM row timing either way; the
// direction is a workload property the prefetch figure reports, not a
// contract. Zero-penalty bit-identity is pinned by the golden tables.
func TestBranchMissPenaltyInjectsStalls(t *testing.T) {
	base := RunSingleCore(TableI(1).BenchScale().WithWindows(100_000, 500_000), kronWorkload(t, "cc", 19))
	cfg := TableI(1).BenchScale().WithWindows(100_000, 500_000).WithBranchMissPenalty(14)
	w := kronWorkload(t, "cc", 19)
	ws := make([]Workload, cfg.Cores)
	ws[0] = w
	sys := NewSystem(cfg, ws)
	res := sys.RunCore0(w)
	if got := sys.cores[0].cpuCore.BranchMisses; got == 0 {
		t.Fatal("bp14 run injected no misprediction stalls")
	}
	if res.Stats.Cycles == base.Stats.Cycles {
		t.Fatal("bp14 run's cycle count is identical to the base run's: the stalls changed nothing")
	}
}

// TestPickleBoundWeaveDeterministic extends the engine's determinism
// contract to the cross-core LLC prefetcher: Pickle observes the
// replayed (t,core,seq)-ordered miss stream, so a multi-core pickle run
// must stay byte-identical at any host worker count.
func TestPickleBoundWeaveDeterministic(t *testing.T) {
	cfg := TableI(4).BenchScale().WithWindows(20_000, 120_000).WithPrefetchers("pickle").WithBoundWeave(0, 1)
	names := []string{"pr", "cc", "bfs", "sssp"}
	ref := RunMultiCore(cfg, bwWorkloads(t, 4, 16, names))
	for _, wj := range []int{2, 8} {
		cfg2 := cfg
		cfg2.WeaveWorkers = wj
		got := RunMultiCore(cfg2, bwWorkloads(t, 4, 16, names))
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("pickle WeaveWorkers=%d result differs from the serial reference:\nref: %+v\ngot: %+v",
				wj, ref.PerCore, got.PerCore)
		}
	}
}

// TestPickleBoundWeaveCheckedClean runs the pickle preset on the
// bound–weave engine under the full checker: prefetch fills issued from
// the replay path must keep the version oracle clean.
func TestPickleBoundWeaveCheckedClean(t *testing.T) {
	cfg := TableI(2).BenchScale().WithWindows(20_000, 100_000).WithPrefetchers("pickle").
		WithBoundWeave(0, 2).WithCheck(check.Full)
	res := RunMultiCore(cfg, bwWorkloads(t, 2, 16, []string{"pr", "cc"}))
	if res.Check.Violations != 0 {
		t.Fatalf("pickle bound–weave full-check run found %d violations; first: %v",
			res.Check.Violations, res.Check.Details)
	}
}

// TestUnknownPresetPanics pins the config contract: misspelled presets
// fail loudly at construction, not silently as the default wiring.
func TestUnknownPresetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSystem accepted an unknown prefetcher preset")
		}
	}()
	RunSingleCore(TableI(1).BenchScale().WithWindows(1000, 1000).WithPrefetchers("bogus"),
		kronWorkload(t, "pr", 16))
}

func TestValidPrefetchers(t *testing.T) {
	for _, ok := range []string{"", "none", "nextline", "spp", "stride", "imp", "pickle", "spp+imp"} {
		if !ValidPrefetchers(ok) {
			t.Errorf("ValidPrefetchers(%q) = false", ok)
		}
	}
	for _, bad := range []string{"bogus", "SPP", "spp+pickle", "next-line"} {
		if ValidPrefetchers(bad) {
			t.Errorf("ValidPrefetchers(%q) = true", bad)
		}
	}
}
