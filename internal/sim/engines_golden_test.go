package sim

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphmem/internal/check"
	"graphmem/internal/stats"
)

// engineDigest hashes every counter of every core plus the checker
// outcome, so one short line pins a whole run.
func engineDigest(perCore []stats.CoreStats, sum check.Summary) string {
	h := sha256.New()
	for i, s := range perCore {
		fmt.Fprintf(h, "core%d %+v\n", i, s)
	}
	fmt.Fprintf(h, "check %+v\n", sum)
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// TestEngineGolden pins the simulated counters of both multi-core
// engines, and of the single-core and sampled paths, to committed
// digests. The single-core goldens (tab1_bench.golden,
// golden_prefetch.txt) never run more than one core, so this is the
// gate that catches a shared-domain (LLC/DRAM/SDCDir) protocol change
// on the serial interleaver or the bound–weave replay.
//
// On a mismatch the test logs the file it computed; after a deliberate,
// results-changing fix, paste that into testdata/engines.golden.
func TestEngineGolden(t *testing.T) {
	mix := []string{"pr", "cc", "bfs", "tc"}
	base := TableI(4).BenchScale().WithWindows(20_000, 120_000)
	configs := []struct {
		name string
		cfg  Config
	}{
		{"baseline", base},
		{"sdclp", base.WithSDCLP()},
		{"bypass", base.WithBypassOnly()},
		{"expert", base.WithExpert()},
		{"victim8", base.WithVictimCache(8)},
		{"pickle", base.WithPrefetchers("pickle")},
		{"sdclp-checkfull", base.WithSDCLP().WithCheck(check.Full)},
	}

	var got strings.Builder
	line := func(name, digest string) { fmt.Fprintf(&got, "%s %s\n", name, digest) }
	for _, c := range configs {
		r := RunMultiCore(c.cfg, bwWorkloads(t, 4, 16, mix))
		line("mc4-serial/"+c.name, engineDigest(r.PerCore, r.Check))
	}
	for _, c := range configs {
		var digests [2]string
		for i, wj := range []int{1, 2} {
			r := RunMultiCore(c.cfg.WithBoundWeave(0, wj), bwWorkloads(t, 4, 16, mix))
			digests[i] = engineDigest(r.PerCore, r.Check)
		}
		if digests[0] != digests[1] {
			t.Errorf("mc4-weave/%s: -wj 1 digest %s differs from -wj 2 digest %s", c.name, digests[0], digests[1])
		}
		line("mc4-weave/"+c.name, digests[0])
	}

	single := TableI(1).BenchScale().WithWindows(200_000, 1_000_000)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"sdclp", single.WithSDCLP()},
		{"bypass", single.WithBypassOnly()},
	} {
		r := RunSingleCore(c.cfg, kronWorkload(t, "pr", 19))
		line("single/"+c.name, engineDigest([]stats.CoreStats{r.Stats}, r.Check))
	}
	r := RunSingleCore(sampledCfg().WithSDCLP(), kronWorkload(t, "cc", 19))
	line("sampled/sdclp", engineDigest([]stats.CoreStats{r.Stats}, r.Check))

	path := filepath.Join("testdata", "engines.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden: %v\ncomputed:\n%s", err, got.String())
	}
	if got.String() != string(want) {
		t.Fatalf("engine digests diverged from %s.\ngot:\n%s\nwant:\n%s", path, got.String(), want)
	}
}
