package sim

import (
	"testing"

	"ndpage/internal/access"
	"ndpage/internal/core"
	"ndpage/internal/memsys"
)

// Integration tests: cross-module behaviour of the assembled machine.

func TestCoresShareOnePageTable(t *testing.T) {
	m, err := New(testCfg(memsys.NDP, 4, core.Radix, "pr"))
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	// The table is shared: the mapped footprint reflects the dataset
	// once, not once per core (4 KB pages of a ~256 MB footprint).
	pages := m.Space().Table().MappedPages()
	if pages > 600<<20/4096 {
		t.Errorf("mapped pages = %d, looks like per-core duplication", pages)
	}
	// All cores translated against it.
	for i := 0; i < 4; i++ {
		if m.MMU(i).Stats().Translations == 0 {
			t.Errorf("core %d performed no translations", i)
		}
	}
}

func TestSharedDatasetThreadsTouchSameRegions(t *testing.T) {
	// Two cores run PR over the same graph: their data accesses hit the
	// same physical memory (shared HBM), observable as core 1 warming
	// lines core 0 later reuses is not required, but both must generate
	// DRAM traffic to the same device.
	m, err := New(testCfg(memsys.NDP, 2, core.Radix, "pr"))
	if err != nil {
		t.Fatal(err)
	}
	r := m.Run()
	if r.DRAM[access.Data] == 0 || r.DRAM[access.PTE] == 0 {
		t.Fatal("no shared-memory traffic recorded")
	}
}

func TestWarmupIsolatesMeasurement(t *testing.T) {
	// A run with warmup must report fewer cold effects than one without:
	// specifically, TLB/caches start warm, so the measured CPI is lower.
	cold := testCfg(memsys.NDP, 1, core.Radix, "pr")
	cold.Warmup = 1 // effectively no warmup
	warm := testCfg(memsys.NDP, 1, core.Radix, "pr")
	warm.Warmup = 20_000
	rc := run(t, cold)
	rw := run(t, warm)
	if rw.CPI() >= rc.CPI() {
		t.Errorf("warm CPI %.2f not below cold CPI %.2f", rw.CPI(), rc.CPI())
	}
}

func TestInstructionBudgetExact(t *testing.T) {
	for _, cores := range []int{1, 3, 8} {
		cfg := testCfg(memsys.NDP, cores, core.NDPage, "rnd")
		r := run(t, cfg)
		if r.Instructions != uint64(cores)*cfg.Instructions {
			t.Errorf("%d cores: ran %d instructions, want %d",
				cores, r.Instructions, uint64(cores)*cfg.Instructions)
		}
	}
}

func TestClocksAdvanceTogether(t *testing.T) {
	// Min-clock interleaving keeps cores loosely synchronized: after a
	// run, per-core measured windows differ by far less than a window.
	m, err := New(testCfg(memsys.NDP, 4, core.Radix, "rnd"))
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	var min, max uint64 = ^uint64(0), 0
	for _, c := range m.cores {
		e := c.clock - c.start
		if e < min {
			min = e
		}
		if e > max {
			max = e
		}
	}
	if min == 0 || float64(max-min)/float64(max) > 0.25 {
		t.Errorf("core windows diverged: min %d, max %d", min, max)
	}
}

func TestSensitivityKnobs(t *testing.T) {
	base := testCfg(memsys.NDP, 2, core.Radix, "rnd")
	r0 := run(t, base)

	noPWC := base
	noPWC.DisablePWC = true
	r1 := run(t, noPWC)
	if r1.MeanPTWLatency() <= r0.MeanPTWLatency() {
		t.Errorf("disabling PWCs did not lengthen walks: %.1f vs %.1f",
			r1.MeanPTWLatency(), r0.MeanPTWLatency())
	}
	if len(r1.PWC) != 0 {
		t.Error("PWC stats present with PWCs disabled")
	}

	wide := base
	wide.HBMChannels = 8
	r2 := run(t, wide)
	if r2.Cycles >= r0.Cycles {
		t.Errorf("8-channel HBM not faster than 2-channel: %d vs %d", r2.Cycles, r0.Cycles)
	}

	demand := base
	demand.DemandPaging = true
	r3 := run(t, demand)
	if r3.Faults4K == 0 {
		t.Error("demand paging produced no in-window faults")
	}
	if r3.Cycles <= r0.Cycles {
		t.Error("demand paging should cost cycles")
	}
}

// TestBypassOnlyAndFlattenOnlyAreDistinct checks the ablation variants
// actually differ from NDPage and from each other.
func TestAblationVariants(t *testing.T) {
	bypass := run(t, testCfg(memsys.NDP, 1, core.BypassOnly, "rnd"))
	flatten := run(t, testCfg(memsys.NDP, 1, core.FlattenOnly, "rnd"))
	full := run(t, testCfg(memsys.NDP, 1, core.NDPage, "rnd"))

	// BypassOnly uses a radix table: 4-deep cold walks.
	if bypass.L1PTE.Total() != 0 {
		t.Error("BypassOnly let PTEs into the L1")
	}
	if bypass.PTEAccesses <= flatten.PTEAccesses {
		t.Errorf("radix-based BypassOnly should issue more PTE accesses (%d) than flattened (%d)",
			bypass.PTEAccesses, flatten.PTEAccesses)
	}
	// FlattenOnly does not bypass: its PTEs probe the L1.
	if flatten.L1PTE.Total() == 0 {
		t.Error("FlattenOnly should probe the L1 for PTEs")
	}
	// Full NDPage: flattened depth and no L1 PTE traffic.
	if full.L1PTE.Total() != 0 {
		t.Error("NDPage let PTEs into the L1")
	}
	if full.PTEAccesses != flatten.PTEAccesses {
		t.Errorf("NDPage and FlattenOnly walk the same table: %d vs %d accesses",
			full.PTEAccesses, flatten.PTEAccesses)
	}
}

func TestOutOfRangeCoresRejected(t *testing.T) {
	cfg := testCfg(memsys.NDP, 1, core.Radix, "rnd")
	cfg.Cores = 65
	if _, err := New(cfg); err == nil {
		t.Fatal("65 cores accepted")
	}
}

// TestECHWayPredictionEndToEnd checks what the cuckoo-walk cache
// promises on every seed: it cuts ECH's PTE traffic. Its cycle effect
// is not asserted; on rnd it costs cycles on most seeds (EXPERIMENTS.md,
// "Measured versus paper").
func TestECHWayPredictionEndToEnd(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		base := testCfg(memsys.NDP, 2, core.ECH, "rnd")
		base.Seed = seed
		plain := run(t, base)
		base.ECHWayPrediction = true
		cwc := run(t, base)
		t.Logf("seed %d: PTE %d -> %d (%+.2f%%), cycles %d -> %d (%+.2f%%)", seed,
			plain.PTEAccesses, cwc.PTEAccesses, pct(cwc.PTEAccesses, plain.PTEAccesses),
			plain.Cycles, cwc.Cycles, pct(cwc.Cycles, plain.Cycles))
		if cwc.PTEAccesses >= plain.PTEAccesses {
			t.Errorf("seed %d: way prediction did not cut PTE traffic: %d vs %d",
				seed, cwc.PTEAccesses, plain.PTEAccesses)
		}
	}
}

// pct is the change from b to a, in percent.
func pct(a, b uint64) float64 { return 100 * (float64(a) - float64(b)) / float64(b) }
