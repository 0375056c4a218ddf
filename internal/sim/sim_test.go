package sim

import (
	"testing"

	"ndpage/internal/addr"
	"ndpage/internal/core"
	"ndpage/internal/memsys"
	"ndpage/internal/workload"
)

// testCfg returns a small, fast configuration.
func testCfg(system memsys.Kind, cores int, mech core.Mechanism, wl string) Config {
	return Config{
		System:         system,
		Cores:          cores,
		Mechanism:      mech,
		Workload:       wl,
		FootprintBytes: 256 << 20,
		MemoryBytes:    4 << 30,
		FragHoles:      900,
		Warmup:         8_000,
		Instructions:   30_000,
		Seed:           7,
	}
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	r, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestUnknownWorkloadRejected(t *testing.T) {
	if _, err := RunConfig(Config{Workload: "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestMaxFootprintMachineRuns builds a 4-core demand-paged machine at
// workload.MaxFootprint and runs 1k instructions: the largest heap
// Validate admits stays below the page tables' VPN ceiling, where a
// reservation panics. Every table reserves through the same frame store.
func TestMaxFootprintMachineRuns(t *testing.T) {
	cfg := testCfg(memsys.NDP, 4, core.Radix, "rnd")
	cfg.FootprintBytes = workload.MaxFootprint
	cfg.DemandPaging = true
	cfg.Warmup, cfg.Instructions = 1, 1000
	res := run(t, cfg)
	if want := cfg.Instructions * uint64(cfg.Cores); res.Instructions != want {
		t.Errorf("%d instructions, want %d", res.Instructions, want)
	}
}

func TestCountersConsistent(t *testing.T) {
	cfg := testCfg(memsys.NDP, 2, core.Radix, "rnd")
	r := run(t, cfg)
	if r.Instructions != uint64(cfg.Cores)*cfg.Instructions {
		t.Errorf("instructions = %d, want %d", r.Instructions, uint64(cfg.Cores)*cfg.Instructions)
	}
	if r.Loads == 0 || r.Stores == 0 {
		t.Error("no memory ops recorded")
	}
	if r.Cycles == 0 || r.TotalCycles < r.Cycles {
		t.Errorf("cycles inconsistent: max %d total %d", r.Cycles, r.TotalCycles)
	}
	// Attribution roughly covers the total (fetch is uncharged; compute+
	// translation + data + faults account for every charged cycle).
	sum := r.TranslationCycles + r.DataCycles + r.ComputeCycles + r.FaultCycles
	if sum != r.TotalCycles {
		t.Errorf("cycle attribution %d != total %d", sum, r.TotalCycles)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := testCfg(memsys.NDP, 2, core.NDPage, "bfs")
	a, b := run(t, cfg), run(t, cfg)
	if a.Cycles != b.Cycles || a.Walks != b.Walks || a.PTEAccesses != b.PTEAccesses {
		t.Errorf("nondeterministic: %d/%d vs %d/%d cycles/walks",
			a.Cycles, a.Walks, b.Cycles, b.Walks)
	}
}

func TestSeedChangesRun(t *testing.T) {
	cfg := testCfg(memsys.NDP, 1, core.Radix, "rnd")
	a := run(t, cfg)
	cfg.Seed = 8
	b := run(t, cfg)
	if a.Cycles == b.Cycles {
		t.Error("different seeds produced identical cycle counts (suspicious)")
	}
}

// TestMechanismOrderingOnNDP is the paper's headline: on the NDP system,
// Ideal < NDPage < Radix in execution time, with ECH between NDPage and
// Radix (single-core, Figure 12 ordering).
func TestMechanismOrderingOnNDP(t *testing.T) {
	cycles := map[core.Mechanism]uint64{}
	for _, mech := range []core.Mechanism{core.Radix, core.ECH, core.NDPage, core.Ideal} {
		cycles[mech] = run(t, testCfg(memsys.NDP, 1, mech, "rnd")).Cycles
	}
	if !(cycles[core.Ideal] < cycles[core.NDPage]) {
		t.Errorf("Ideal (%d) not faster than NDPage (%d)", cycles[core.Ideal], cycles[core.NDPage])
	}
	if !(cycles[core.NDPage] < cycles[core.Radix]) {
		t.Errorf("NDPage (%d) not faster than Radix (%d)", cycles[core.NDPage], cycles[core.Radix])
	}
	if !(cycles[core.NDPage] < cycles[core.ECH]) {
		t.Errorf("NDPage (%d) not faster than ECH (%d)", cycles[core.NDPage], cycles[core.ECH])
	}
}

// TestTLBMissRateHigh: data-intensive workloads over footprints far
// beyond TLB reach must miss heavily (paper: 91.27%).
func TestTLBMissRateHigh(t *testing.T) {
	r := run(t, testCfg(memsys.NDP, 1, core.Radix, "rnd"))
	if got := r.TLBMissRate(); got < 0.3 {
		t.Errorf("TLB miss rate = %.3f, want high for GUPS", got)
	}
}

// TestPTEShareSubstantial: PTE accesses are a large share of memory
// traffic on the baseline (paper: 65.8% of accesses).
func TestPTEShareSubstantial(t *testing.T) {
	r := run(t, testCfg(memsys.NDP, 1, core.Radix, "rnd"))
	if got := r.PTEAccessShare(); got < 0.2 {
		t.Errorf("PTE share = %.3f, want substantial", got)
	}
}

// TestOccupancyShape is Figure 8: dense datasets nearly fill PL1/PL2
// while PL3/PL4 stay nearly empty.
func TestOccupancyShape(t *testing.T) {
	r := run(t, testCfg(memsys.NDP, 1, core.Radix, "pr"))
	pl1, pl2 := r.OccupancyRate(addr.PL1), r.OccupancyRate(addr.PL2)
	pl3, pl4 := r.OccupancyRate(addr.PL3), r.OccupancyRate(addr.PL4)
	if pl1 < 0.5 || pl2 < 0.2 {
		t.Errorf("PL1/PL2 occupancy %.3f/%.3f too low", pl1, pl2)
	}
	if pl3 > 0.1 || pl4 > 0.1 {
		t.Errorf("PL3/PL4 occupancy %.3f/%.3f too high", pl3, pl4)
	}
}

// TestFlattenedOccupancy: NDPage's combined node occupancy mirrors the
// paper's "combined PL2/PL1" bar.
func TestFlattenedOccupancy(t *testing.T) {
	r := run(t, testCfg(memsys.NDP, 1, core.NDPage, "pr"))
	if got := r.OccupancyRate(addr.L2L1); got < 0.2 {
		t.Errorf("flattened occupancy = %.3f, want substantial", got)
	}
}

// TestCPUWalksFasterThanNDP is Figure 4's premise: the CPU's deep cache
// hierarchy absorbs PTE accesses, so its walks are much faster.
func TestCPUWalksFasterThanNDP(t *testing.T) {
	ndp := run(t, testCfg(memsys.NDP, 2, core.Radix, "rnd"))
	cpu := run(t, testCfg(memsys.CPU, 2, core.Radix, "rnd"))
	if !(cpu.MeanPTWLatency() < ndp.MeanPTWLatency()) {
		t.Errorf("CPU PTW %.1f not faster than NDP PTW %.1f",
			cpu.MeanPTWLatency(), ndp.MeanPTWLatency())
	}
}

// TestNDPTranslationOverheadExceedsCPU is Figure 5's shape.
func TestNDPTranslationOverheadExceedsCPU(t *testing.T) {
	ndp := run(t, testCfg(memsys.NDP, 2, core.Radix, "rnd"))
	cpu := run(t, testCfg(memsys.CPU, 2, core.Radix, "rnd"))
	if !(ndp.TranslationOverhead() > cpu.TranslationOverhead()) {
		t.Errorf("NDP overhead %.3f not above CPU %.3f",
			ndp.TranslationOverhead(), cpu.TranslationOverhead())
	}
}

// TestPTWLatencyGrowsWithCores is Figure 6(a) for the NDP system.
func TestPTWLatencyGrowsWithCores(t *testing.T) {
	one := run(t, testCfg(memsys.NDP, 1, core.Radix, "rnd"))
	four := run(t, testCfg(memsys.NDP, 4, core.Radix, "rnd"))
	if !(four.MeanPTWLatency() > one.MeanPTWLatency()) {
		t.Errorf("PTW latency did not grow: 1-core %.1f vs 4-core %.1f",
			one.MeanPTWLatency(), four.MeanPTWLatency())
	}
}

// TestBypassEliminatesL1PTETraffic: with NDPage no PTE ever probes the
// L1; with Radix the L1 sees heavy PTE traffic that misses nearly always
// (Figure 7's metadata bar: 98.28%).
func TestBypassEliminatesL1PTETraffic(t *testing.T) {
	nd := run(t, testCfg(memsys.NDP, 1, core.NDPage, "rnd"))
	if nd.L1PTE.Total() != 0 {
		t.Errorf("NDPage: %d PTE probes reached the L1", nd.L1PTE.Total())
	}
	if nd.L1Bypassed == 0 {
		t.Error("NDPage: no bypasses recorded")
	}
	rx := run(t, testCfg(memsys.NDP, 1, core.Radix, "rnd"))
	if rx.L1PTE.Total() == 0 {
		t.Error("Radix: no PTE traffic in L1")
	}
}

// TestPollutionVisibleOnCacheFriendlyWorkload: for a workload with real
// data locality, Radix's PTE fills raise the data miss rate above the
// Ideal run's (Figure 7: 35.89% vs 26.16%).
func TestPollutionVisibleOnCacheFriendlyWorkload(t *testing.T) {
	radix := run(t, testCfg(memsys.NDP, 1, core.Radix, "dlrm"))
	ideal := run(t, testCfg(memsys.NDP, 1, core.Ideal, "dlrm"))
	if !(radix.L1DataMissRate() > ideal.L1DataMissRate()) {
		t.Errorf("no pollution: radix %.4f vs ideal %.4f",
			radix.L1DataMissRate(), ideal.L1DataMissRate())
	}
}

// TestPWCHitRateShape (Section V-C): PL4/PL3 PWCs hit nearly always;
// the PL2 PWC hit rate is low.
func TestPWCHitRateShape(t *testing.T) {
	r := run(t, testCfg(memsys.NDP, 1, core.Radix, "rnd"))
	if got := r.PWCHitRate(addr.PL4); got < 0.95 {
		t.Errorf("PL4 PWC hit rate = %.3f, want ~1", got)
	}
	if got := r.PWCHitRate(addr.PL3); got < 0.90 {
		t.Errorf("PL3 PWC hit rate = %.3f, want high", got)
	}
	pl2 := r.PWCHitRate(addr.PL2)
	if pl2 > 0.6 {
		t.Errorf("PL2 PWC hit rate = %.3f, want low (the NDPage motivation)", pl2)
	}
}

// TestHugePageReducesWalks: the 2 MB policy multiplies TLB reach, but the
// benefit is bounded by the small 2M sub-TLB (32 entries; the unified L2
// TLB holds 4 KB entries only), so the reduction is real yet limited —
// one reason Huge Page underdelivers in the paper.
func TestHugePageReducesWalks(t *testing.T) {
	radix := run(t, testCfg(memsys.NDP, 1, core.Radix, "rnd"))
	huge := run(t, testCfg(memsys.NDP, 1, core.HugePage, "rnd"))
	if !(huge.Walks < radix.Walks) {
		t.Errorf("HugePage walks = %d, want below Radix %d", huge.Walks, radix.Walks)
	}
	// Each huge walk is also shorter (3 levels, leaf at PL2).
	if !(huge.MeanPTWLatency() < radix.MeanPTWLatency()) {
		t.Errorf("HugePage PTW %.1f not below Radix %.1f",
			huge.MeanPTWLatency(), radix.MeanPTWLatency())
	}
}

// TestHugePagePaysFaultsOnGrowth: on a workload with in-window growth
// (gen), the Huge policy's fault cycles appear in the window.
func TestHugePagePaysFaultsOnGrowth(t *testing.T) {
	huge := run(t, testCfg(memsys.NDP, 1, core.HugePage, "gen"))
	if huge.Faults2M == 0 {
		t.Error("no 2MB faults recorded for gen under HugePage")
	}
	if huge.FaultCycles == 0 {
		t.Error("no fault cycles charged")
	}
}

func TestIdealHasZeroTranslation(t *testing.T) {
	r := run(t, testCfg(memsys.NDP, 2, core.Ideal, "bfs"))
	if r.TranslationCycles != 0 || r.Walks != 0 || r.PTEAccesses != 0 {
		t.Errorf("Ideal not free: %d cycles, %d walks", r.TranslationCycles, r.Walks)
	}
	if r.TranslationOverhead() != 0 {
		t.Error("Ideal overhead nonzero")
	}
}

func TestAllWorkloadsRunOnAllMechanisms(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix smoke is not short")
	}
	for _, wl := range []string{"bc", "bfs", "cc", "gc", "pr", "tc", "sp", "xs", "rnd", "dlrm", "gen"} {
		for _, mech := range core.Mechanisms {
			cfg := testCfg(memsys.NDP, 1, mech, wl)
			cfg.Warmup, cfg.Instructions = 2_000, 6_000
			r := run(t, cfg)
			if r.Instructions != cfg.Instructions {
				t.Errorf("%s/%v: ran %d instructions", wl, mech, r.Instructions)
			}
		}
	}
}

// TestSharedWalkerContention: funneling every core's walks through one
// width-1 walker must not beat a wide shared walker, the narrow walker
// must record slot queueing, and private per-core walkers (the default)
// must record no concurrency events at all.
func TestSharedWalkerContention(t *testing.T) {
	base := testCfg(memsys.NDP, 4, core.Radix, "rnd")
	if r := run(t, base); r.MSHRHits != 0 || r.OverlappedWalks != 0 || r.QueuedWalks != 0 {
		t.Errorf("private blocking walkers recorded concurrency: mshr=%d overlap=%d queued=%d",
			r.MSHRHits, r.OverlappedWalks, r.QueuedWalks)
	}

	narrow := base
	narrow.SharedWalker = true
	narrow.WalkerWidth = 1
	wide := base
	wide.SharedWalker = true
	wide.WalkerWidth = 8
	rn, rw := run(t, narrow), run(t, wide)
	if rn.QueuedWalks == 0 || rn.WalkQueueCycles == 0 {
		t.Error("width-1 shared walker saw no slot contention across 4 cores")
	}
	if rn.MeanPTWLatency() < rw.MeanPTWLatency() {
		t.Errorf("width-1 shared PTW %.1f below width-8 %.1f",
			rn.MeanPTWLatency(), rw.MeanPTWLatency())
	}
	if rw.MaxConcurrentWalks < 2 {
		t.Errorf("width-8 shared walker never overlapped (peak %d)", rw.MaxConcurrentWalks)
	}
}

// TestSharedWalkerDeterminism: the shared-walker configuration is as
// reproducible as the default one.
func TestSharedWalkerDeterminism(t *testing.T) {
	cfg := testCfg(memsys.NDP, 2, core.Radix, "rnd")
	cfg.SharedWalker = true
	cfg.WalkerWidth = 2
	a, b := run(t, cfg), run(t, cfg)
	if a.Cycles != b.Cycles || a.MSHRHits != b.MSHRHits || a.QueuedWalks != b.QueuedWalks {
		t.Errorf("nondeterministic shared walker: %d/%d/%d vs %d/%d/%d",
			a.Cycles, a.MSHRHits, a.QueuedWalks, b.Cycles, b.MSHRHits, b.QueuedWalks)
	}
}
