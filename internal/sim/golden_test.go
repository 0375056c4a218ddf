package sim

import (
	"reflect"
	"testing"

	"ndpage/internal/core"
	"ndpage/internal/memsys"
)

// goldenCfg is the pinned regression configuration: small enough to run
// in CI, large enough to exercise faults, TLB misses, and DRAM queueing.
func goldenCfg(cores int, mech core.Mechanism, wl string) Config {
	return Config{
		System:         memsys.NDP,
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

// TestGoldenBlockingTiming pins the blocking core model (MLP=1,
// WalkerWidth=1) to the exact cycle counts the pre-engine step-driven
// simulator produced, so the event-scheduled engine is verified
// bit-identical on defaults. The numbers were captured on the step loop
// immediately before the engine refactor.
func TestGoldenBlockingTiming(t *testing.T) {
	type golden struct {
		cfg                                   Config
		cycles, totalCycles                   uint64
		translation, data, compute, fault     uint64
		walks, walkCycles, pte, loads, stores uint64
	}
	cases := map[string]golden{
		"radix-2core-rnd": {
			cfg:    goldenCfg(2, core.Radix, "rnd"),
			cycles: 3_700_123, totalCycles: 7_391_694,
			translation: 3_024_245, data: 2_747_449, compute: 20_000, fault: 1_600_000,
			walks: 19_544, walkCycles: 2_744_461, pte: 34_211, loads: 20_000, stores: 20_000,
		},
		"ndpage-4core-bfs": {
			cfg:    goldenCfg(4, core.NDPage, "bfs"),
			cycles: 1_219_754, totalCycles: 4_839_786,
			translation: 775_066, data: 3_607_437, compute: 22_283, fault: 435_000,
			walks: 3_740, walkCycles: 580_965, pte: 3_740, loads: 53_152, stores: 44_565,
		},
		// Re-captured at ModelVersion 2, when ECH's eager regions began
		// to be built in bulk: 3_120_882 cycles and 4_757_173 walk
		// cycles before, the same walks and PTE accesses.
		"ech-4core-pr": {
			cfg:    goldenCfg(4, core.ECH, "pr"),
			cycles: 3_123_555, totalCycles: 12_354_198,
			translation: 5_243_573, data: 5_847_553, compute: 43_072, fault: 1_220_000,
			walks: 23_344, walkCycles: 4_774_619, pte: 70_032, loads: 76_930, stores: 3_068,
		},
	}
	// A shared width-2 walker under blocking cores, pinned with its slot
	// contention. Re-captured at ModelVersion 3, when such machines moved
	// from the serial path (interval slot bookkeeping over min-clock
	// requests) to the event path (a window of one, real walker slots):
	// the same 39_099 walks; before, 4_021_787 cycles, 68_483 PTE
	// accesses, 11_941 queued walks over 791_164 cycles, 31_139 overlaps
	// (WalkOverlapHist [0 7_960 31_139]) and 6_947_072 walk cycles.
	shared := goldenCfg(4, core.Radix, "rnd")
	shared.SharedWalker = true
	shared.WalkerWidth = 2

	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			r := run(t, g.cfg)
			if r.Cycles != g.cycles || r.TotalCycles != g.totalCycles {
				t.Errorf("cycles %d/%d, want %d/%d", r.Cycles, r.TotalCycles, g.cycles, g.totalCycles)
			}
			if r.TranslationCycles != g.translation || r.DataCycles != g.data ||
				r.ComputeCycles != g.compute || r.FaultCycles != g.fault {
				t.Errorf("attribution %d/%d/%d/%d, want %d/%d/%d/%d",
					r.TranslationCycles, r.DataCycles, r.ComputeCycles, r.FaultCycles,
					g.translation, g.data, g.compute, g.fault)
			}
			if r.Walks != g.walks || r.WalkCycles != g.walkCycles || r.PTEAccesses != g.pte {
				t.Errorf("walks %d/%d/%d, want %d/%d/%d",
					r.Walks, r.WalkCycles, r.PTEAccesses, g.walks, g.walkCycles, g.pte)
			}
			if r.Loads != g.loads || r.Stores != g.stores {
				t.Errorf("ops %d/%d, want %d/%d", r.Loads, r.Stores, g.loads, g.stores)
			}
		})
	}

	t.Run("sharedwalker-w2", func(t *testing.T) {
		r := run(t, shared)
		if r.Cycles != 3_989_804 || r.Walks != 39_099 || r.PTEAccesses != 68_590 {
			t.Errorf("cycles/walks/pte %d/%d/%d, want 3989804/39099/68590",
				r.Cycles, r.Walks, r.PTEAccesses)
		}
		if r.MSHRHits != 0 || r.QueuedWalks != 11_361 || r.OverlappedWalks != 33_882 {
			t.Errorf("mshr/queued/overlap %d/%d/%d, want 0/11361/33882",
				r.MSHRHits, r.QueuedWalks, r.OverlappedWalks)
		}
		// The slot-occupancy counts the walker's start bookkeeping feeds.
		if r.WalkQueueCycles != 700_614 || r.MaxConcurrentWalks != 2 || r.WalkCycles != 6_583_047 {
			t.Errorf("queueCycles/maxConcurrent/walkCycles %d/%d/%d, want 700614/2/6583047",
				r.WalkQueueCycles, r.MaxConcurrentWalks, r.WalkCycles)
		}
		if want := []uint64{0, 5_217, 33_882}; !reflect.DeepEqual(r.WalkOverlapHist, want) {
			t.Errorf("WalkOverlapHist %v, want %v", r.WalkOverlapHist, want)
		}
	})
}

// TestDeterminismWithMLP: the non-blocking front-end is exactly as
// reproducible as the blocking one — two runs of one configuration
// produce deeply equal Results.
func TestDeterminismWithMLP(t *testing.T) {
	cfg := goldenCfg(4, core.Radix, "rnd")
	cfg.MLP = 4
	cfg.SharedWalker = true
	cfg.WalkerWidth = 2
	a, b := run(t, cfg), run(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("MLP=4 shared-walker run not reproducible:\n  a: cycles=%d walks=%d mshr=%d queued=%d hist=%v\n  b: cycles=%d walks=%d mshr=%d queued=%d hist=%v",
			a.Cycles, a.Walks, a.MSHRHits, a.QueuedWalks, a.InFlightHist,
			b.Cycles, b.Walks, b.MSHRHits, b.QueuedWalks, b.InFlightHist)
	}
}

// TestDeterminismBlockingDeep: full-Result determinism for the default
// blocking model too (the original determinism test compares only a few
// counters).
func TestDeterminismBlockingDeep(t *testing.T) {
	cfg := goldenCfg(2, core.NDPage, "pr")
	a, b := run(t, cfg), run(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("blocking run not deeply reproducible: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}
