package memsys

import (
	"testing"

	"ndpage/internal/access"
	"ndpage/internal/addr"
	"ndpage/internal/xrand"
)

func TestDefaultConfigs(t *testing.T) {
	cpu := Default(CPU, 4)
	if cpu.L2.Size == 0 || cpu.L3.Size == 0 {
		t.Error("CPU config must have L2 and L3")
	}
	ndp := Default(NDP, 4)
	if ndp.L2.Size != 0 || ndp.L3.Size != 0 {
		t.Error("NDP config must have no L2/L3 (Table I)")
	}
	if ndp.Mesh.Hops >= cpu.Mesh.Hops {
		t.Error("NDP cores must sit closer to memory than CPU cores")
	}
	if CPU.String() != "cpu" || NDP.String() != "ndp" {
		t.Error("Kind.String wrong")
	}
}

func TestInvalidCoresPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("0 cores did not panic")
		}
	}()
	New(Default(NDP, 0))
}

func TestL3ScalesWithCores(t *testing.T) {
	h4 := New(Default(CPU, 4))
	h1 := New(Default(CPU, 1))
	// 2 MB per core: the 4-core L3 has 4x the lines.
	if h4.L3() == nil || h1.L3() == nil {
		t.Fatal("missing L3")
	}
	// Fill h1's L3 working set; h4 must hold 4x.
	// (indirect check via config)
	if got := h4.Config().L3.Size; got != h1.Config().L3.Size {
		t.Errorf("config L3 Size should stay per-core: %d vs %d", got, h1.Config().L3.Size)
	}
}

func TestNDPHitLatency(t *testing.T) {
	h := New(Default(NDP, 1))
	pa := addr.P(0x1000)
	// Cold access: L1(4) + mesh(4) + HBM(110+4) + mesh back(4).
	done := h.Access(0, 0, pa, access.Read, access.Data)
	want := uint64(4) + 4 + (110 + 4) + 4
	if done != want {
		t.Errorf("NDP cold access = %d cycles, want %d", done, want)
	}
	// Warm access: L1 hit only.
	start := done
	done = h.Access(0, start, pa, access.Read, access.Data)
	if done-start != 4 {
		t.Errorf("NDP L1 hit = %d cycles, want 4", done-start)
	}
}

func TestCPUHitLatencies(t *testing.T) {
	h := New(Default(CPU, 1))
	pa := addr.P(0x2000)
	h.Access(0, 0, pa, access.Read, access.Data) // cold fill of all levels
	// L1 hit.
	s := uint64(100000)
	if d := h.Access(0, s, pa, access.Read, access.Data) - s; d != 4 {
		t.Errorf("L1 hit = %d", d)
	}
	// Evict from L1 only (fill conflicting lines into L1 set).
	// Simpler: invalidate L1 line to force L2 hit.
	h.L1D(0).Invalidate(pa.Line())
	if d := h.Access(0, s, pa, access.Read, access.Data) - s; d != 4+16 {
		t.Errorf("L2 hit = %d, want 20", d)
	}
	h.L1D(0).Invalidate(pa.Line())
	h.L2(0).Invalidate(pa.Line())
	if d := h.Access(0, s, pa, access.Read, access.Data) - s; d != 4+16+35 {
		t.Errorf("L3 hit = %d, want 55", d)
	}
}

func TestCPUMemoryAccessCostsMeshBothWays(t *testing.T) {
	h := New(Default(CPU, 1))
	pa := addr.P(0x3000)
	done := h.Access(0, 0, pa, access.Read, access.Data)
	// L1+L2+L3 misses (4+16+35) + mesh 16 + DRAM (114+14) + mesh 16.
	want := uint64(4+16+35) + 16 + (114 + 14) + 16
	if done != want {
		t.Errorf("CPU cold access = %d, want %d", done, want)
	}
}

func TestBypassSkipsL1(t *testing.T) {
	cfg := Default(NDP, 1)
	cfg.BypassL1PTE = true
	h := New(cfg)
	pa := addr.P(0x4000)
	// PTE access: no L1 latency, no L1 fill.
	done := h.Access(0, 0, pa, access.Read, access.PTE)
	want := uint64(4) + (110 + 4) + 4 // mesh + HBM + mesh
	if done != want {
		t.Errorf("bypassed PTE access = %d, want %d", done, want)
	}
	if h.L1D(0).Contains(pa.Line()) {
		t.Error("bypassed PTE line was filled into L1")
	}
	if h.L1D(0).Stats().Bypassed.Value() != 1 {
		t.Error("bypass not counted")
	}
	// Data accesses still use the L1.
	done2 := h.Access(0, 1000, pa, access.Read, access.Data)
	if done2-1000 <= 4 {
		t.Error("data access suspiciously fast")
	}
	if !h.L1D(0).Contains(pa.Line()) {
		t.Error("data line not filled into L1")
	}
}

func TestNoBypassPTEFillsL1(t *testing.T) {
	h := New(Default(NDP, 1))
	pa := addr.P(0x5000)
	h.Access(0, 0, pa, access.Read, access.PTE)
	if !h.L1D(0).Contains(pa.Line()) {
		t.Error("baseline must cache PTEs in L1 (that is the pollution problem)")
	}
}

func TestCodeUsesL1I(t *testing.T) {
	h := New(Default(NDP, 1))
	pa := addr.P(0x6000)
	h.Access(0, 0, pa, access.Read, access.Code)
	if !h.L1I(0).Contains(pa.Line()) || h.L1D(0).Contains(pa.Line()) {
		t.Error("code access must fill L1I, not L1D")
	}
}

func TestPrivateL1PerCore(t *testing.T) {
	h := New(Default(NDP, 2))
	pa := addr.P(0x7000)
	h.Access(0, 0, pa, access.Read, access.Data)
	if h.L1D(1).Contains(pa.Line()) {
		t.Error("core 1's L1 contains core 0's line")
	}
	// Core 1 misses L1 but both share HBM banks.
	d := h.Access(1, 0, pa, access.Read, access.Data)
	if d <= 4 {
		t.Error("core 1 should not hit its empty L1")
	}
}

func TestSharedL3AcrossCores(t *testing.T) {
	h := New(Default(CPU, 2))
	pa := addr.P(0x8000)
	h.Access(0, 0, pa, access.Read, access.Data)
	// Core 1: misses private L1/L2, hits shared L3.
	s := uint64(10000)
	d := h.Access(1, s, pa, access.Read, access.Data) - s
	if d != 4+16+35 {
		t.Errorf("core 1 shared-L3 hit = %d, want 55", d)
	}
}

func TestDirtyEvictionReachesDRAM(t *testing.T) {
	cfg := Default(NDP, 1)
	// Tiny L1 to force evictions quickly.
	cfg.L1D.Size = 2 * addr.LineSize
	cfg.L1D.Ways = 2
	h := New(cfg)
	rng := xrand.New(3)
	t0 := uint64(0)
	for i := 0; i < 64; i++ {
		pa := addr.P(rng.Uint64n(1<<24)) &^ addr.LineSize
		t0 = h.Access(0, t0, pa, access.Write, access.Data)
	}
	wr := h.DRAM().Stats().PerClass[access.Data].Value()
	wbs := h.L1D(0).Stats().Writebacks.Value()
	if wbs == 0 {
		t.Fatal("no writebacks recorded")
	}
	// DRAM sees fills + async write-backs: strictly more accesses than
	// the 64 demand fills.
	if wr <= 64 {
		t.Errorf("DRAM accesses = %d, want > 64 (write-backs missing)", wr)
	}
}

func TestResetStatsPreservesContents(t *testing.T) {
	h := New(Default(CPU, 1))
	pa := addr.P(0x9000)
	h.Access(0, 0, pa, access.Read, access.Data)
	h.ResetStats()
	if h.L1D(0).Stats().Total().Total() != 0 {
		t.Error("L1 stats not reset")
	}
	if h.DRAM().Stats().Accesses.Value() != 0 {
		t.Error("DRAM stats not reset")
	}
	// Contents preserved: warm hit.
	s := uint64(50000)
	if d := h.Access(0, s, pa, access.Read, access.Data) - s; d != 4 {
		t.Errorf("post-reset access = %d, want warm L1 hit (4)", d)
	}
}

// TestPollutionObservable reproduces the Figure 7 mechanism in miniature:
// interleaving PTE traffic with a data working set that fits the L1 raises
// the data miss rate.
func TestPollutionObservable(t *testing.T) {
	missRate := func(pteTraffic bool) float64 {
		h := New(Default(NDP, 1))
		rng := xrand.New(7)
		tm := uint64(0)
		dataLines := 256 // 16 KB working set: fits 32 KB L1
		for i := 0; i < 20000; i++ {
			pa := addr.P(rng.Uint64n(uint64(dataLines)) << addr.LineShift)
			tm = h.Access(0, tm, pa, access.Read, access.Data)
			if pteTraffic && i%2 == 0 {
				ppa := addr.P(1<<30 + rng.Uint64n(1<<28)<<3)
				tm = h.Access(0, tm, ppa, access.Read, access.PTE)
			}
		}
		return h.L1D(0).Stats().PerClass[access.Data].MissRate()
	}
	clean := missRate(false)
	polluted := missRate(true)
	if polluted <= clean*1.5 {
		t.Errorf("pollution invisible: clean %.4f vs polluted %.4f", clean, polluted)
	}
}

// BenchmarkHierarchyAccess is one data access through the 4-core NDP
// hierarchy: random lines over 8 MB (mostly L1 misses to HBM), one in
// three a store, so dirty evictions and their write-backs occur.
func BenchmarkHierarchyAccess(b *testing.B) {
	h := New(Default(NDP, 4))
	type req struct {
		pa addr.P
		op access.Op
	}
	rng := xrand.New(11)
	stream := make([]req, 1<<14)
	for i := range stream {
		stream[i].pa = addr.P(rng.Uint64n(8<<20)) &^ (addr.LineSize - 1)
		if rng.Uint64n(3) == 0 {
			stream[i].op = access.Write
		}
	}
	now := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := stream[i&(len(stream)-1)]
		h.Access(i&3, now, r.pa, r.op, access.Data)
		now += 10
	}
}
