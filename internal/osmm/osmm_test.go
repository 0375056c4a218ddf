package osmm

import (
	"testing"

	"ndpage/internal/addr"
	"ndpage/internal/pagetable"
	"ndpage/internal/phys"
	"ndpage/internal/xrand"
)

const testMem = 512 << 20

func newAS(policy Policy) (*AddressSpace, *phys.Allocator) {
	alloc := phys.New(testMem)
	var table pagetable.Table = pagetable.NewRadix(alloc)
	return New(table, alloc, DefaultConfig(policy, alloc.TotalFrames())), alloc
}

func TestAllocPopulatesEagerly(t *testing.T) {
	as, _ := newAS(Base4K)
	base := as.Alloc(10<<20, "data")
	// Every page of the region must already be mapped: no fault cost.
	for off := uint64(0); off < 10<<20; off += addr.PageSize {
		if cost := as.Touch(base + addr.V(off)); cost != 0 {
			t.Fatalf("eager region faulted at +%d (cost %d)", off, cost)
		}
	}
	if as.Stats().Faults4K != 0 {
		t.Errorf("eager population recorded faults: %+v", as.Stats())
	}
	if got := as.Stats().Populated; got != 10<<20/addr.PageSize {
		t.Errorf("Populated = %d pages", got)
	}
}

func TestAllocLazyFaultsOnTouch(t *testing.T) {
	as, _ := newAS(Base4K)
	base := as.AllocLazy(4<<20, "growing")
	cost := as.Touch(base)
	if cost != as.cfg.FaultCost4K {
		t.Fatalf("first touch cost = %d, want %d", cost, as.cfg.FaultCost4K)
	}
	if as.Touch(base) != 0 {
		t.Fatal("second touch of same page faulted")
	}
	if as.Touch(base+addr.PageSize) == 0 {
		t.Fatal("next page should fault separately")
	}
	s := as.Stats()
	if s.Faults4K != 2 || s.FaultCycles != 2*as.cfg.FaultCost4K {
		t.Errorf("stats = %+v", s)
	}
}

func TestHugePolicyFaultsWholeChunk(t *testing.T) {
	as, _ := newAS(Huge2M)
	base := as.AllocLazy(4<<20, "growing")
	cost := as.Touch(base + 12345)
	if cost != as.cfg.FaultCost2M {
		t.Fatalf("huge fault cost = %d, want %d", cost, as.cfg.FaultCost2M)
	}
	// The whole 2 MB chunk is now mapped.
	for off := uint64(0); off < addr.HugePageSize; off += addr.PageSize {
		if as.Touch(base+addr.V(off)) != 0 {
			t.Fatalf("page +%d not covered by huge fault", off)
		}
	}
	// Next chunk faults again.
	if as.Touch(base+addr.HugePageSize) != as.cfg.FaultCost2M {
		t.Fatal("second chunk did not fault huge")
	}
	if as.Stats().Faults2M != 2 {
		t.Errorf("Faults2M = %d", as.Stats().Faults2M)
	}
}

func TestHugeFallbackWhenNoContiguity(t *testing.T) {
	alloc := phys.New(64 << 20)
	// Exhaust contiguity.
	for {
		if _, ok := alloc.AllocHuge(); !ok {
			break
		}
	}
	// Free scattered singles so 4 KB allocation works but 2 MB does not.
	// (Simplest: new allocator + fragmentation.)
	alloc = phys.New(64 << 20)
	blocks := int(64 << 20 / addr.HugePageSize)
	alloc.InjectFragmentation(xrand.New(1), blocks*8, 1)
	for alloc.IntactHugeBlocks() > 0 {
		alloc.AllocHuge()
	}

	table := pagetable.NewRadix(alloc)
	as := New(table, alloc, DefaultConfig(Huge2M, alloc.TotalFrames()))
	base := as.AllocLazy(2<<20, "growing")
	cost := as.Touch(base)
	// Contiguity is exhausted (ratio 0): the fault stalls on a full
	// direct-compaction attempt, fails, and falls back to a 4 KB page.
	if cost != as.cfg.CompactionCost+as.cfg.FaultCost4K {
		t.Fatalf("fallback fault cost = %d, want compaction+4K = %d",
			cost, as.cfg.CompactionCost+as.cfg.FaultCost4K)
	}
	if as.Stats().HugeFallbacks != 1 {
		t.Errorf("HugeFallbacks = %d, want 1", as.Stats().HugeFallbacks)
	}
	// Only the touched page is mapped, not the whole chunk.
	if as.Touch(base+addr.PageSize) == 0 {
		t.Error("fallback chunk mapped more than the touched page")
	}
	// The chunk is remembered: no repeated AllocHuge attempts counted.
	if as.Stats().HugeFallbacks != 1 {
		t.Errorf("fallback retried: %d", as.Stats().HugeFallbacks)
	}
}

func TestReclaimPenaltyUnderPressure(t *testing.T) {
	alloc := phys.New(32 << 20)
	table := pagetable.NewRadix(alloc)
	cfg := DefaultConfig(Base4K, alloc.TotalFrames())
	cfg.ReclaimWatermark = alloc.TotalFrames() // always under pressure
	as := New(table, alloc, cfg)
	base := as.AllocLazy(2<<20, "x")
	cost := as.Touch(base)
	if cost != cfg.FaultCost4K+cfg.ReclaimCost {
		t.Fatalf("pressured fault cost = %d, want %d", cost, cfg.FaultCost4K+cfg.ReclaimCost)
	}
	if as.Stats().ReclaimHits != 1 {
		t.Errorf("ReclaimHits = %d", as.Stats().ReclaimHits)
	}
}

func TestRegionsAreAlignedAndDisjoint(t *testing.T) {
	as, _ := newAS(Base4K)
	as.Alloc(3<<20+5, "a") // odd size rounds up
	as.AllocLazy(1<<20, "b")
	as.Alloc(2<<20, "c")
	regions := as.regions
	if len(regions) != 3 {
		t.Fatalf("regions = %d", len(regions))
	}
	for i, r := range regions {
		if uint64(r.Base)%addr.HugePageSize != 0 {
			t.Errorf("region %d base %#x not 2MB-aligned", i, uint64(r.Base))
		}
		if r.Size%addr.HugePageSize != 0 {
			t.Errorf("region %d size %d not 2MB-granular", i, r.Size)
		}
		if i > 0 && r.Base < regions[i-1].End() {
			t.Errorf("region %d overlaps previous", i)
		}
	}
	// 3MB+5 -> 4MB, 1MB -> 2MB, 2MB -> 2MB.
	if heapBytes(as) != 4<<20+2<<20+2<<20 {
		t.Errorf("heap span = %d", heapBytes(as))
	}
}

// heapBytes returns the total reserved heap span.
func heapBytes(as *AddressSpace) uint64 { return uint64(as.brk - vaBase) }

func TestTranslateMatchesMapping(t *testing.T) {
	as, _ := newAS(Base4K)
	base := as.Alloc(2<<20, "data")
	pa1, ok := as.Translate(base + 100)
	if !ok {
		t.Fatal("translate of mapped page failed")
	}
	pa2, _ := as.Translate(base + 101)
	if pa2 != pa1+1 {
		t.Error("offsets within a page must translate contiguously")
	}
	if _, ok := as.Translate(as.brk + (1 << 30)); ok {
		t.Error("translate of unmapped address succeeded")
	}
}

func TestTranslateHugeMapping(t *testing.T) {
	as, _ := newAS(Huge2M)
	base := as.Alloc(2<<20, "data")
	paFirst, ok1 := as.Translate(base)
	paLast, ok2 := as.Translate(base + addr.HugePageSize - 1)
	if !ok1 || !ok2 {
		t.Fatal("huge translate failed")
	}
	// Contiguous physical backing across the whole 2 MB chunk.
	if paLast-paFirst != addr.HugePageSize-1 {
		t.Errorf("huge chunk not physically contiguous: %#x..%#x",
			uint64(paFirst), uint64(paLast))
	}
}

func TestZeroSizeAllocPanics(t *testing.T) {
	as, _ := newAS(Base4K)
	defer func() {
		if recover() == nil {
			t.Error("Alloc(0) did not panic")
		}
	}()
	as.Alloc(0, "bad")
}

func TestResetFaultStats(t *testing.T) {
	as, _ := newAS(Base4K)
	base := as.AllocLazy(2<<20, "x")
	as.Touch(base)
	as.ResetFaultStats()
	s := as.Stats()
	if s.Faults4K != 0 || s.FaultCycles != 0 {
		t.Errorf("fault stats not reset: %+v", s)
	}
	if s.Populated == 0 {
		t.Error("structural counters must survive reset")
	}
}

func TestEagerPopulationWithCuckooTable(t *testing.T) {
	alloc := phys.New(testMem)
	table := pagetable.NewCuckoo(alloc, 4096)
	as := New(table, alloc, DefaultConfig(Base4K, alloc.TotalFrames()))
	base := as.Alloc(8<<20, "data")
	for off := uint64(0); off < 8<<20; off += addr.PageSize {
		if _, ok := as.Translate(base + addr.V(off)); !ok {
			t.Fatalf("cuckoo-backed page +%d not mapped", off)
		}
	}
}

func TestEagerPopulationWithFlattenedTable(t *testing.T) {
	alloc := phys.New(testMem)
	table := pagetable.NewFlattened(alloc)
	as := New(table, alloc, DefaultConfig(Base4K, alloc.TotalFrames()))
	base := as.Alloc(8<<20, "data")
	if _, ok := as.Translate(base + 8<<20 - 1); !ok {
		t.Fatal("flattened-backed region not mapped to the end")
	}
}

func TestCompactionCostScalesWithScarcity(t *testing.T) {
	alloc := phys.New(256 << 20)
	cfg := DefaultConfig(Huge2M, alloc.TotalFrames())
	table := pagetable.NewRadix(alloc)
	as := New(table, alloc, cfg)

	// Fresh machine: full contiguity, no compaction charge.
	base := as.AllocLazy(2<<20, "a")
	if cost := as.Touch(base); cost != cfg.FaultCost2M {
		t.Fatalf("unpressured huge fault = %d, want %d", cost, cfg.FaultCost2M)
	}

	// Consume contiguity below the low watermark: full compaction cost.
	for alloc.ContiguityRatio() > cfg.PressureLow {
		if _, ok := alloc.AllocHuge(); !ok {
			break
		}
	}
	base2 := as.AllocLazy(2<<20, "b")
	cost := as.Touch(base2)
	if cost < cfg.CompactionCost {
		t.Fatalf("pressured huge fault = %d, want >= compaction cost %d", cost, cfg.CompactionCost)
	}
	if as.Stats().CompactionCycles == 0 {
		t.Error("compaction cycles not recorded")
	}
}

func TestCompactionChargedEvenOnFallback(t *testing.T) {
	alloc := phys.New(64 << 20)
	// Exhaust every huge block, then release one and punch a hole in it
	// so 4 KB frames exist but 2 MB contiguity does not.
	var last addr.PFN
	for {
		pfn, ok := alloc.AllocHuge()
		if !ok {
			break
		}
		last = pfn
	}
	alloc.Free(last)
	alloc.AllocAt(last + 256)
	cfg := DefaultConfig(Huge2M, alloc.TotalFrames())
	table := pagetable.NewRadix(alloc)
	as := New(table, alloc, cfg)
	base := as.AllocLazy(2<<20, "x")
	cost := as.Touch(base)
	// Failed attempt: compaction + 4K fallback fault.
	if cost != cfg.CompactionCost+cfg.FaultCost4K {
		t.Fatalf("fallback fault = %d, want %d", cost, cfg.CompactionCost+cfg.FaultCost4K)
	}
	// Second page in the same chunk: plain 4K fault, no new compaction.
	if cost := as.Touch(base + addr.PageSize); cost != cfg.FaultCost4K {
		t.Fatalf("second fallback page = %d, want plain 4K fault", cost)
	}
}

func TestResidentLimitReclaims(t *testing.T) {
	alloc := phys.New(128 << 20)
	table := pagetable.NewRadix(alloc)
	cfg := DefaultConfig(Base4K, alloc.TotalFrames())
	cfg.ResidentLimitFrames = 8 << 20 / addr.PageSize // 8 MB resident cap
	as := New(table, alloc, cfg)

	// Populate 16 MB eagerly: only ~8 MB may stay resident.
	base := as.Alloc(16<<20, "big")
	if got := as.residentPages; got > cfg.ResidentLimitFrames {
		t.Fatalf("resident pages %d exceed limit %d", got, cfg.ResidentLimitFrames)
	}
	if as.Stats().ReclaimedChunks == 0 {
		t.Fatal("no chunks reclaimed")
	}
	// Early chunks were evicted: touching them faults again.
	if cost := as.Touch(base); cost == 0 {
		t.Error("evicted page did not re-fault")
	}
	// Recently populated chunks are still resident.
	if cost := as.Touch(base + 16<<20 - addr.PageSize); cost != 0 {
		t.Error("most-recent chunk was evicted (FIFO order broken)")
	}
}

func TestResidentLimitWithHugePolicy(t *testing.T) {
	alloc := phys.New(128 << 20)
	table := pagetable.NewRadix(alloc)
	cfg := DefaultConfig(Huge2M, alloc.TotalFrames())
	cfg.ResidentLimitFrames = 4 << 20 / addr.PageSize // 4 MB = 2 chunks
	as := New(table, alloc, cfg)
	base := as.AllocLazy(12<<20, "big")
	for off := uint64(0); off < 12<<20; off += addr.HugePageSize {
		as.Touch(base + addr.V(off))
	}
	if as.Stats().ReclaimedChunks < 3 {
		t.Errorf("ReclaimedChunks = %d, want >= 3", as.Stats().ReclaimedChunks)
	}
	// Frames were actually returned: the allocator can hand them out.
	if as.residentPages > cfg.ResidentLimitFrames {
		t.Errorf("resident %d over limit", as.residentPages)
	}
	// Thrash: re-touching the first chunk faults huge again.
	if cost := as.Touch(base); cost == 0 {
		t.Error("evicted huge chunk did not re-fault")
	}
}

func TestUnmapFreesConsistently(t *testing.T) {
	alloc := phys.New(64 << 20)
	table := pagetable.NewRadix(alloc)
	cfg := DefaultConfig(Base4K, alloc.TotalFrames())
	cfg.ResidentLimitFrames = 2 << 20 / addr.PageSize
	as := New(table, alloc, cfg)
	free0 := alloc.FreeFrames()
	as.Alloc(8<<20, "churn") // forces eviction of 3 of 4 chunks
	used := free0 - alloc.FreeFrames()
	// Only the resident cap (plus table nodes) may remain allocated.
	if used > cfg.ResidentLimitFrames+64 {
		t.Errorf("frames in use %d, want <= limit+tables", used)
	}
}

// touchSets are BenchmarkTouchHit's two access patterns over mapped
// pages: a 1024-page hot set, and a spread over 32K pages.
var touchSets = []struct {
	name  string
	pages uint64
}{{"cached", 1024}, {"present", 1 << 15}}

// touchRig maps pages pages and returns 4096 random addresses in them.
func touchRig(pages uint64) (*AddressSpace, []addr.V) {
	as, _ := newAS(Base4K)
	base := as.Alloc(pages*addr.PageSize, "hot")
	rng := xrand.New(9)
	addrs := make([]addr.V, 4096)
	for i := range addrs {
		addrs[i] = base + addr.V(rng.Uint64n(pages)*addr.PageSize)
	}
	return as, addrs
}

// BenchmarkTouchHit measures the demand-paging check on the ~99% path: a
// page that is already mapped.
func BenchmarkTouchHit(b *testing.B) {
	for _, ts := range touchSets {
		b.Run(ts.name, func(b *testing.B) {
			as, addrs := touchRig(ts.pages)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				as.Touch(addrs[i&4095])
			}
		})
	}
}

// touchAllocBudget bounds the heap allocations of one Touch of a mapped
// page, which is designed to allocate nothing.
const touchAllocBudget = 2

// TestTouchHitAllocs keeps BenchmarkTouchHit's allocations per Touch
// under touchAllocBudget on both patterns.
func TestTouchHitAllocs(t *testing.T) {
	for _, ts := range touchSets {
		t.Run(ts.name, func(t *testing.T) {
			as, addrs := touchRig(ts.pages)
			i := 0
			allocs := testing.AllocsPerRun(10000, func() {
				as.Touch(addrs[i&4095])
				i++
			})
			if allocs > touchAllocBudget {
				t.Errorf("%.2f allocations per Touch, budget %d", allocs, touchAllocBudget)
			}
		})
	}
}

// reserveLog is a table that records its Reserve calls and every
// mapping that lands outside the ranges reserved before it.
type reserveLog struct {
	pagetable.Table
	reserved [][2]addr.VPN // [first, end) pages, in call order
	maps     int
	outside  []addr.VPN // first page of each mapping outside them
}

func (l *reserveLog) Reserve(vpn addr.VPN, pages uint64) {
	l.reserved = append(l.reserved, [2]addr.VPN{vpn, vpn + addr.VPN(pages)})
	l.Table.Reserve(vpn, pages)
}

func (l *reserveLog) mapped(vpn addr.VPN, count uint64) {
	l.maps++
	for _, r := range l.reserved {
		if vpn >= r[0] && vpn+addr.VPN(count) <= r[1] {
			return
		}
	}
	l.outside = append(l.outside, vpn)
}

func (l *reserveLog) Map(vpn addr.VPN, pfn addr.PFN) {
	l.mapped(vpn, 1)
	l.Table.Map(vpn, pfn)
}

func (l *reserveLog) MapRange(vpn addr.VPN, count uint64, base addr.PFN) {
	l.mapped(vpn, count)
	l.Table.MapRange(vpn, count, base)
}

func (l *reserveLog) MapHuge(vpn addr.VPN, base addr.PFN) {
	l.mapped(vpn, addr.EntriesPerTable)
	l.Table.MapHuge(vpn, base)
}

// TestReserveBeforeMap requires the address space to reserve each
// region in the table, with the region's bounds, before it maps any
// page of it: eager and lazy regions, under DemandPaging, the Huge2M
// policy, and frame-by-frame population under a resident limit.
func TestReserveBeforeMap(t *testing.T) {
	for _, c := range []struct {
		name   string
		policy Policy
		set    func(*Config)
	}{
		{"base4k", Base4K, func(*Config) {}},
		{"demand-paging", Base4K, func(c *Config) { c.DemandPaging = true }},
		{"huge2m", Huge2M, func(*Config) {}},
		{"holes", Huge2M, func(c *Config) { c.HoleFraction = 0.5 }},
		{"resident-limit", Base4K, func(c *Config) { c.ResidentLimitFrames = 4 << 20 / addr.PageSize }},
	} {
		t.Run(c.name, func(t *testing.T) {
			alloc := phys.New(testMem)
			log := &reserveLog{Table: pagetable.NewRadix(alloc)}
			cfg := DefaultConfig(c.policy, alloc.TotalFrames())
			c.set(&cfg)
			as := New(log, alloc, cfg)
			bases := []addr.V{as.Alloc(6<<20, "data"), as.AllocLazy(4<<20, "grow"), as.Alloc(2<<20+1, "more")}
			for _, b := range bases {
				for off := uint64(0); off < 4<<20; off += 64 << 10 {
					as.Touch(b + addr.V(off))
				}
			}
			if log.maps == 0 || len(log.outside) > 0 {
				t.Fatalf("%d of %d mappings outside the reserved ranges, first pages %#x", len(log.outside), log.maps, log.outside)
			}
			regions := as.regions
			if len(log.reserved) != len(regions) {
				t.Fatalf("%d Reserve calls for %d regions", len(log.reserved), len(regions))
			}
			for i, r := range regions {
				if want := [2]addr.VPN{r.Base.Page(), r.End().Page()}; log.reserved[i] != want {
					t.Errorf("region %q reserved pages [%#x, %#x), want [%#x, %#x)", r.Name,
						log.reserved[i][0], log.reserved[i][1], want[0], want[1])
				}
			}
		})
	}
}
