package walker_test

import (
	"testing"

	"ndpage/internal/access"
	"ndpage/internal/addr"
	"ndpage/internal/osmm"
	"ndpage/internal/pagetable"
	"ndpage/internal/phys"
	"ndpage/internal/pwc"
	"ndpage/internal/walker"
	"ndpage/internal/xrand"
)

// fakeMem is a fixed-latency memory: every access completes lat cycles
// after issue, so walk timing is exactly predictable.
type fakeMem struct {
	lat uint64
}

func (m *fakeMem) Access(core int, now uint64, pa addr.P, op access.Op, class access.Class) uint64 {
	return now + m.lat
}

// radixRig maps a 64 MB region in a radix table and returns a walker
// over it with the given config.
func radixRig(t testing.TB, cfg walker.Config) (*walker.Walker, addr.V) {
	t.Helper()
	alloc := phys.New(1 << 30)
	table := pagetable.NewRadix(alloc)
	as := osmm.New(table, alloc, osmm.DefaultConfig(osmm.Base4K, alloc.TotalFrames()))
	base := as.Alloc(64<<20, "data")
	return walker.New(table, &fakeMem{lat: 100}, cfg), base
}

func TestBlockingWalkTiming(t *testing.T) {
	w, base := radixRig(t, walker.Config{})
	resp := w.Walk(walker.Request{Core: 0, V: base, Time: 1000})
	if !resp.Found {
		t.Fatal("mapped page not found")
	}
	// A cold radix walk with no PWC is 4 dependent accesses.
	if resp.Done != 1000+4*100 {
		t.Errorf("walk completed at %d, want %d", resp.Done, 1000+4*100)
	}
	s := w.Stats()
	if s.Walks.Value() != 1 || s.PTEAccesses.Value() != 4 {
		t.Errorf("walks=%d pte=%d, want 1/4", s.Walks.Value(), s.PTEAccesses.Value())
	}
	if s.MSHRHits != 0 || s.OverlappedWalks != 0 || s.QueuedWalks != 0 {
		t.Error("blocking walk recorded concurrency events")
	}
	if s.MaxInFlight != 1 {
		t.Errorf("MaxInFlight = %d, want 1", s.MaxInFlight)
	}
}

// TestWalkRejectsBackdatedRequest: Walk serves one serial requester, so
// a request timestamped before the previous walk's end is a caller bug.
// It panics instead of coalescing onto or queueing behind that walk.
func TestWalkRejectsBackdatedRequest(t *testing.T) {
	w, base := radixRig(t, walker.Config{Width: 2})
	a := w.Walk(walker.Request{Core: 0, V: base, Time: 0})
	// A request at the previous walk's end is serial: accepted.
	b := w.Walk(walker.Request{Core: 0, V: base + addr.PageSize, Time: a.Done})
	defer func() {
		if recover() == nil {
			t.Error("Walk accepted a request timestamped before the previous walk's end")
		}
	}()
	w.Walk(walker.Request{Core: 1, V: base + addr.PageSize + 64, Time: b.Done - 1})
}

func TestPWCSkipShortensWalk(t *testing.T) {
	alloc := phys.New(1 << 30)
	table := pagetable.NewRadix(alloc)
	as := osmm.New(table, alloc, osmm.DefaultConfig(osmm.Base4K, alloc.TotalFrames()))
	base := as.Alloc(64<<20, "data")
	pwcs := pwc.New(pwc.Default())
	w := walker.New(table, &fakeMem{lat: 100}, walker.Config{Cache: pwcs})

	a := w.Walk(walker.Request{Core: 0, V: base, Time: 0})
	// Cold: 1-cycle PWC probe (miss) + 4 accesses.
	if a.Done != 1+400 {
		t.Errorf("cold walk ended at %d, want 401", a.Done)
	}
	// Same 2 MB region, different page, after the first walk retired:
	// the PL2 PWC entry filled by walk 1 skips all but the PL1 access.
	b := w.Walk(walker.Request{Core: 0, V: base + 7*addr.PageSize, Time: 10_000})
	if b.Done != 10_000+1+100 {
		t.Errorf("PWC-assisted walk ended at %d, want %d", b.Done, 10_000+1+100)
	}
	if got := w.Stats().PTEAccesses.Value(); got != 5 {
		t.Errorf("total PTE accesses = %d, want 5 (4 cold + 1 assisted)", got)
	}
}

// parTable is a stub hash table with controlled placement: every page
// maps to frame vpn+1, probed with d=3 parallel ways, and the way that
// holds each page is chosen by the test.
type parTable struct {
	ways    int
	foundAt map[addr.VPN]int
}

func (p *parTable) Kind() string                                { return "stub-hash" }
func (p *parTable) Reserve(vpn addr.VPN, pages uint64)          {}
func (p *parTable) Map(vpn addr.VPN, pfn addr.PFN)              {}
func (p *parTable) MapHuge(vpn addr.VPN, base addr.PFN)         { panic("no huge") }
func (p *parTable) MapRange(vpn addr.VPN, n uint64, b addr.PFN) {}
func (p *parTable) Lookup(vpn addr.VPN) (pagetable.Entry, bool) {
	return pagetable.Entry{PFN: addr.PFN(vpn + 1)}, true
}
func (p *parTable) Unmap(vpn addr.VPN) (pagetable.Entry, bool) { return pagetable.Entry{}, false }
func (p *parTable) WalkInto(v addr.V, w *pagetable.Walk) {
	w.Reset()
	vpn := v.Page()
	for i := 0; i < p.ways; i++ {
		w.Par = append(w.Par, pagetable.Access{Level: pagetable.HashLevel, PA: addr.P(uint64(vpn)*8 + uint64(i))})
	}
	w.Found = true
	w.Entry = pagetable.Entry{PFN: addr.PFN(vpn + 1)}
	w.FoundIdx = p.foundAt[vpn]
}
func (p *parTable) Present(vpn addr.VPN) bool             { return true }
func (p *parTable) Occupancy() []pagetable.LevelOccupancy { return nil }
func (p *parTable) MappedPages() uint64                   { return uint64(len(p.foundAt)) }
func (p *parTable) MetadataBytes() uint64                 { return 0 }

func TestWayPredictionMispredictFallback(t *testing.T) {
	// Pages 0..7 share one way-prediction region. Page 0 lives in way 1,
	// page 1 in way 2, page 2 also in way 2.
	table := &parTable{ways: 3, foundAt: map[addr.VPN]int{0: 1, 1: 2, 2: 2}}
	w := walker.New(table, &fakeMem{lat: 100}, walker.Config{WayPrediction: true})

	// Cold region: no hint, all 3 ways probed in parallel after the
	// 1-cycle cuckoo-walk-cache probe.
	a := w.Walk(walker.Request{Core: 0, V: 0, Time: 0})
	if a.Done != 1+100 {
		t.Errorf("cold hash walk ended at %d, want 101", a.Done)
	}
	if got := w.Stats().PTEAccesses.Value(); got != 3 {
		t.Fatalf("cold hash walk probes = %d, want 3", got)
	}

	// The cache learned way 1 for the region, but page 1 lives in way 2:
	// one predicted probe, then a full fallback round over the other two
	// ways — serialized after the mispredict is detected.
	b := w.Walk(walker.Request{Core: 0, V: addr.PageSize, Time: 1000})
	if b.Done != 1000+1+100+100 {
		t.Errorf("mispredicted walk ended at %d, want %d", b.Done, 1000+1+100+100)
	}
	if got := w.Stats().PTEAccesses.Value(); got != 3+3 {
		t.Errorf("mispredict probes = %d, want 3", got-3)
	}

	// The mispredict retrained the hint to way 2; page 2 now predicts
	// correctly and probes a single way.
	c := w.Walk(walker.Request{Core: 0, V: 2 * addr.PageSize, Time: 2000})
	if c.Done != 2000+1+100 {
		t.Errorf("predicted walk ended at %d, want %d", c.Done, 2000+1+100)
	}
	if got := w.Stats().PTEAccesses.Value(); got != 6+1 {
		t.Errorf("predicted probes = %d, want 1", got-6)
	}
}

func TestUnmappedWalkReportsNotFound(t *testing.T) {
	w, _ := radixRig(t, walker.Config{})
	resp := w.Walk(walker.Request{Core: 0, V: addr.V(0x7000_0000_0000), Time: 0})
	if resp.Found {
		t.Error("unmapped address reported found")
	}
}

// BenchmarkWalk is one serial walk over a populated 64 MB radix table
// with a PWC: one core on its private width-1 walker requests a random
// page 50 cycles after its previous walk is done. Walkers shared by
// several cores run on the event schedule (BenchmarkWalkAsync).
func BenchmarkWalk(b *testing.B) {
	b.Run("private-w1", func(b *testing.B) {
		w, base := radixRig(b, walker.Config{Cache: pwc.New(pwc.Default())})
		rng := xrand.New(5)
		pages := make([]addr.V, 1<<12)
		for i := range pages {
			pages[i] = base + addr.V(rng.Uint64n(64<<20/addr.PageSize)*addr.PageSize)
		}
		var clock uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clock = w.Walk(walker.Request{V: pages[i&(len(pages)-1)], Time: clock}).Done + 50
		}
	})
}
