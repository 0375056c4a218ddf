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

func TestMSHRCoalescesDuplicateInFlightVPN(t *testing.T) {
	w, base := radixRig(t, walker.Config{Width: 4})
	a := w.Walk(walker.Request{Core: 0, V: base, Time: 0})
	// A second request for the same page while the first walk is still in
	// flight coalesces: same completion time, no new PTE traffic.
	b := w.Walk(walker.Request{Core: 1, V: base + 64, Time: 50})
	if !b.Coalesced {
		t.Fatal("duplicate in-flight walk was not coalesced")
	}
	if b.Done != a.Done || b.Entry != a.Entry {
		t.Errorf("coalesced response (%d, %+v) differs from walk (%d, %+v)",
			b.Done, b.Entry, a.Done, a.Entry)
	}
	s := w.Stats()
	if s.Walks.Value() != 1 || s.MSHRHits.Value() != 1 {
		t.Errorf("walks=%d mshrHits=%d, want 1/1", s.Walks.Value(), s.MSHRHits.Value())
	}
	if s.PTEAccesses.Value() != 4 {
		t.Errorf("coalesced request issued PTE traffic: %d accesses", s.PTEAccesses.Value())
	}
	if got := s.MSHRHitRate(); got != 0.5 {
		t.Errorf("MSHRHitRate = %v, want 0.5", got)
	}

	// After the walk retires it no longer coalesces: a fresh request for
	// the same page walks again.
	c := w.Walk(walker.Request{Core: 0, V: base, Time: a.Done + 10})
	if c.Coalesced {
		t.Error("retired walk still coalescing")
	}
	if w.Stats().Walks.Value() != 2 {
		t.Errorf("walks = %d, want 2", w.Stats().Walks.Value())
	}
}

func TestWidthOneQueuesConcurrentWalks(t *testing.T) {
	w, base := radixRig(t, walker.Config{Width: 1})
	a := w.Walk(walker.Request{Core: 0, V: base, Time: 0}) // ends at 400
	b := w.Walk(walker.Request{Core: 1, V: base + addr.PageSize, Time: 100})
	if a.Done != 400 {
		t.Fatalf("first walk ends at %d, want 400", a.Done)
	}
	// The single slot is busy until 400; the second walk starts there.
	if b.Done != 400+400 {
		t.Errorf("queued walk completed at %d, want 800", b.Done)
	}
	s := w.Stats()
	if s.QueuedWalks.Value() != 1 || s.QueueCycles.Value() != 300 {
		t.Errorf("queued=%d queueCycles=%d, want 1/300", s.QueuedWalks.Value(), s.QueueCycles.Value())
	}
	if s.OverlappedWalks != 0 {
		t.Error("width-1 walker overlapped walks")
	}
}

func TestWidthTwoOverlapsConcurrentWalks(t *testing.T) {
	w, base := radixRig(t, walker.Config{Width: 2})
	a := w.Walk(walker.Request{Core: 0, V: base, Time: 0})
	b := w.Walk(walker.Request{Core: 1, V: base + addr.PageSize, Time: 100})
	if a.Done != 400 || b.Done != 500 {
		t.Errorf("walks ended at %d/%d, want 400/500 (overlapped)", a.Done, b.Done)
	}
	s := w.Stats()
	if s.OverlappedWalks.Value() != 1 {
		t.Errorf("overlapped = %d, want 1", s.OverlappedWalks.Value())
	}
	if s.QueuedWalks != 0 {
		t.Error("width-2 walker queued with a free slot")
	}
	if s.MaxInFlight != 2 {
		t.Errorf("MaxInFlight = %d, want 2", s.MaxInFlight)
	}

	// A third concurrent walk exceeds the two slots and queues until the
	// earliest in-flight walk (a, at 400) frees its slot.
	c := w.Walk(walker.Request{Core: 2, V: base + 2*addr.PageSize, Time: 150})
	if c.Done != 400+400 {
		t.Errorf("third walk completed at %d, want 800", c.Done)
	}
	if got := w.Stats().QueuedWalks.Value(); got != 1 {
		t.Errorf("queued = %d, want 1", got)
	}
}

func TestOutOfOrderRequestNotBlockedByFutureWalk(t *testing.T) {
	// The simulator's min-clock stepping can deliver a request
	// timestamped before a walk another core issued after paying a long
	// page fault. A walk that has not started yet must not hold a slot
	// against the earlier request.
	w, base := radixRig(t, walker.Config{Width: 1})
	a := w.Walk(walker.Request{Core: 0, V: base, Time: 20_100}) // [20100, 20500]
	if a.Done != 20_500 {
		t.Fatalf("first walk ends at %d, want 20500", a.Done)
	}
	b := w.Walk(walker.Request{Core: 1, V: base + addr.PageSize, Time: 150})
	if b.Done != 150+400 {
		t.Errorf("earlier-timestamped walk completed at %d, want 550 (not queued behind the future walk)", b.Done)
	}
	if got := w.Stats().QueuedWalks.Value(); got != 0 {
		t.Errorf("queued = %d, want 0", got)
	}
}

func TestOutOfOrderRequestNotCoalescedOntoFutureWalk(t *testing.T) {
	// Same skew, same page: a request must not coalesce onto a walk that
	// starts in its future — it would inherit the whole fault delay when
	// walking itself finishes far sooner.
	w, base := radixRig(t, walker.Config{Width: 1})
	a := w.Walk(walker.Request{Core: 0, V: base, Time: 20_100})
	b := w.Walk(walker.Request{Core: 1, V: base + 64, Time: 150})
	if b.Coalesced {
		t.Error("request coalesced onto a future-started walk")
	}
	if b.Done != 150+400 {
		t.Errorf("earlier-timestamped duplicate completed at %d, want 550", b.Done)
	}
	if a.Entry != b.Entry {
		t.Error("duplicate walks disagree on the translation")
	}
}

func TestRetiredMSHRServesEarlierTimestampedRequest(t *testing.T) {
	// A fault-delayed core's request can arrive (in execution order)
	// between a walk and a later request timestamped inside that walk's
	// lifetime. The intervening high-timestamp request must not flush
	// the MSHR the earlier-timestamped one needs.
	w, base := radixRig(t, walker.Config{Width: 4})
	w.Walk(walker.Request{Core: 0, V: base, Time: 0}) // [0, 400)
	w.Walk(walker.Request{Core: 1, V: base + addr.PageSize, Time: 50_000})
	d := w.Walk(walker.Request{Core: 2, V: base + 64, Time: 100})
	if !d.Coalesced {
		t.Error("retired-by-50000 MSHR no longer served the request timestamped 100")
	}
	if d.Done != 400 {
		t.Errorf("coalesced completion %d, want 400", d.Done)
	}
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

func TestResetStatsPreservesMSHRs(t *testing.T) {
	w, base := radixRig(t, walker.Config{Width: 2})
	a := w.Walk(walker.Request{Core: 0, V: base, Time: 0})
	w.ResetStats()
	s := w.Stats()
	if s.Walks != 0 || s.PTEAccesses != 0 {
		t.Error("stats not reset")
	}
	// The in-flight walk survives the reset and still coalesces.
	b := w.Walk(walker.Request{Core: 1, V: base, Time: a.Done - 1})
	if !b.Coalesced || s.MSHRHits.Value() != 1 {
		t.Error("MSHR contents lost by ResetStats")
	}
}

func TestUnmappedWalkReportsNotFound(t *testing.T) {
	w, _ := radixRig(t, walker.Config{})
	resp := w.Walk(walker.Request{Core: 0, V: addr.V(0x7000_0000_0000), Time: 0})
	if resp.Found {
		t.Error("unmapped address reported found")
	}
}

// BenchmarkWalk is one synchronous walk over a populated 64 MB radix
// table with a PWC, under the blocking core model's min-clock schedule:
// each core requests a random page when its previous walk is done. The
// private case is a per-core width-1 walker (one core); the shared case
// is one width-2 walker serving four cores, whose walks overlap and
// queue.
func BenchmarkWalk(b *testing.B) {
	for _, bc := range []struct {
		name         string
		cores, width int
	}{{"private-w1", 1, 1}, {"shared-w2", 4, 2}} {
		b.Run(bc.name, func(b *testing.B) {
			w, base := radixRig(b, walker.Config{Width: bc.width, Cache: pwc.New(pwc.Default())})
			rng := xrand.New(5)
			pages := make([]addr.V, 1<<12)
			for i := range pages {
				pages[i] = base + addr.V(rng.Uint64n(64<<20/addr.PageSize)*addr.PageSize)
			}
			clock := make([]uint64, bc.cores)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := 0
				for k := range clock {
					if clock[k] < clock[c] {
						c = k
					}
				}
				resp := w.Walk(walker.Request{Core: c, V: pages[i&(len(pages)-1)], Time: clock[c]})
				clock[c] = resp.Done + 50
			}
		})
	}
}
