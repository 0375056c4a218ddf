package tlb

import (
	"testing"

	"ndpage/internal/addr"
	"ndpage/internal/pagetable"
)

func TestGeometryValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "zero", Entries: 0, Ways: 4},
		{Name: "noways", Entries: 64, Ways: 0},
		{Name: "ragged", Entries: 65, Ways: 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%q) did not panic", cfg.Name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestPresetsConstruct(t *testing.T) {
	for _, cfg := range []Config{L1D(), L1I(), L2()} {
		tl := New(cfg)
		if tl.Name() != cfg.Name || tl.Latency() != cfg.Latency {
			t.Errorf("%s: accessor mismatch", cfg.Name)
		}
	}
	if L2().Entries != 1536 || L2().Ways != 12 {
		t.Error("L2 TLB must be 1536-entry 12-way per Table I")
	}
}

func TestMissThenHit(t *testing.T) {
	tl := New(L1D())
	if _, ok := tl.Lookup(100); ok {
		t.Fatal("cold lookup hit")
	}
	tl.Insert(100, pagetable.Entry{PFN: 555})
	e, ok := tl.Lookup(100)
	if !ok || e.PFN != 555 {
		t.Fatalf("Lookup = %+v, %v", e, ok)
	}
	s := tl.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestHugeEntryCovers512Pages(t *testing.T) {
	tl := New(L1D())
	// A huge entry inserted for any vpn in the region serves the whole
	// 2 MB region.
	base := addr.VPN(4096) // 2MB-aligned (4096 = 8*512)
	tl.Insert(base+17, pagetable.Entry{PFN: 9000, Huge: true})
	for _, off := range []addr.VPN{0, 1, 17, 255, 511} {
		e, ok := tl.Lookup(base + off)
		if !ok {
			t.Fatalf("huge lookup missed at offset %d", off)
		}
		if got := e.Translate(base + off); got != 9000+addr.PFN(off) {
			t.Errorf("Translate(base+%d) = %d, want %d", off, got, 9000+addr.PFN(off))
		}
	}
	// Next 2 MB region must miss.
	if _, ok := tl.Lookup(base + 512); ok {
		t.Error("adjacent huge region hit")
	}
}

func Test4KTranslateIdentity(t *testing.T) {
	e := pagetable.Entry{PFN: 77}
	if e.Translate(12345) != 77 {
		t.Error("4K Translate must return the stored PFN")
	}
}

func TestMixedSizesCoexist(t *testing.T) {
	tl := New(L1D())
	tl.Insert(1000, pagetable.Entry{PFN: 1})
	tl.Insert(addr.VPN(512*9), pagetable.Entry{PFN: 2, Huge: true})
	if _, ok := tl.Lookup(1000); !ok {
		t.Error("4K entry lost")
	}
	if _, ok := tl.Lookup(addr.VPN(512*9 + 3)); !ok {
		t.Error("huge entry lost")
	}
}

func TestTLBWithoutHugeSubArrayDropsHugeEntries(t *testing.T) {
	tl := New(L2())
	if tl.huge != nil {
		t.Fatal("Table I L2 TLB must be 4K-only in this model")
	}
	tl.Insert(addr.VPN(512*3), pagetable.Entry{PFN: 9, Huge: true})
	if tl.Len() != 0 {
		t.Error("4K-only TLB stored a huge entry")
	}
	if _, ok := tl.Lookup(addr.VPN(512*3 + 1)); ok {
		t.Error("4K-only TLB hit a huge translation")
	}
	// 4K entries still work.
	tl.Insert(7, pagetable.Entry{PFN: 1})
	if _, ok := tl.Lookup(7); !ok {
		t.Error("4K-only TLB lost a 4K entry")
	}
}

func TestReachExceededCausesMisses(t *testing.T) {
	// Random-ish pages far beyond capacity must keep missing: this is
	// the workload regime of the paper (91.27% TLB miss rate).
	tl := New(L1D())
	misses := 0
	const n = 10000
	for i := 0; i < n; i++ {
		vpn := addr.VPN(i * 977) // stride sweep, no reuse
		if _, ok := tl.Lookup(vpn); !ok {
			misses++
			tl.Insert(vpn, pagetable.Entry{PFN: addr.PFN(i)})
		}
	}
	if rate := float64(misses) / n; rate < 0.99 {
		t.Errorf("no-reuse sweep miss rate = %.3f, want ~1", rate)
	}
}

func TestSmallWorkingSetHits(t *testing.T) {
	tl := New(L1D())
	for pass := 0; pass < 4; pass++ {
		for vpn := addr.VPN(0); vpn < 32; vpn++ {
			if _, ok := tl.Lookup(vpn); !ok {
				tl.Insert(vpn, pagetable.Entry{PFN: addr.PFN(vpn)})
			}
		}
	}
	// 32 pages fit in 64 entries: only cold misses.
	if got := tl.Stats().Misses.Value(); got != 32 {
		t.Errorf("misses = %d, want 32 cold misses", got)
	}
}

func TestInvalidate(t *testing.T) {
	tl := New(L1D())
	tl.Insert(5, pagetable.Entry{PFN: 1})
	tl.Insert(addr.VPN(512*2), pagetable.Entry{PFN: 2, Huge: true})
	tl.Invalidate(5)
	tl.Invalidate(addr.VPN(512*2 + 7))
	if tl.Len() != 0 {
		t.Errorf("Len = %d after invalidating both entries", tl.Len())
	}
}

func TestFlushAndResetStats(t *testing.T) {
	tl := New(L1D())
	tl.Insert(1, pagetable.Entry{PFN: 1})
	tl.Lookup(1)
	tl.Flush()
	if tl.Len() != 0 {
		t.Error("Flush left entries")
	}
	if tl.Stats().Total() == 0 {
		t.Error("Flush must preserve counters")
	}
	tl.ResetStats()
	if tl.Stats().Total() != 0 {
		t.Error("ResetStats did not zero counters")
	}
}

func BenchmarkTLBLookupHit(b *testing.B) {
	tl := New(L2())
	tl.Insert(7, pagetable.Entry{PFN: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Lookup(7)
	}
}

func BenchmarkTLBLookupMiss(b *testing.B) {
	tl := New(L2())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Lookup(addr.VPN(i))
	}
}
