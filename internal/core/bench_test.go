package core

import (
	"testing"

	"ndpage/internal/access"
	"ndpage/internal/addr"
	"ndpage/internal/engine"
	"ndpage/internal/memsys"
	"ndpage/internal/osmm"
	"ndpage/internal/phys"
	"ndpage/internal/xrand"
)

// benchRig builds one core's MMU for mech the way sim.New does — PCAX
// with its 512-entry PC table, NMT with identity segments, Victima
// with its translation-block store — over a 64 MB mapped region. It
// returns a fixed stream of 4096 accesses: three in four land in a
// 32-page hot set (L1 TLB hits), the rest anywhere in the region's 16K
// pages (past the L2 TLB's reach, so mostly walks).
func benchRig(b *testing.B, mech Mechanism) (*MMU, []addr.V) {
	b.Helper()
	alloc := phys.New(1 << 30)
	table := mech.NewTable(alloc)
	oscfg := osmm.DefaultConfig(mech.Policy(), alloc.TotalFrames())
	oscfg.IdentityMap = mech == NMT
	as := osmm.New(table, alloc, oscfg)
	base := as.Alloc(64<<20, "data")
	mcfg := memsys.Default(memsys.NDP, 1)
	mcfg.BypassL1PTE = mech.BypassL1PTE()
	var opts Options
	switch mech {
	case Victima:
		mcfg.VictimaGate = 2
	case PCAX:
		opts.PCXEntries = 512
	case NMT:
		opts.Identity = as
	}
	m := NewMMUWithOptions(mech, 0, table, memsys.New(mcfg), opts)
	rng := xrand.New(11)
	const pages = 64 << 20 / addr.PageSize
	addrs := make([]addr.V, 4096)
	for i := range addrs {
		page := rng.Uint64n(32)
		if rng.Uint64n(4) == 0 {
			page = rng.Uint64n(pages)
		}
		addrs[i] = base + addr.V(page*addr.PageSize+rng.Uint64n(addr.PageSize/addr.LineSize)*addr.LineSize)
	}
	return m, addrs
}

// benchPC is the issuing PC of access i: 16 load sites, so PCAX's
// PC-indexed table sees recurring keys.
func benchPC(i int) uint64 { return 0x400000 + uint64(i&15)*4 }

// BenchmarkTranslateAsyncPC is one translation on the non-blocking
// core's path for each mechanism of the comparison set: TLB hits resolve inline, misses walk on
// the event schedule, and the next access issues one cycle after the
// previous one resolves.
func BenchmarkTranslateAsyncPC(b *testing.B) {
	for _, mech := range ComparisonMechanisms {
		b.Run(mech.String(), func(b *testing.B) {
			m, addrs := benchRig(b, mech)
			eng := engine.New()
			var out xlatOut
			var now uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.TranslateAsyncPC(eng, now, addrs[i&4095], access.Read, benchPC(i), &out)
				eng.Run()
				now = out.at + 1
			}
		})
	}
}

// BenchmarkTranslatePC is BenchmarkTranslateAsyncPC on the blocking
// core's path: the same access stream, with misses walked
// synchronously.
func BenchmarkTranslatePC(b *testing.B) {
	for _, mech := range ComparisonMechanisms {
		b.Run(mech.String(), func(b *testing.B) {
			m, addrs := benchRig(b, mech)
			var now uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, done := m.TranslatePC(now, addrs[i&4095], access.Read, benchPC(i))
				now = done + 1
			}
		})
	}
}
