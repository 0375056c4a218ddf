package pagetable

import (
	"testing"

	"ndpage/internal/addr"
	"ndpage/internal/phys"
	"ndpage/internal/xrand"
)

// benchTable populates a table with a dense 256 MB region and returns
// 4096 random addresses in it.
func benchTable(b testing.TB, t Table) []addr.V {
	b.Helper()
	t.Reserve(0, 1<<16)
	t.MapRange(0, 1<<16, 0) // 256 MB dense
	rng := xrand.New(1)
	addrs := make([]addr.V, 4096)
	for i := range addrs {
		vpn := addr.VPN(rng.Uint64n(1 << 16))
		addrs[i] = vpn.Addr()
	}
	return addrs
}

func BenchmarkRadixWalk(b *testing.B) {
	t := NewRadix(phys.New(1 << 30))
	addrs := benchTable(b, t)
	var w Walk
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.WalkInto(addrs[i&4095], &w)
	}
}

func BenchmarkFlattenedWalk(b *testing.B) {
	t := NewFlattened(phys.New(1 << 30))
	addrs := benchTable(b, t)
	var w Walk
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.WalkInto(addrs[i&4095], &w)
	}
}

func BenchmarkCuckooWalk(b *testing.B) {
	t := NewCuckoo(phys.New(1<<30), 4096)
	addrs := benchTable(b, t)
	var w Walk
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.WalkInto(addrs[i&4095], &w)
	}
}

func BenchmarkRadixMapRange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := reserved(NewRadix(phys.New(1<<30)), 1<<16)
		t.MapRange(0, 1<<16, 0)
	}
}

// BenchmarkCuckooInsert maps random pages of a reserved 2^24-page heap
// one at a time: slot placement, kicks and gradual resizes.
func BenchmarkCuckooInsert(b *testing.B) {
	t := NewCuckoo(phys.New(1<<30), 1<<16)
	t.Reserve(heapBase, testSpan)
	rng := xrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Map(heapBase+addr.VPN(rng.Uint64n(testSpan)), addr.PFN(i))
	}
}

// heapBase is the first page of the OS model's heaps (osmm's vaBase).
const heapBase = addr.VPN(1) << 27

// populateHeap reserves chunks 2 MB chunks upward from heapBase and
// maps them, 512 pages per MapRange, the way the OS model's eager
// population fills a table. It ends with a read of the table, as the
// OS model's next reservation does, so ECH has placed the pages its
// bulk build queued.
func populateHeap(t Table, chunks int) {
	t.Reserve(heapBase, uint64(chunks)*addr.EntriesPerTable)
	for k := 0; k < chunks; k++ {
		off := uint64(k) * addr.EntriesPerTable
		t.MapRange(heapBase+addr.VPN(off), addr.EntriesPerTable, addr.PFN(off))
	}
	t.MappedPages()
}

// BenchmarkCuckooPopulate builds an ECH table over a 4 GB heap (1M
// pages) the way the simulator does, reporting the host cost per page
// and the resident metadata per page.
func BenchmarkCuckooPopulate(b *testing.B) {
	b.ReportAllocs()
	var perPage float64
	for i := 0; i < b.N; i++ {
		c := NewCuckoo(phys.New(1<<30), 4096)
		populateHeap(c, 2048)
		perPage = float64(c.MetadataBytes()) / float64(c.MappedPages())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(2048*addr.EntriesPerTable), "ns/page")
	b.ReportMetric(perPage, "bytes/page")
}

func BenchmarkRadixLookup(b *testing.B) {
	t := NewRadix(phys.New(1 << 30))
	addrs := benchTable(b, t)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(addrs[i&4095].Page())
	}
}

// benchSparseTable maps a handful of pages per 1 GB region across 64
// regions, so lookups cross flat nodes and land in lazily materialized
// chunks.
func benchSparseTable(b testing.TB, t Table) []addr.V {
	b.Helper()
	t.Reserve(0, 64*addr.FlatEntries)
	rng := xrand.New(3)
	addrs := make([]addr.V, 4096)
	for i := range addrs {
		region := rng.Uint64n(64) << 18 // one of 64 flat nodes
		vpn := addr.VPN(region + rng.Uint64n(addr.FlatEntries))
		t.Map(vpn, addr.PFN(i))
		addrs[i] = vpn.Addr()
	}
	return addrs
}

// lookupTables are BenchmarkFlattenedLookup's two layouts: a dense
// 256 MB region, and a few pages in each of 64 lazily materialized
// flat nodes.
var lookupTables = []struct {
	name  string
	build func(tb testing.TB) (Table, []addr.V)
}{
	{"dense", func(tb testing.TB) (Table, []addr.V) {
		t := NewFlattened(phys.New(1 << 30))
		return t, benchTable(tb, t)
	}},
	{"sparse", func(tb testing.TB) (Table, []addr.V) {
		t := NewFlattened(phys.New(1 << 32))
		return t, benchSparseTable(tb, t)
	}},
}

func BenchmarkFlattenedLookup(b *testing.B) {
	for _, lt := range lookupTables {
		b.Run(lt.name, func(b *testing.B) {
			t, addrs := lt.build(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Lookup(addrs[i&4095].Page())
			}
		})
	}
}

// lookupAllocBudget bounds the heap allocations of one steady-state
// Flattened lookup, which is designed to allocate nothing.
const lookupAllocBudget = 2

// TestFlattenedLookupAllocs keeps BenchmarkFlattenedLookup's
// allocations per lookup under lookupAllocBudget on both layouts.
func TestFlattenedLookupAllocs(t *testing.T) {
	for _, lt := range lookupTables {
		t.Run(lt.name, func(t *testing.T) {
			tbl, addrs := lt.build(t)
			i := 0
			allocs := testing.AllocsPerRun(10000, func() {
				tbl.Lookup(addrs[i&4095].Page())
				i++
			})
			if allocs > lookupAllocBudget {
				t.Errorf("%.2f allocations per lookup, budget %d", allocs, lookupAllocBudget)
			}
		})
	}
}

func BenchmarkFlattenedPresent(b *testing.B) {
	t := NewFlattened(phys.New(1 << 30))
	addrs := benchTable(b, t)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Present(addrs[i&4095].Page())
	}
}

// referenceSweep populates the reference sweep: a dense 1 GB region
// plus 16K pages scattered across 63 more flat nodes.
func referenceSweep() *Flattened {
	t := reserved(NewFlattened(phys.New(1<<32)), 64*addr.FlatEntries)
	t.MapRange(0, addr.FlatEntries, 0) // dense 1 GB
	rng := xrand.New(5)
	for j := 0; j < 1<<14; j++ { // sparse tail over 63 GB
		region := (1 + rng.Uint64n(63)) << 18
		t.Map(addr.VPN(region+rng.Uint64n(addr.FlatEntries)), addr.PFN(j))
	}
	return t
}

// BenchmarkFlattenedReferenceSweep builds the reference sweep and
// reports resident metadata per mapped page, which
// TestFlattenedReferenceSweepMetadata bounds.
func BenchmarkFlattenedReferenceSweep(b *testing.B) {
	var perPage float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := referenceSweep()
		perPage = float64(t.MetadataBytes()) / float64(t.MappedPages())
	}
	b.ReportMetric(perPage, "bytes/page")
}

// sweepMetaBudget bounds the reference sweep's resident metadata per
// mapped page, in bytes. It was ~54 B/page when the budget was set;
// the scattered pages cost far more than the dense ones.
const sweepMetaBudget = 256

// TestFlattenedReferenceSweepMetadata keeps the reference sweep's
// metadata per mapped page under sweepMetaBudget.
// TestFlattenedMetadataBounds covers the dense heap alone.
func TestFlattenedReferenceSweepMetadata(t *testing.T) {
	f := referenceSweep()
	perPage := float64(f.MetadataBytes()) / float64(f.MappedPages())
	if perPage > sweepMetaBudget {
		t.Errorf("reference sweep: %.1f B/page, budget %d", perPage, sweepMetaBudget)
	}
	t.Logf("reference sweep: %.1f B/page (budget %d)", perPage, sweepMetaBudget)
}

// heapChunks is the pr workload's default footprint in 2 MB chunks
// (11.2 GiB): far past the host caches, unlike benchTable's 256 MB, so
// the per-table benchmarks below see the host misses a simulation does.
const heapChunks = 5738

// benchHeap runs op on each table, populated over heapChunks, with
// uniformly random VPNs inside the heap drawn by an inline LCG (no
// address array to compete for cache).
func benchHeap(b *testing.B, op func(t Table, vpn addr.VPN)) {
	for _, mk := range []func() Table{
		func() Table { return NewRadix(phys.New(1 << 30)) },
		func() Table { return NewFlattened(phys.New(1 << 30)) },
		func() Table { return NewCuckoo(phys.New(1<<30), 4096) },
	} {
		t := mk()
		populateHeap(t, heapChunks)
		b.Run(t.Kind(), func(b *testing.B) {
			x := uint64(1)
			for i := 0; i < b.N; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				op(t, heapBase+addr.VPN((x>>24)%(heapChunks*addr.EntriesPerTable)))
			}
		})
	}
}

// presentSink keeps BenchmarkHeapPresent's result live.
var presentSink bool

// BenchmarkHeapPresent is the osmm.Touch predicate over a full heap.
func BenchmarkHeapPresent(b *testing.B) {
	benchHeap(b, func(t Table, vpn addr.VPN) { presentSink = t.Present(vpn) })
}

// BenchmarkHeapWalk is the hardware walk's table side over a full heap.
func BenchmarkHeapWalk(b *testing.B) {
	var w Walk
	benchHeap(b, func(t Table, vpn addr.VPN) { t.WalkInto(vpn.Addr(), &w) })
}
