package pagetable

import (
	"testing"

	"ndpage/internal/addr"
	"ndpage/internal/phys"
	"ndpage/internal/xrand"
)

func TestFlattenedMapLookup(t *testing.T) {
	f := reserved(NewFlattened(newAlloc()), addr.EntriesPerTable)
	if _, ok := f.Lookup(42); ok {
		t.Fatal("empty table lookup found a mapping")
	}
	f.Map(42, 1000)
	e, ok := f.Lookup(42)
	if !ok || e.PFN != 1000 {
		t.Fatalf("Lookup = %+v, %v", e, ok)
	}
	f.Map(42, 2000)
	if f.MappedPages() != 1 {
		t.Errorf("MappedPages after remap = %d", f.MappedPages())
	}
}

func TestFlattenedWalkIsThreeAccesses(t *testing.T) {
	f := reserved(NewFlattened(newAlloc()), 1<<17)
	vpn := addr.VPN(0x12345)
	f.Map(vpn, 7)
	var w Walk
	f.WalkInto(vpn.Addr(), &w)
	if !w.Found || w.Entry.PFN != 7 {
		t.Fatalf("walk = %+v", w)
	}
	if len(w.Seq) != 3 {
		t.Fatalf("flattened walk = %d accesses, want 3 (paper Fig 9)", len(w.Seq))
	}
	want := []addr.Level{addr.PL4, addr.PL3, addr.L2L1}
	for i, a := range w.Seq {
		if a.Level != want[i] {
			t.Errorf("Seq[%d].Level = %v, want %v", i, a.Level, want[i])
		}
	}
}

// TestFlattenedAgreesWithRadix: the flattened table is a different
// *organization* of the same function — both must produce identical
// translations for identical Map calls.
func TestFlattenedAgreesWithRadix(t *testing.T) {
	f := reserved(NewFlattened(newAlloc()), testSpan)
	r := reserved(NewRadix(newAlloc()), testSpan)
	rng := xrand.New(3)
	var vpns []addr.VPN
	for i := 0; i < 2000; i++ {
		vpn := addr.VPN(rng.Uint64n(testSpan)) // spread across 64 nodes
		pfn := addr.PFN(rng.Uint64n(1 << 22))
		f.Map(vpn, pfn)
		r.Map(vpn, pfn)
		vpns = append(vpns, vpn)
	}
	for _, vpn := range vpns {
		ef, okf := f.Lookup(vpn)
		er, okr := r.Lookup(vpn)
		if okf != okr || ef.PFN != er.PFN {
			t.Fatalf("vpn %#x: flattened %+v/%v vs radix %+v/%v",
				uint64(vpn), ef, okf, er, okr)
		}
	}
}

func TestFlattenedSiblingRegionsShareFlatNode(t *testing.T) {
	f := reserved(NewFlattened(newAlloc()), 8*addr.EntriesPerTable)
	// Two pages in different 2 MB regions of the same 1 GB span: a radix
	// table would need two PL1 nodes under two PL2 entries; the
	// flattened table serves both from one node with direct indexing.
	a := addr.VPN(0)
	b := addr.VPN(addr.EntriesPerTable * 7) // 7 regions away
	f.Map(a, 1)
	f.Map(b, 2)
	occ := f.Occupancy()
	var flat LevelOccupancy
	for _, o := range occ {
		if o.Level == addr.L2L1 {
			flat = o
		}
	}
	if flat.Nodes != 1 {
		t.Fatalf("flattened nodes = %d, want 1", flat.Nodes)
	}
	var wa, wb Walk
	f.WalkInto(a.Addr(), &wa)
	f.WalkInto(b.Addr(), &wb)
	da := wa.Seq[2].PA
	db := wb.Seq[2].PA
	if da == db {
		t.Error("distinct pages read the same flattened PTE")
	}
}

func TestFlattenedMapRange(t *testing.T) {
	f := reserved(NewFlattened(newAlloc()), 4000)
	const start, count = addr.VPN(1000), uint64(3000)
	f.MapRange(start, count, 5000)
	if f.MappedPages() != count {
		t.Fatalf("MappedPages = %d, want %d", f.MappedPages(), count)
	}
	for _, k := range []uint64{0, 1, 1500, count - 1} {
		e, ok := f.Lookup(start + addr.VPN(k))
		if !ok || e.PFN != 5000+addr.PFN(k) {
			t.Fatalf("page +%d: %+v, %v", k, e, ok)
		}
	}
}

func TestFlattenedMapHugeExpandsTo512(t *testing.T) {
	f := reserved(NewFlattened(newAlloc()), 3*addr.EntriesPerTable)
	base := addr.VPN(addr.EntriesPerTable * 2)
	f.MapHuge(base, 7000)
	if f.MappedPages() != addr.EntriesPerTable {
		t.Fatalf("MappedPages = %d", f.MappedPages())
	}
	e, ok := f.Lookup(base + 100)
	if !ok || e.PFN != 7100 || e.Huge {
		t.Fatalf("Lookup = %+v, %v (flattened stores 4K entries)", e, ok)
	}
}

func TestFlattenedHugeBackingPreferred(t *testing.T) {
	f := reserved(NewFlattened(newAlloc()), addr.EntriesPerTable)
	f.Map(1, 1)
	if n := f.flatAt(pl3Slot(addr.VPN(1).Addr())); n == nil || !n.huge {
		t.Error("fresh allocator: flattened node not backed by a 2 MB block")
	}
}

func TestFlattenedChunkFallbackWhenFragmented(t *testing.T) {
	alloc := phys.New(64 << 20)
	// Destroy all 2 MB contiguity.
	blocks := int(64 << 20 / addr.HugePageSize)
	alloc.InjectFragmentation(xrand.New(1), blocks*16, 1)
	for alloc.IntactHugeBlocks() > 0 {
		if _, ok := alloc.AllocHuge(); !ok {
			break
		}
	}
	f := reserved(NewFlattened(alloc), addr.EntriesPerTable)
	f.Map(1, 1)
	if n := f.flatAt(pl3Slot(addr.VPN(1).Addr())); n == nil || n.huge || n.chunks == nil {
		t.Fatal("fragmented allocator: flattened node not backed by chunked frames")
	}
	// Walks still produce valid, distinct PTE addresses.
	var w Walk
	f.WalkInto(addr.VPN(1).Addr(), &w)
	if !w.Found || len(w.Seq) != 3 {
		t.Fatalf("walk on chunk-backed node = %+v", w)
	}
}

func TestFlattenedOccupancy(t *testing.T) {
	f := reserved(NewFlattened(newAlloc()), addr.FlatEntries)
	// Fill one full 1 GB span: flattened occupancy 100%.
	f.MapRange(0, addr.FlatEntries, 0)
	for _, o := range f.Occupancy() {
		switch o.Level {
		case addr.L2L1:
			if o.Rate() != 1.0 || o.Nodes != 1 {
				t.Errorf("L2L1 occupancy = %+v", o)
			}
		case addr.PL3:
			if o.EntriesUsed != 1 {
				t.Errorf("PL3 entries used = %d, want 1", o.EntriesUsed)
			}
		}
	}
}

func TestFlattenedWalkUnmapped(t *testing.T) {
	f := reserved(NewFlattened(newAlloc()), addr.EntriesPerTable)
	f.Map(0, 1)
	var w Walk
	// Unmapped page in the mapped 1 GB span: 3 accesses, not found.
	f.WalkInto(addr.V(addr.PageSize*99), &w)
	if w.Found || len(w.Seq) != 3 {
		t.Fatalf("walk = found=%v len=%d", w.Found, len(w.Seq))
	}
	// Different 1 GB span: stops after PL3 lookup fails (2 accesses).
	f.WalkInto(addr.V(1)<<30, &w)
	if w.Found || len(w.Seq) != 2 {
		t.Fatalf("cross-span walk = found=%v len=%d", w.Found, len(w.Seq))
	}
}

// TestFlattenedSparseSlotGrow pins the setFlat growth path: mapping a
// page whose PL3 slot is far beyond the current dense index must grow
// the index in one step (slices.Grow, not element-at-a-time append) and
// leave every intervening slot nil and unmapped.
func TestFlattenedSparseSlotGrow(t *testing.T) {
	f := reserved(NewFlattened(newAlloc()), testSpan)
	low := addr.VPN(5)
	f.Map(low, 100)

	// 60 GB away: slot 60 while the index holds 1 entry.
	far := addr.VPN(60 << (30 - addr.PageShift))
	f.Map(far, 200)

	if got := uint64(len(f.flats)); got != pl3Slot(far.Addr())+1 {
		t.Fatalf("flats length = %d, want %d", got, pl3Slot(far.Addr())+1)
	}
	for s := pl3Slot(low.Addr()) + 1; s < pl3Slot(far.Addr()); s++ {
		if f.flats[s] != nil {
			t.Fatalf("intervening slot %d materialized a node", s)
		}
	}
	for _, tc := range []struct {
		vpn addr.VPN
		pfn addr.PFN
	}{{low, 100}, {far, 200}} {
		e, ok := f.Lookup(tc.vpn)
		if !ok || e.PFN != tc.pfn {
			t.Fatalf("Lookup(%#x) = %+v, %v", uint64(tc.vpn), e, ok)
		}
	}
	// Growing backward-compatibly: a slot in the middle lands in the
	// already-grown index without reallocating past the end.
	mid := addr.VPN(30 << (30 - addr.PageShift))
	f.Map(mid, 300)
	if e, ok := f.Lookup(mid); !ok || e.PFN != 300 {
		t.Fatalf("Lookup(mid) = %+v, %v", e, ok)
	}
	if f.MappedPages() != 3 {
		t.Fatalf("MappedPages = %d, want 3", f.MappedPages())
	}
}

// TestFlattenedSparseNodeMetadataBudget enforces the PR acceptance bound:
// a flat node holding a handful of scattered pages must keep its resident
// metadata at no more than 1/4 of the 256 KB the old always-materialized
// present []bool alone consumed. The node's span is reserved before the
// empty table is measured: the frame-store window is the heap's cost,
// 88 B per 2 MB chunk, not the node's.
func TestFlattenedSparseNodeMetadataBudget(t *testing.T) {
	f := reserved(NewFlattened(newAlloc()), addr.FlatEntries)
	empty := f.MetadataBytes()
	rng := xrand.New(3)
	for i := 0; i < 8; i++ { // 8 pages scattered over one 1 GB node
		f.Map(addr.VPN(rng.Uint64n(addr.FlatEntries)), addr.PFN(i))
	}
	sparse := f.MetadataBytes() - empty
	const budget = 256 * 1024 / 4
	if sparse > budget {
		t.Fatalf("sparse flat node metadata = %d B, budget %d B", sparse, budget)
	}
	t.Logf("sparse flat node metadata: %d B (budget %d B)", sparse, budget)

	// Dense comparison point, logged for the record: full node.
	g := reserved(NewFlattened(newAlloc()), addr.FlatEntries)
	base := g.MetadataBytes()
	g.MapRange(0, addr.FlatEntries, 0)
	t.Logf("dense flat node metadata: %d B", g.MetadataBytes()-base)
}

// TestFlattenedMetadataBounds bounds resident metadata per mapped page
// at the pr workload's default footprint (5738 chunks, 11.2 GiB): one
// frame store record per 2 MB chunk, no frame arrays.
func TestFlattenedMetadataBounds(t *testing.T) {
	f := NewFlattened(phys.New(1 << 30))
	populateHeap(f, 5738)
	if got := float64(f.MetadataBytes()) / float64(f.MappedPages()); got > 0.26 {
		t.Errorf("dense heap: %.3f B/page, want <= 0.26", got)
	}
}
