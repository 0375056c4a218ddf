package pagetable

import (
	"testing"

	"ndpage/internal/addr"
	"ndpage/internal/phys"
)

func newAlloc() *phys.Allocator {
	return phys.New(256 << 20) // 256 MB is plenty for table nodes in tests
}

// testSpan is the span the table tests draw scattered keys from: 2^24
// pages (64 GiB), whose frame-store window is 32768 records, ~2.9 MB.
const testSpan = 1 << 24

// reserved reserves pages [0, pages) of t, as the OS model reserves a
// heap region before it maps into it, and returns t.
func reserved[T Table](t T, pages uint64) T {
	t.Reserve(0, pages)
	return t
}

func TestRadixMapLookup(t *testing.T) {
	r := reserved(NewRadix(newAlloc()), addr.EntriesPerTable)
	if _, ok := r.Lookup(42); ok {
		t.Fatal("lookup in empty table found a mapping")
	}
	r.Map(42, 1000)
	e, ok := r.Lookup(42)
	if !ok || e.PFN != 1000 || e.Huge {
		t.Fatalf("Lookup = %+v, %v", e, ok)
	}
	if r.MappedPages() != 1 {
		t.Errorf("MappedPages = %d", r.MappedPages())
	}
	// Remap updates in place without double counting.
	r.Map(42, 2000)
	if e, _ := r.Lookup(42); e.PFN != 2000 {
		t.Error("remap did not update")
	}
	if r.MappedPages() != 1 {
		t.Errorf("MappedPages after remap = %d", r.MappedPages())
	}
}

func TestRadixWalkDepthAndOrder(t *testing.T) {
	r := reserved(NewRadix(newAlloc()), 1<<17)
	vpn := addr.VPN(0x12345)
	r.Map(vpn, 7)
	var w Walk
	r.WalkInto(vpn.Addr(), &w)
	if !w.Found || w.Entry.PFN != 7 {
		t.Fatalf("walk = %+v", w)
	}
	if len(w.Seq) != 4 || len(w.Par) != 0 {
		t.Fatalf("radix walk must be 4 sequential accesses, got %d/%d", len(w.Seq), len(w.Par))
	}
	wantLevels := []addr.Level{addr.PL4, addr.PL3, addr.PL2, addr.PL1}
	for i, a := range w.Seq {
		if a.Level != wantLevels[i] {
			t.Errorf("Seq[%d].Level = %v, want %v", i, a.Level, wantLevels[i])
		}
	}
	// PTE addresses must be distinct and nonzero-frame-resident.
	seen := map[addr.P]bool{}
	for _, a := range w.Seq {
		if seen[a.PA] {
			t.Errorf("duplicate PTE address %#x", uint64(a.PA))
		}
		seen[a.PA] = true
	}
}

func TestRadixWalkUnmappedStopsEarly(t *testing.T) {
	r := reserved(NewRadix(newAlloc()), addr.EntriesPerTable)
	r.Map(0, 1) // creates a path under prefix 0
	var w Walk
	// Entirely different PL4 subtree: walk reads only the root entry.
	r.WalkInto(addr.V(1)<<39, &w)
	if w.Found || len(w.Seq) != 1 {
		t.Fatalf("walk into unmapped subtree = %+v", w)
	}
	// Same PL1 node, unmapped entry: full 4 accesses, not found.
	r.WalkInto(addr.V(addr.PageSize), &w)
	if w.Found || len(w.Seq) != 4 {
		t.Fatalf("walk to unmapped sibling = found=%v seq=%d", w.Found, len(w.Seq))
	}
}

func TestRadixSiblingPagesShareNodes(t *testing.T) {
	r := reserved(NewRadix(newAlloc()), addr.EntriesPerTable)
	r.Map(0, 1)
	r.Map(1, 2)
	var w0, w1 Walk
	r.WalkInto(0, &w0)
	r.WalkInto(addr.V(addr.PageSize), &w1)
	for i := 0; i < 3; i++ {
		if w0.Seq[i].PA != w1.Seq[i].PA {
			t.Errorf("level %d: sibling pages should read the same upper PTEs", i)
		}
	}
	if w0.Seq[3].PA == w1.Seq[3].PA {
		t.Error("distinct pages must read distinct PL1 entries")
	}
	// Both PL1 PTEs are adjacent in the same node.
	if w1.Seq[3].PA-w0.Seq[3].PA != addr.PTESize {
		t.Errorf("adjacent pages: PTE delta = %d, want %d",
			w1.Seq[3].PA-w0.Seq[3].PA, addr.PTESize)
	}
}

func TestRadixMapRangeEquivalentToMapLoop(t *testing.T) {
	a, b := reserved(NewRadix(newAlloc()), 3000), reserved(NewRadix(newAlloc()), 3000)
	const start, count = addr.VPN(1000), uint64(1500) // crosses PL1 node boundaries
	a.MapRange(start, count, 5000)
	for k := uint64(0); k < count; k++ {
		b.Map(start+addr.VPN(k), 5000+addr.PFN(k))
	}
	if a.MappedPages() != b.MappedPages() {
		t.Fatalf("MappedPages: %d vs %d", a.MappedPages(), b.MappedPages())
	}
	for k := uint64(0); k < count; k++ {
		ea, oka := a.Lookup(start + addr.VPN(k))
		eb, okb := b.Lookup(start + addr.VPN(k))
		if !oka || !okb || ea != eb {
			t.Fatalf("page %d: %+v/%v vs %+v/%v", k, ea, oka, eb, okb)
		}
	}
}

func TestRadixHugeMapping(t *testing.T) {
	r := reserved(NewRadix(newAlloc()), 4*addr.EntriesPerTable)
	base := addr.VPN(addr.EntriesPerTable * 3) // 2MB-aligned
	r.MapHuge(base, 9000)
	if r.MappedPages() != addr.EntriesPerTable {
		t.Errorf("MappedPages = %d, want 512", r.MappedPages())
	}
	for _, off := range []uint64{0, 1, 511} {
		e, ok := r.Lookup(base + addr.VPN(off))
		if !ok || !e.Huge {
			t.Fatalf("huge lookup at +%d = %+v, %v", off, e, ok)
		}
		if got := e.Translate(base + addr.VPN(off)); got != 9000+addr.PFN(off) {
			t.Errorf("Translate(+%d) = %d", off, got)
		}
	}
	// Walk terminates at PL2 with 3 accesses.
	var w Walk
	r.WalkInto(base.Addr(), &w)
	if !w.Found || len(w.Seq) != 3 || !w.Entry.Huge {
		t.Fatalf("huge walk = %+v", w)
	}
	if w.Seq[2].Level != addr.PL2 {
		t.Errorf("huge leaf level = %v, want PL2", w.Seq[2].Level)
	}
}

func TestRadixHugeUnalignedPanics(t *testing.T) {
	r := reserved(NewRadix(newAlloc()), addr.EntriesPerTable)
	defer func() {
		if recover() == nil {
			t.Error("unaligned MapHuge did not panic")
		}
	}()
	r.MapHuge(3, 1)
}

func TestRadixConflictingMappingsPanic(t *testing.T) {
	r := reserved(NewRadix(newAlloc()), 2*addr.EntriesPerTable)
	r.MapHuge(addr.VPN(addr.EntriesPerTable), 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("4K map under huge mapping did not panic")
			}
		}()
		r.Map(addr.VPN(addr.EntriesPerTable+5), 2)
	}()
	r.Map(0, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("huge map over 4K table did not panic")
			}
		}()
		r.MapHuge(0, 2)
	}()
}

func TestRadixOccupancyDenseRegion(t *testing.T) {
	r := reserved(NewRadix(newAlloc()), 2*addr.EntriesPerTable)
	// Map 4 MB densely: 1024 pages = 2 full PL1 nodes.
	r.MapRange(0, 2*addr.EntriesPerTable, 0)
	occ := map[addr.Level]LevelOccupancy{}
	for _, o := range r.Occupancy() {
		occ[o.Level] = o
	}
	if got := occ[addr.PL1]; got.Nodes != 2 || got.Rate() != 1.0 {
		t.Errorf("PL1 occupancy = %+v", got)
	}
	if got := occ[addr.PL2]; got.Nodes != 1 || got.EntriesUsed != 2 {
		t.Errorf("PL2 occupancy = %+v", got)
	}
	if got := occ[addr.PL4]; got.Nodes != 1 || got.EntriesUsed != 1 {
		t.Errorf("PL4 occupancy = %+v", got)
	}
	// The paper's Fig 8 shape: dense data makes PL1 full while PL3/PL4
	// stay nearly empty.
	if occ[addr.PL1].Rate() <= occ[addr.PL3].Rate() {
		t.Error("PL1 occupancy should exceed PL3 occupancy for dense data")
	}
}

func TestRadixNodesBackedByDistinctFrames(t *testing.T) {
	alloc := newAlloc()
	before := alloc.FreeFrames()
	r := reserved(NewRadix(alloc), 3*addr.EntriesPerTable)
	r.MapRange(0, 3*addr.EntriesPerTable, 0) // 3 PL1 nodes + PL2+PL3+PL4
	used := before - alloc.FreeFrames()
	// root + PL3 + PL2 + 3 PL1 = 6 frames.
	if used != 6 {
		t.Errorf("table consumed %d frames, want 6", used)
	}
}

// TestRadixMetadataBounds bounds resident metadata per mapped page at
// the pr workload's default footprint (5738 chunks, 11.2 GiB), populated
// the way the OS model does it: every chunk is one extent in the frame
// store, so a PL1 node costs its header and one store record.
func TestRadixMetadataBounds(t *testing.T) {
	r := NewRadix(phys.New(1 << 30))
	populateHeap(r, 5738)
	if got := float64(r.MetadataBytes()) / float64(r.MappedPages()); got > 0.36 {
		t.Errorf("dense heap: %.3f B/page, want <= 0.36", got)
	}
}
