package pagetable

// This file keeps the pre-bitmap flattened-table layout — eager
// per-node []bool present and pfns arrays — as a test-only reference
// implementation. The production table (flattened.go) stores the same
// function in bit-packed, lazily materialized per-chunk metadata; the
// differential tests below drive both through randomized operation
// sequences and require them to agree entry for entry, walk for walk,
// and in the Occupancy()/MappedPages() counts.

import (
	"testing"

	"ndpage/internal/addr"
	"ndpage/internal/phys"
	"ndpage/internal/xrand"
)

// refFlatNode is the old flat-node layout: everything materialized at
// node creation.
type refFlatNode struct {
	huge    bool
	base    addr.P
	chunks  []addr.P
	chunkOK []bool

	pfns    []addr.PFN
	present []bool
	used    int
}

// refFlattened is the old Flattened implementation, kept verbatim in
// behavior (including physical-frame allocation order, so walk PTE
// addresses are comparable against the production table when both run
// over identically seeded allocators).
type refFlattened struct {
	alloc *phys.Allocator
	root  *radixNode
	flats []*refFlatNode

	nodes      levelCounts
	used       levelCounts
	mapped     uint64
	hugeBacked uint64
	chunkFalls uint64
}

func newRefFlattened(alloc *phys.Allocator) *refFlattened {
	f := &refFlattened{alloc: alloc}
	f.root = f.newUpperNode(addr.PL4)
	return f
}

func (f *refFlattened) newUpperNode(level addr.Level) *radixNode {
	pfn, ok := f.alloc.AllocFrame()
	if !ok {
		panic("ref: out of physical memory for an upper node")
	}
	n := &radixNode{basePA: pfn.Addr(), level: level, children: make([]*radixNode, addr.EntriesPerTable)}
	f.nodes[level]++
	return n
}

func (f *refFlattened) newFlatNode() *refFlatNode {
	n := &refFlatNode{
		pfns:    make([]addr.PFN, addr.FlatEntries),
		present: make([]bool, addr.FlatEntries),
	}
	if base, ok := f.alloc.AllocHuge(); ok {
		n.huge = true
		n.base = base.Addr()
		f.hugeBacked++
	} else {
		n.chunks = make([]addr.P, addr.EntriesPerTable)
		n.chunkOK = make([]bool, addr.EntriesPerTable)
		f.chunkFalls++
	}
	f.nodes[addr.L2L1]++
	return n
}

func (n *refFlatNode) pteAddr(alloc *phys.Allocator, idx uint64) addr.P {
	if n.huge {
		return n.base + addr.P(idx*addr.PTESize)
	}
	c := idx >> addr.LevelBits
	if !n.chunkOK[c] {
		pfn, ok := alloc.AllocFrame()
		if !ok {
			panic("ref: out of physical memory for a chunk")
		}
		n.chunks[c] = pfn.Addr()
		n.chunkOK[c] = true
	}
	return n.chunks[c] + addr.P((idx&(addr.EntriesPerTable-1))*addr.PTESize)
}

func (f *refFlattened) flatAt(slot uint64) *refFlatNode {
	if slot >= uint64(len(f.flats)) {
		return nil
	}
	return f.flats[slot]
}

func (f *refFlattened) flatFor(v addr.V, create bool) *refFlatNode {
	i4 := addr.Index(v, addr.PL4)
	n3 := f.root.children[i4]
	if n3 == nil {
		if !create {
			return nil
		}
		n3 = f.newUpperNode(addr.PL3)
		f.root.children[i4] = n3
		f.root.used++
		f.used[addr.PL4]++
	}
	slot := pl3Slot(v)
	fn := f.flatAt(slot)
	if fn == nil {
		if !create {
			return nil
		}
		fn = f.newFlatNode()
		for uint64(len(f.flats)) <= slot {
			f.flats = append(f.flats, nil)
		}
		f.flats[slot] = fn
		n3.used++
		f.used[addr.PL3]++
	}
	return fn
}

func (f *refFlattened) Map(vpn addr.VPN, pfn addr.PFN) {
	v := vpn.Addr()
	fn := f.flatFor(v, true)
	idx := addr.FlatIndex(v)
	if !fn.present[idx] {
		fn.present[idx] = true
		fn.used++
		f.used[addr.L2L1]++
		f.mapped++
	}
	fn.pfns[idx] = pfn
}

func (f *refFlattened) MapRange(vpn addr.VPN, count uint64, base addr.PFN) {
	for count > 0 {
		v := vpn.Addr()
		fn := f.flatFor(v, true)
		idx := addr.FlatIndex(v)
		n := uint64(addr.FlatEntries) - idx
		if n > count {
			n = count
		}
		for k := uint64(0); k < n; k++ {
			if !fn.present[idx+k] {
				fn.present[idx+k] = true
				fn.used++
				f.used[addr.L2L1]++
				f.mapped++
			}
			fn.pfns[idx+k] = base + addr.PFN(k)
		}
		vpn += addr.VPN(n)
		base += addr.PFN(n)
		count -= n
	}
}

func (f *refFlattened) MapHuge(vpn addr.VPN, base addr.PFN) {
	f.MapRange(vpn, addr.EntriesPerTable, base)
}

func (f *refFlattened) Lookup(vpn addr.VPN) (Entry, bool) {
	v := vpn.Addr()
	fn := f.flatFor(v, false)
	if fn == nil {
		return Entry{}, false
	}
	idx := addr.FlatIndex(v)
	if !fn.present[idx] {
		return Entry{}, false
	}
	return Entry{PFN: fn.pfns[idx]}, true
}

func (f *refFlattened) Unmap(vpn addr.VPN) (Entry, bool) {
	v := vpn.Addr()
	fn := f.flatFor(v, false)
	if fn == nil {
		return Entry{}, false
	}
	idx := addr.FlatIndex(v)
	if !fn.present[idx] {
		return Entry{}, false
	}
	fn.present[idx] = false
	fn.used--
	f.used[addr.L2L1]--
	f.mapped--
	return Entry{PFN: fn.pfns[idx]}, true
}

func (f *refFlattened) WalkInto(v addr.V, w *Walk) {
	w.Reset()
	i4 := addr.Index(v, addr.PL4)
	w.Seq = append(w.Seq, Access{addr.PL4, pteAddr(f.root.basePA, i4)})
	n3 := f.root.children[i4]
	if n3 == nil {
		return
	}
	w.Seq = append(w.Seq, Access{addr.PL3, pteAddr(n3.basePA, addr.Index(v, addr.PL3))})
	fn := f.flatAt(pl3Slot(v))
	if fn == nil {
		return
	}
	idx := addr.FlatIndex(v)
	w.Seq = append(w.Seq, Access{addr.L2L1, fn.pteAddr(f.alloc, idx)})
	if !fn.present[idx] {
		return
	}
	w.Found = true
	w.Entry = Entry{PFN: fn.pfns[idx]}
}

func (f *refFlattened) Occupancy() []LevelOccupancy {
	return []LevelOccupancy{
		{Level: addr.PL4, Nodes: f.nodes[addr.PL4], EntriesUsed: f.used[addr.PL4],
			Capacity: f.nodes[addr.PL4] * addr.EntriesPerTable},
		{Level: addr.PL3, Nodes: f.nodes[addr.PL3], EntriesUsed: f.used[addr.PL3],
			Capacity: f.nodes[addr.PL3] * addr.EntriesPerTable},
		{Level: addr.L2L1, Nodes: f.nodes[addr.L2L1], EntriesUsed: f.used[addr.L2L1],
			Capacity: f.nodes[addr.L2L1] * addr.FlatEntries},
	}
}

func (f *refFlattened) MappedPages() uint64 { return f.mapped }

// differentialVPN draws a VPN biased toward locality: most draws land in
// a handful of dense 2 MB spans, the rest scatter across a 4 GB heap so
// multiple flattened nodes (and sparse chunks) appear.
func differentialVPN(rng *xrand.RNG) addr.VPN {
	if rng.Uint64n(4) != 0 {
		span := rng.Uint64n(8) << addr.LevelBits // one of 8 chunk bases
		return addr.VPN(span + rng.Uint64n(addr.EntriesPerTable))
	}
	return addr.VPN(rng.Uint64n(1 << 20)) // anywhere in 4 GB
}

// runFlattenedDifferential drives the production table and the []bool
// reference through one randomized sequence over identically seeded
// allocators and requires exact agreement.
func runFlattenedDifferential(t *testing.T, seed uint64, fragment bool) {
	t.Helper()
	mkAlloc := func() *phys.Allocator {
		a := phys.New(1 << 30)
		if fragment {
			// Identical fragmentation on both allocators: chunk-backed
			// nodes exercise the lazy PTE-frame path.
			a.InjectFragmentation(xrand.New(7), 8192, 1)
			for {
				if _, ok := a.AllocHuge(); !ok {
					break
				}
			}
		}
		return a
	}
	got := NewFlattened(mkAlloc())
	want := newRefFlattened(mkAlloc())
	rng := xrand.New(seed)

	var wg, ww Walk
	for op := 0; op < 20000; op++ {
		vpn := differentialVPN(rng)
		switch rng.Uint64n(10) {
		case 0, 1, 2:
			pfn := addr.PFN(rng.Uint64n(1 << 22))
			got.Map(vpn, pfn)
			want.Map(vpn, pfn)
		case 3:
			count := rng.Uint64n(2048) + 1
			base := addr.PFN(rng.Uint64n(1 << 22))
			got.MapRange(vpn, count, base)
			want.MapRange(vpn, count, base)
		case 4:
			huge := vpn &^ addr.VPN(addr.EntriesPerTable-1)
			base := addr.PFN(rng.Uint64n(1 << 22))
			got.MapHuge(huge, base)
			want.MapHuge(huge, base)
		case 5:
			eg, okg := got.Unmap(vpn)
			ew, okw := want.Unmap(vpn)
			if okg != okw || eg != ew {
				t.Fatalf("op %d: Unmap(%#x) = %+v,%v want %+v,%v", op, uint64(vpn), eg, okg, ew, okw)
			}
		case 6, 7:
			eg, okg := got.Lookup(vpn)
			ew, okw := want.Lookup(vpn)
			if okg != okw || eg != ew {
				t.Fatalf("op %d: Lookup(%#x) = %+v,%v want %+v,%v", op, uint64(vpn), eg, okg, ew, okw)
			}
			if got.Present(vpn) != okw {
				t.Fatalf("op %d: Present(%#x) = %v, Lookup says %v", op, uint64(vpn), !okw, okw)
			}
		default:
			v := vpn.Addr() + addr.V(rng.Uint64n(addr.PageSize))
			got.WalkInto(v, &wg)
			want.WalkInto(v, &ww)
			if wg.Found != ww.Found || wg.Entry != ww.Entry || len(wg.Seq) != len(ww.Seq) {
				t.Fatalf("op %d: WalkInto(%#x) = %+v want %+v", op, uint64(v), wg, ww)
			}
			for i := range wg.Seq {
				if wg.Seq[i] != ww.Seq[i] {
					t.Fatalf("op %d: walk access %d = %+v want %+v", op, i, wg.Seq[i], ww.Seq[i])
				}
			}
		}
	}

	if g, w := got.MappedPages(), want.MappedPages(); g != w {
		t.Fatalf("MappedPages = %d, want %d", g, w)
	}
	og, ow := got.Occupancy(), want.Occupancy()
	if len(og) != len(ow) {
		t.Fatalf("Occupancy rows = %d, want %d", len(og), len(ow))
	}
	for i := range og {
		if og[i] != ow[i] {
			t.Fatalf("Occupancy[%d] = %+v, want %+v", i, og[i], ow[i])
		}
	}
	// Exhaustive sweep of the touched span: every entry agrees.
	for vpn := addr.VPN(0); vpn < 1<<20; vpn += 17 {
		eg, okg := got.Lookup(vpn)
		ew, okw := want.Lookup(vpn)
		if okg != okw || eg != ew {
			t.Fatalf("final sweep: Lookup(%#x) = %+v,%v want %+v,%v", uint64(vpn), eg, okg, ew, okw)
		}
	}
}

func TestFlattenedDifferentialHugeBacked(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		runFlattenedDifferential(t, seed, false)
	}
}

func TestFlattenedDifferentialChunkBacked(t *testing.T) {
	for seed := uint64(5); seed <= 8; seed++ {
		runFlattenedDifferential(t, seed, true)
	}
}

// TestRadixDifferentialAgainstReference drives Radix and the reference
// flattened layout through the same 4 KB-mapping sequence: two different
// organizations of one function must agree on every translation and on
// the mapped-page count (occupancy shapes differ by design).
func TestRadixDifferentialAgainstReference(t *testing.T) {
	r := NewRadix(phys.New(1 << 30))
	want := newRefFlattened(phys.New(1 << 30))
	rng := xrand.New(11)
	for op := 0; op < 20000; op++ {
		vpn := differentialVPN(rng)
		switch rng.Uint64n(8) {
		case 0, 1, 2:
			pfn := addr.PFN(rng.Uint64n(1 << 22))
			r.Map(vpn, pfn)
			want.Map(vpn, pfn)
		case 3:
			count := rng.Uint64n(2048) + 1
			base := addr.PFN(rng.Uint64n(1 << 22))
			r.MapRange(vpn, count, base)
			want.MapRange(vpn, count, base)
		case 4:
			eg, okg := r.Unmap(vpn)
			ew, okw := want.Unmap(vpn)
			if okg != okw || eg != ew {
				t.Fatalf("op %d: Unmap(%#x) = %+v,%v want %+v,%v", op, uint64(vpn), eg, okg, ew, okw)
			}
		default:
			eg, okg := r.Lookup(vpn)
			ew, okw := want.Lookup(vpn)
			if okg != okw || eg != ew {
				t.Fatalf("op %d: Lookup(%#x) = %+v,%v want %+v,%v", op, uint64(vpn), eg, okg, ew, okw)
			}
			if r.Present(vpn) != okw {
				t.Fatalf("op %d: Present(%#x) disagrees with Lookup", op, uint64(vpn))
			}
		}
	}
	if g, w := r.MappedPages(), want.MappedPages(); g != w {
		t.Fatalf("MappedPages = %d, want %d", g, w)
	}
}

// TestCuckooDifferentialAgainstReference does the same for the elastic
// cuckoo table (no huge mappings there).
func TestCuckooDifferentialAgainstReference(t *testing.T) {
	c := NewCuckoo(phys.New(1<<30), 4096)
	want := newRefFlattened(phys.New(1 << 30))
	rng := xrand.New(13)
	for op := 0; op < 20000; op++ {
		vpn := differentialVPN(rng)
		switch rng.Uint64n(8) {
		case 0, 1, 2:
			pfn := addr.PFN(rng.Uint64n(1 << 22))
			c.Map(vpn, pfn)
			want.Map(vpn, pfn)
		case 3:
			count := rng.Uint64n(512) + 1
			base := addr.PFN(rng.Uint64n(1 << 22))
			c.MapRange(vpn, count, base)
			want.MapRange(vpn, count, base)
		case 4:
			eg, okg := c.Unmap(vpn)
			ew, okw := want.Unmap(vpn)
			if okg != okw || eg != ew {
				t.Fatalf("op %d: Unmap(%#x) = %+v,%v want %+v,%v", op, uint64(vpn), eg, okg, ew, okw)
			}
		default:
			eg, okg := c.Lookup(vpn)
			ew, okw := want.Lookup(vpn)
			if okg != okw || eg != ew {
				t.Fatalf("op %d: Lookup(%#x) = %+v,%v want %+v,%v", op, uint64(vpn), eg, okg, ew, okw)
			}
			if c.Present(vpn) != okw {
				t.Fatalf("op %d: Present(%#x) disagrees with Lookup", op, uint64(vpn))
			}
		}
		checkCuckooStore(t, c, vpn, op%1024 == 0)
	}
	checkCuckooStore(t, c, 0, true)
	if g, w := c.MappedPages(), want.MappedPages(); g != w {
		t.Fatalf("MappedPages = %d, want %d", g, w)
	}
}
