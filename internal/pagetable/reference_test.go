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

	nodes  levelCounts
	used   levelCounts
	mapped uint64
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
	} else {
		n.chunks = make([]addr.P, addr.EntriesPerTable)
		n.chunkOK = make([]bool, addr.EntriesPerTable)
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

func (f *refFlattened) Present(vpn addr.VPN) bool {
	_, ok := f.Lookup(vpn)
	return ok
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

// differentialSpan is the span the differential tests reserve: every
// differentialVPN plus the longest MapRange run past it.
const differentialSpan = 1<<20 + 2048

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
	got := reserved(NewFlattened(mkAlloc()), differentialSpan)
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
	r := reserved(NewRadix(phys.New(1<<30)), differentialSpan)
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
// cuckoo table (no huge mappings there), and also holds it to refCuckoo
// slot for slot: a walk's probes and the occupancy after every fourth
// op. Lookup and Present leave MapRange's pages queued, so between two
// of those checks several MapRanges can queue runs that one bulk build
// places.
func TestCuckooDifferentialAgainstReference(t *testing.T) {
	c := reserved(NewCuckoo(phys.New(1<<30), 4096), differentialSpan)
	want := newRefFlattened(phys.New(1 << 30))
	p := fuzzPair{"cuckoo", new(Walk), new(Walk), c, newRefCuckoo(phys.New(1<<30), 4096)}
	rng := xrand.New(13)
	for op := 0; op < 20000; op++ {
		vpn := differentialVPN(rng)
		switch rng.Uint64n(8) {
		case 0, 1, 2:
			pfn := addr.PFN(rng.Uint64n(1 << 22))
			c.Map(vpn, pfn)
			want.Map(vpn, pfn)
			p.want.Map(vpn, pfn)
		case 3:
			count := rng.Uint64n(512) + 1
			base := addr.PFN(rng.Uint64n(1 << 22))
			c.MapRange(vpn, count, base)
			want.MapRange(vpn, count, base)
			p.want.MapRange(vpn, count, base)
		case 4:
			eg, okg := c.Unmap(vpn)
			ew, okw := want.Unmap(vpn)
			if okg != okw || eg != ew {
				t.Fatalf("op %d: Unmap(%#x) = %+v,%v want %+v,%v", op, uint64(vpn), eg, okg, ew, okw)
			}
			p.want.Unmap(vpn)
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
		if op%4 == 3 {
			p.check(t, op, vpn)
			p.checkCounts(t, op)
			checkCuckooStore(t, c, vpn, op%1024 == 1023)
		}
	}
	checkCuckooStore(t, c, 0, true)
	if g, w := c.MappedPages(), want.MappedPages(); g != w {
		t.Fatalf("MappedPages = %d, want %d", g, w)
	}
}

// refRadixNode is the radix node layout from before the frame store:
// leaves hold their own present flags and frames, PL2 nodes their 2 MB
// leaf entries.
type refRadixNode struct {
	basePA   addr.P
	level    addr.Level
	children []*refRadixNode
	present  []bool
	pfns     []addr.PFN
	huge     []bool
	hugePFN  []addr.PFN
}

// refRadix is the Radix implementation from before the frame store,
// kept in behavior (node allocation order included) as the reference
// the frame-store Radix must match access for access.
type refRadix struct {
	alloc  *phys.Allocator
	root   *refRadixNode
	nodes  levelCounts
	used   levelCounts
	mapped uint64
}

func newRefRadix(alloc *phys.Allocator) *refRadix {
	r := &refRadix{alloc: alloc}
	r.root = r.newNode(addr.PL4)
	return r
}

func (r *refRadix) newNode(level addr.Level) *refRadixNode {
	pfn, ok := r.alloc.AllocFrame()
	if !ok {
		panic("ref: out of physical memory for a radix node")
	}
	n := &refRadixNode{basePA: pfn.Addr(), level: level}
	if level == addr.PL1 {
		n.present = make([]bool, addr.EntriesPerTable)
		n.pfns = make([]addr.PFN, addr.EntriesPerTable)
	} else {
		n.children = make([]*refRadixNode, addr.EntriesPerTable)
		n.huge = make([]bool, addr.EntriesPerTable)
		n.hugePFN = make([]addr.PFN, addr.EntriesPerTable)
	}
	r.nodes[level]++
	return n
}

// child returns the child of n at idx, creating it when create is set.
func (r *refRadix) child(n *refRadixNode, idx uint64, create bool) *refRadixNode {
	if c := n.children[idx]; c != nil || !create {
		return c
	}
	c := r.newNode(n.level - 1)
	n.children[idx] = c
	r.used[n.level]++
	return c
}

// pl2For returns the PL2 node covering vpn (nil when absent and not
// created).
func (r *refRadix) pl2For(vpn addr.VPN, create bool) *refRadixNode {
	n := r.child(r.root, addr.Index(vpn.Addr(), addr.PL4), create)
	if n == nil {
		return nil
	}
	return r.child(n, addr.Index(vpn.Addr(), addr.PL3), create)
}

// hugeAt and leafAt report what a Radix would panic on: a 4 KB map
// under a 2 MB leaf, or a 2 MB map over an existing PL1 node.
func (r *refRadix) hugeAt(vpn addr.VPN) bool {
	n := r.pl2For(vpn, false)
	return n != nil && n.huge[addr.Index(vpn.Addr(), addr.PL2)]
}

func (r *refRadix) leafAt(vpn addr.VPN) bool {
	n := r.pl2For(vpn, false)
	return n != nil && n.children[addr.Index(vpn.Addr(), addr.PL2)] != nil
}

func (r *refRadix) Map(vpn addr.VPN, pfn addr.PFN) {
	leaf := r.child(r.pl2For(vpn, true), addr.Index(vpn.Addr(), addr.PL2), true)
	i1 := addr.Index(vpn.Addr(), addr.PL1)
	if !leaf.present[i1] {
		leaf.present[i1] = true
		r.used[addr.PL1]++
		r.mapped++
	}
	leaf.pfns[i1] = pfn
}

func (r *refRadix) MapRange(vpn addr.VPN, count uint64, base addr.PFN) {
	for k := uint64(0); k < count; k++ {
		r.Map(vpn+addr.VPN(k), base+addr.PFN(k))
	}
}

func (r *refRadix) MapHuge(vpn addr.VPN, base addr.PFN) {
	n := r.pl2For(vpn, true)
	i2 := addr.Index(vpn.Addr(), addr.PL2)
	if !n.huge[i2] {
		n.huge[i2] = true
		r.used[addr.PL2]++
		r.mapped += addr.EntriesPerTable
	}
	n.hugePFN[i2] = base
}

func (r *refRadix) Lookup(vpn addr.VPN) (Entry, bool) {
	n := r.pl2For(vpn, false)
	if n == nil {
		return Entry{}, false
	}
	i2 := addr.Index(vpn.Addr(), addr.PL2)
	if n.huge[i2] {
		return Entry{PFN: n.hugePFN[i2], Huge: true}, true
	}
	leaf := n.children[i2]
	i1 := addr.Index(vpn.Addr(), addr.PL1)
	if leaf == nil || !leaf.present[i1] {
		return Entry{}, false
	}
	return Entry{PFN: leaf.pfns[i1]}, true
}

func (r *refRadix) Present(vpn addr.VPN) bool {
	_, ok := r.Lookup(vpn)
	return ok
}

func (r *refRadix) Unmap(vpn addr.VPN) (Entry, bool) {
	e, ok := r.Lookup(vpn)
	if !ok {
		return e, false
	}
	n := r.pl2For(vpn, false)
	if i2 := addr.Index(vpn.Addr(), addr.PL2); e.Huge {
		n.huge[i2] = false
		r.used[addr.PL2]--
		r.mapped -= addr.EntriesPerTable
	} else {
		n.children[i2].present[addr.Index(vpn.Addr(), addr.PL1)] = false
		r.used[addr.PL1]--
		r.mapped--
	}
	return e, true
}

func (r *refRadix) WalkInto(v addr.V, w *Walk) {
	w.Reset()
	n := r.root
	for _, l := range []addr.Level{addr.PL4, addr.PL3, addr.PL2, addr.PL1} {
		i := addr.Index(v, l)
		w.Seq = append(w.Seq, Access{l, pteAddr(n.basePA, i)})
		if l == addr.PL1 {
			if n.present[i] {
				w.Found, w.Entry = true, Entry{PFN: n.pfns[i]}
			}
			return
		}
		if n.huge[i] {
			w.Found, w.Entry = true, Entry{PFN: n.hugePFN[i], Huge: true}
			return
		}
		if n = n.children[i]; n == nil {
			return
		}
	}
}

func (r *refRadix) Occupancy() []LevelOccupancy {
	var out []LevelOccupancy
	for _, l := range []addr.Level{addr.PL4, addr.PL3, addr.PL2, addr.PL1} {
		out = append(out, LevelOccupancy{Level: l, Nodes: r.nodes[l], EntriesUsed: r.used[l],
			Capacity: r.nodes[l] * addr.EntriesPerTable})
	}
	return out
}

func (r *refRadix) MappedPages() uint64 { return r.mapped }

// refSlot is one slot of the original ECH layout: the whole {vpn, pfn}
// translation lives in the slot.
type refSlot struct {
	vpn  addr.VPN
	pfn  addr.PFN
	full bool
}

type refCuckooTab struct {
	slots  []refSlot
	frames []addr.P
}

type refCuckooWay struct {
	refCuckooTab
	salt     uint64
	count    int
	resizing bool
	newTab   refCuckooTab
	migPtr   int
}

// refCuckoo is the elastic cuckoo table in its original layout — frames
// in the slots, every lookup probing the d ways — kept in behavior
// (placement, resize and migration points, frame allocation order) as
// the reference the tag-only table over the frame store must match.
// MapRange queues its new pages and placeQueued builds them in bulk,
// at the same calls as Cuckoo, one page at a time per pass.
type refCuckoo struct {
	alloc *phys.Allocator
	ways  [len(cuckooSalts)]refCuckooWay
	count uint64
	// queue holds the pages MapRange mapped that have no slot yet, in
	// mapping order; queued indexes it by VPN.
	queue  []refSlot
	queued map[addr.VPN]int
}

func newRefCuckoo(alloc *phys.Allocator, initialSlots int) *refCuckoo {
	size := slotsPerFrame
	for size < initialSlots {
		size *= 2
	}
	c := &refCuckoo{alloc: alloc, queued: map[addr.VPN]int{}}
	for i, salt := range cuckooSalts {
		c.ways[i] = refCuckooWay{refCuckooTab: c.newTab(size), salt: salt}
	}
	return c
}

func (c *refCuckoo) newTab(size int) refCuckooTab {
	t := refCuckooTab{slots: make([]refSlot, size), frames: make([]addr.P, (size+slotsPerFrame-1)/slotsPerFrame)}
	for i := range t.frames {
		pfn, ok := c.alloc.AllocFrame()
		if !ok {
			panic("ref: out of physical memory for a cuckoo way")
		}
		t.frames[i] = pfn.Addr()
	}
	return t
}

// probe returns the slot a lookup for vpn reads in the way.
func (way *refCuckooWay) probe(vpn addr.VPN) (*refCuckooTab, int) {
	h := int(xrand.Hash64(uint64(vpn) ^ way.salt))
	if i := h & (len(way.slots) - 1); !way.resizing || i >= way.migPtr {
		return &way.refCuckooTab, i
	}
	return &way.newTab, h & (len(way.newTab.slots) - 1)
}

// find returns the slot or queue entry holding vpn, nil when none does.
func (c *refCuckoo) find(vpn addr.VPN) *refSlot {
	if k, ok := c.queued[vpn]; ok {
		return &c.queue[k]
	}
	for i := range c.ways {
		tab, idx := c.ways[i].probe(vpn)
		if s := &tab.slots[idx]; s.full && s.vpn == vpn {
			return s
		}
	}
	return nil
}

func (c *refCuckoo) Lookup(vpn addr.VPN) (Entry, bool) {
	if s := c.find(vpn); s != nil {
		return Entry{PFN: s.pfn}, true
	}
	return Entry{}, false
}

func (c *refCuckoo) Present(vpn addr.VPN) bool { return c.find(vpn) != nil }

func (c *refCuckoo) Map(vpn addr.VPN, pfn addr.PFN) {
	c.placeQueued()
	if s := c.find(vpn); s != nil {
		s.pfn = pfn
		return
	}
	c.advanceMigrations()
	c.insertOne(refSlot{vpn, pfn, true})
}

// insertOne inserts e by displacement and starts the resize of any way
// past its threshold.
func (c *refCuckoo) insertOne(e refSlot) {
	c.insert(e, 0)
	c.count++
	c.resizeFull()
}

func (c *refCuckoo) resizeFull() {
	for i := range c.ways {
		way := &c.ways[i]
		if !way.resizing && float64(way.count) > cuckooThreshold*float64(len(way.slots)) {
			c.beginResize(way)
		}
	}
}

// placeQueued builds the queued pages into the table: every way
// completes its migration and grows to the smallest power of two whose
// threshold holds a third of all pages; then each queued page, in
// queue order, takes its slot in its first-choice way (vpn mod d) if
// free, then in the next way, then the one after, each way taking all
// of one choice's pages before the next way does; the rest are
// inserted one at a time.
func (c *refCuckoo) placeQueued() {
	if len(c.queue) == 0 {
		return
	}
	total := c.count + uint64(len(c.queue))
	size := slotsPerFrame
	for cuckooThreshold*float64(size) < float64((total+2)/3) {
		size *= 2
	}
	for i := range c.ways {
		way := &c.ways[i]
		for way.resizing {
			c.migrate(way, len(way.slots))
		}
		if len(way.slots) >= size {
			continue
		}
		tab := c.newTab(size)
		for _, s := range way.slots {
			if s.full {
				tab.slots[int(xrand.Hash64(uint64(s.vpn)^way.salt))&(size-1)] = s
			}
		}
		for _, f := range way.frames {
			c.alloc.Free(f.Page())
		}
		way.refCuckooTab = tab
	}
	d := len(c.ways)
	placed := make([]bool, len(c.queue))
	for choice := 0; choice < d; choice++ {
		for w := range c.ways {
			way := &c.ways[w]
			for k, e := range c.queue {
				if placed[k] || int(uint64(e.vpn)%uint64(d)) != (w+d-choice)%d {
					continue
				}
				if tab, idx := way.probe(e.vpn); !tab.slots[idx].full {
					tab.slots[idx] = e
					way.count++
					c.count++
					placed[k] = true
				}
			}
		}
	}
	c.resizeFull()
	for k, e := range c.queue {
		if !placed[k] {
			c.advanceMigrations()
			c.insertOne(e)
		}
	}
	c.queue = nil
	clear(c.queued)
}

func (c *refCuckoo) insert(e refSlot, attempts int) {
	if attempts > 8 {
		panic("ref: cuckoo insertion failed")
	}
	w := int(uint64(e.vpn) % uint64(len(c.ways)))
	for kick := 0; kick < 32; kick++ {
		way := &c.ways[w]
		tab, idx := way.probe(e.vpn)
		if !tab.slots[idx].full {
			tab.slots[idx] = e
			way.count++
			return
		}
		tab.slots[idx], e = e, tab.slots[idx]
		w = (w + 1) % len(c.ways)
	}
	c.forceResize()
	c.advanceMigrations()
	c.insert(e, attempts+1)
}

func (c *refCuckoo) MapRange(vpn addr.VPN, count uint64, base addr.PFN) {
	for k := uint64(0); k < count; k++ {
		v, pfn := vpn+addr.VPN(k), base+addr.PFN(k)
		if s := c.find(v); s != nil {
			s.pfn = pfn
			continue
		}
		c.queued[v] = len(c.queue)
		c.queue = append(c.queue, refSlot{v, pfn, true})
	}
}

func (c *refCuckoo) Unmap(vpn addr.VPN) (Entry, bool) {
	c.placeQueued()
	for i := range c.ways {
		way := &c.ways[i]
		tab, idx := way.probe(vpn)
		if s := &tab.slots[idx]; s.full && s.vpn == vpn {
			s.full = false
			way.count--
			c.count--
			return Entry{PFN: s.pfn}, true
		}
	}
	return Entry{}, false
}

func (c *refCuckoo) forceResize() {
	var target *refCuckooWay
	best := -1.0
	for i := range c.ways {
		way := &c.ways[i]
		if lf := float64(way.count) / float64(len(way.slots)); !way.resizing && lf > best {
			best, target = lf, way
		}
	}
	if target != nil {
		c.beginResize(target)
		return
	}
	for i := range c.ways {
		for c.ways[i].resizing {
			c.migrate(&c.ways[i], len(c.ways[i].slots))
		}
	}
}

func (c *refCuckoo) beginResize(way *refCuckooWay) {
	way.resizing = true
	way.newTab = c.newTab(2 * len(way.slots))
	way.migPtr = 0
}

func (c *refCuckoo) advanceMigrations() {
	for i := range c.ways {
		if c.ways[i].resizing {
			c.migrate(&c.ways[i], cuckooMigrateStep)
		}
	}
}

func (c *refCuckoo) migrate(way *refCuckooWay, n int) {
	for i := 0; i < n && way.migPtr < len(way.slots); i++ {
		s := way.slots[way.migPtr]
		way.migPtr++
		if s.full {
			h := int(xrand.Hash64(uint64(s.vpn)^way.salt)) & (len(way.newTab.slots) - 1)
			way.newTab.slots[h] = s
		}
	}
	if way.migPtr >= len(way.slots) {
		for _, f := range way.frames {
			c.alloc.Free(f.Page())
		}
		way.refCuckooTab = way.newTab
		way.newTab = refCuckooTab{}
		way.resizing = false
	}
}

func (c *refCuckoo) WalkInto(v addr.V, w *Walk) {
	c.placeQueued()
	w.Reset()
	vpn := v.Page()
	for i := range c.ways {
		tab, idx := c.ways[i].probe(vpn)
		pa := tab.frames[idx/slotsPerFrame] + addr.P((idx%slotsPerFrame)*slotBytes)
		w.Par = append(w.Par, Access{HashLevel, pa})
		if s := tab.slots[idx]; s.full && s.vpn == vpn {
			w.Found, w.FoundIdx, w.Entry = true, i, Entry{PFN: s.pfn}
		}
	}
}

func (c *refCuckoo) Occupancy() []LevelOccupancy {
	c.placeQueued()
	var capacity uint64
	for i := range c.ways {
		capacity += uint64(len(c.ways[i].slots) + len(c.ways[i].newTab.slots))
	}
	return []LevelOccupancy{{Level: HashLevel, Nodes: uint64(len(c.ways)), EntriesUsed: c.count, Capacity: capacity}}
}

func (c *refCuckoo) MappedPages() uint64 {
	c.placeQueued()
	return c.count
}
