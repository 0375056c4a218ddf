package pagetable

import (
	"fmt"
	"slices"
	"unsafe"

	"ndpage/internal/addr"
	"ndpage/internal/bitset"
	"ndpage/internal/phys"
)

// flatChunks is the number of 512-entry runs in one flattened node
// (2^18 entries / 512).
const flatChunks = addr.FlatEntries / addr.EntriesPerTable

// flatNode is one flattened L2/L1 node: 2^18 entries covering 1 GB of
// virtual space, replacing one PL2 node and its 512 PL1 children (paper
// Section V-B, Figure 9).
//
// Physically the paper allocates the node as a single 2 MB page. The
// simulator first tries exactly that (one huge block from the allocator);
// if contiguity is unavailable it backs the node with per-chunk 4 KB
// frames. Either way the *walk* cost is identical — one directly indexed
// PTE access — because flattening removes the dependent pointer chase,
// not the physical placement.
//
// Which entries exist, and their frames, live in the table's frame
// store; the node holds only its physical *backing* (chunks/chunkOK) —
// a chunk-backed node lazily allocates PTE frames the first time a walk
// touches a 512-entry run, whether or not any entry there is mapped.
type flatNode struct {
	// contiguous 2 MB backing (preferred); base is valid when huge.
	huge bool
	base addr.P
	// chunked backing: one frame per 512-entry chunk, allocated lazily;
	// chunkOK is a flatChunks-bit bitmap of which frames exist.
	chunks  []addr.P
	chunkOK []uint64
}

// Flattened is NDPage's page table: PL4 -> PL3 -> flattened L2/L1 leaf.
// The PL4 and PL3 levels are the radix directory Radix uses.
type Flattened struct {
	radixDir
	// flats holds the flattened nodes indexed densely by the PL3 child
	// slot (the 18-bit PL4+PL3 prefix), grown on demand. The simulator's
	// address spaces bump-allocate from a fixed base, so occupied slots
	// are a short dense run and the slice stays small, and WalkInto
	// indexes it with no map-bucket probe.
	flats []*flatNode
}

// NewFlattened builds an empty NDPage table backed by alloc.
func NewFlattened(alloc *phys.Allocator) *Flattened {
	return &Flattened{radixDir: newRadixDir(alloc)}
}

// flatAt returns the flattened node at slot, nil when absent.
func (f *Flattened) flatAt(slot uint64) *flatNode {
	if slot >= uint64(len(f.flats)) {
		return nil
	}
	return f.flats[slot]
}

// setFlat stores fn at slot, growing the dense index in one step.
func (f *Flattened) setFlat(slot uint64, fn *flatNode) {
	if n := int(slot) + 1 - len(f.flats); n > 0 {
		f.flats = slices.Grow(f.flats, n)[:slot+1]
	}
	f.flats[slot] = fn
}

// Kind implements Table.
func (f *Flattened) Kind() string { return "flattened" }

// newFlatNode allocates the 1 GB-span leaf node.
func (f *Flattened) newFlatNode() *flatNode {
	n := &flatNode{}
	if base, ok := f.alloc.AllocHuge(); ok {
		n.huge = true
		n.base = base.Addr()
	} else {
		n.chunks = make([]addr.P, flatChunks)
		n.chunkOK = make([]uint64, bitset.WordsFor(flatChunks))
	}
	f.nodes[addr.L2L1]++
	return n
}

// pteAddr returns the physical address of entry idx within the node.
func (n *flatNode) pteAddr(alloc *phys.Allocator, idx uint64) addr.P {
	if n.huge {
		return n.base + addr.P(idx*addr.PTESize)
	}
	c := idx >> addr.LevelBits
	if !bitset.TestBit(n.chunkOK, c) {
		pfn, ok := alloc.AllocFrame()
		if !ok {
			panic("pagetable: out of physical memory for a flattened chunk")
		}
		n.chunks[c] = pfn.Addr()
		bitset.SetBit(n.chunkOK, c)
	}
	return n.chunks[c] + addr.P((idx&(addr.EntriesPerTable-1))*addr.PTESize)
}

// pl3Slot returns the key identifying the flattened node for v: the
// PL4+PL3 prefix (18 bits).
func pl3Slot(v addr.V) uint64 { return uint64(v >> 30) }

// buildPath creates the PL3 node and flattened node covering v.
func (f *Flattened) buildPath(v addr.V) {
	f.child(f.root, addr.Index(v, addr.PL4))
	if slot := pl3Slot(v); f.flatAt(slot) == nil {
		f.setFlat(slot, f.newFlatNode())
		f.used[addr.PL3]++
	}
}

// Map implements Table.
func (f *Flattened) Map(vpn addr.VPN, pfn addr.PFN) { f.MapRange(vpn, 1, pfn) }

// MapRange implements Table, one flattened node's span at a time.
func (f *Flattened) MapRange(vpn addr.VPN, count uint64, base addr.PFN) {
	for count > 0 {
		v := vpn.Addr()
		f.buildPath(v)
		n := min(addr.FlatEntries-addr.FlatIndex(v), count)
		fresh := f.frames.mapRange(vpn, n, base)
		f.used[addr.L2L1] += fresh
		f.mapped += fresh
		vpn += addr.VPN(n)
		base += addr.PFN(n)
		count -= n
	}
}

// MapHuge implements Table. NDPage keeps 4 KB mapping flexibility (that is
// its advantage over Huge Page); 2 MB leaves are expressed as 512 base
// entries.
func (f *Flattened) MapHuge(vpn addr.VPN, base addr.PFN) {
	if !vpn.HugeAligned() {
		panic(fmt.Sprintf("pagetable: MapHuge of unaligned vpn %#x", uint64(vpn)))
	}
	f.MapRange(vpn, addr.EntriesPerTable, base)
}

// Unmap implements Table.
func (f *Flattened) Unmap(vpn addr.VPN) (Entry, bool) {
	e, ok := f.frames.unmap(vpn)
	if ok {
		f.used[addr.L2L1]--
		f.mapped--
	}
	return e, ok
}

// WalkInto implements Table: PL4 access, PL3 access, then one directly
// indexed access into the flattened node — 3 sequential accesses instead
// of the radix table's 4 (paper Figure 9).
func (f *Flattened) WalkInto(v addr.V, w *Walk) {
	w.Reset()
	i4, i3 := addr.Index(v, addr.PL4), addr.Index(v, addr.PL3)
	if f.walkUpper(w, i4, i3) == nil {
		return
	}
	fn := f.flatAt(pl3Slot(v))
	if fn == nil {
		return
	}
	w.Seq = append(w.Seq, Access{addr.L2L1, fn.pteAddr(f.alloc, addr.FlatIndex(v))})
	w.Entry, w.Found = f.frames.lookup(v.Page())
}

// Occupancy implements Table. The L2L1 row reports the paper's "combined
// PL2/PL1" occupancy over 2^18-entry nodes.
func (f *Flattened) Occupancy() []LevelOccupancy {
	return []LevelOccupancy{
		f.occupancy(addr.PL4, addr.EntriesPerTable),
		f.occupancy(addr.PL3, addr.EntriesPerTable),
		f.occupancy(addr.L2L1, addr.FlatEntries),
	}
}

// MetadataBytes implements Table: the simulator-side resident metadata —
// the radix directory (upper nodes and frame store), the dense node
// index, and each flattened node's backing directory.
func (f *Flattened) MetadataBytes() uint64 {
	const ptr = uint64(unsafe.Sizeof((*flatNode)(nil)))
	total := f.radixDir.MetadataBytes() + uint64(len(f.flats))*ptr
	for _, fn := range f.flats {
		if fn != nil {
			total += uint64(unsafe.Sizeof(*fn)) + uint64(len(fn.chunks)+len(fn.chunkOK))*8
		}
	}
	return total
}
