package pagetable

import (
	"fmt"
	"unsafe"

	"ndpage/internal/addr"
	"ndpage/internal/phys"
)

// radixNode is one 4 KB table node: the physical frame its PTEs live
// in and, for interior nodes (PL4, PL3, PL2), the child directory. PL1
// leaves carry no entries of their own: the frames they map, and PL2's
// 2 MB leaf entries, live in the table's frame store.
type radixNode struct {
	basePA   addr.P
	level    addr.Level
	children []*radixNode
}

// levelCounts is a dense per-level counter array indexed by addr.Level
// (PL1..L2L1), replacing the map the occupancy bookkeeping used to key
// through: Map/Unmap touch these counters on every call and a map
// bucket probe per mapped page is measurable at population scale.
type levelCounts [addr.L2L1 + 1]uint64

// radixDir is the radix directory Radix and Flattened share: the PL4
// root and the nodes hung below it, each backed by a frame from alloc,
// the per-level node and used-entry counts, and the frame store that
// holds every mapped entry. Radix grows it down to PL1; Flattened stops
// at PL3 and hangs its merged PL2+PL1 nodes off the PL3 entries.
type radixDir struct {
	alloc  *phys.Allocator
	root   *radixNode
	nodes  levelCounts
	used   levelCounts
	mapped uint64
	// frames holds every mapped entry's frame; Lookup, Present and
	// Unmap read only it.
	frames frameStore
}

// newRadixDir builds an empty directory: a PL4 root backed by the
// first frame it takes from alloc.
func newRadixDir(alloc *phys.Allocator) radixDir {
	d := radixDir{alloc: alloc}
	d.root = d.newNode(addr.PL4)
	return d
}

func (d *radixDir) newNode(level addr.Level) *radixNode {
	pfn, ok := d.alloc.AllocFrame()
	if !ok {
		panic("pagetable: out of physical memory for a radix node")
	}
	n := &radixNode{basePA: pfn.Addr(), level: level}
	if level != addr.PL1 {
		n.children = make([]*radixNode, addr.EntriesPerTable)
	}
	d.nodes[level]++
	return n
}

// child returns the child node under n at idx, creating it if needed.
func (d *radixDir) child(n *radixNode, idx uint64) *radixNode {
	if c := n.children[idx]; c != nil {
		return c
	}
	var lvl addr.Level
	switch n.level {
	case addr.PL4:
		lvl = addr.PL3
	case addr.PL3:
		lvl = addr.PL2
	case addr.PL2:
		lvl = addr.PL1
	default:
		panic("pagetable: child of leaf level")
	}
	c := d.newNode(lvl)
	n.children[idx] = c
	d.used[n.level]++
	return c
}

// walkUpper appends a walk's PL4 read, entry i4 of the root, and, when
// that entry points to a PL3 node, its PL3 read, entry i3 of that node.
// It returns the PL3 node, or nil when the walk ends at PL4. Callers
// compute the indices: addr.Index is over the plain inlining budget and
// inlines only at the hot call sites cmd/ndpsim/default.pgo records in
// Flattened.WalkInto.
func (d *radixDir) walkUpper(w *Walk, i4, i3 uint64) *radixNode {
	w.Seq = append(w.Seq, Access{addr.PL4, pteAddr(d.root.basePA, i4)})
	n3 := d.root.children[i4]
	if n3 != nil {
		w.Seq = append(w.Seq, Access{addr.PL3, pteAddr(n3.basePA, i3)})
	}
	return n3
}

// occupancy returns level l's Occupancy row for nodes of perNode
// entries.
func (d *radixDir) occupancy(l addr.Level, perNode uint64) LevelOccupancy {
	return LevelOccupancy{Level: l, Nodes: d.nodes[l], EntriesUsed: d.used[l], Capacity: d.nodes[l] * perNode}
}

// Reserve implements Table.
func (d *radixDir) Reserve(vpn addr.VPN, pages uint64) { d.frames.reserve(vpn, pages) }

// Lookup implements Table.
func (d *radixDir) Lookup(vpn addr.VPN) (Entry, bool) { return d.frames.lookup(vpn) }

// Present implements Table: the demand-paging fast predicate, one frame
// store read instead of a descent.
func (d *radixDir) Present(vpn addr.VPN) bool { return d.frames.present(vpn) }

// MappedPages implements Table.
func (d *radixDir) MappedPages() uint64 { return d.mapped }

// MetadataBytes implements Table: the simulator-side resident metadata,
// computed from the per-level node counts (interior nodes carry a
// 512-pointer child directory, PL1 leaves only their header) plus the
// frame store. Flattened adds its merged nodes.
func (d *radixDir) MetadataBytes() uint64 {
	const ptr = uint64(unsafe.Sizeof((*radixNode)(nil)))
	node := uint64(unsafe.Sizeof(radixNode{}))
	interior := d.nodes[addr.PL4] + d.nodes[addr.PL3] + d.nodes[addr.PL2]
	return interior*(node+addr.EntriesPerTable*ptr) + d.nodes[addr.PL1]*node + d.frames.bytes()
}

// Radix is the conventional x86-64 4-level page table. It also serves the
// Huge Page mechanism via MapHuge (2 MB leaves at PL2).
type Radix struct {
	radixDir
}

// NewRadix builds an empty 4-level table whose nodes are backed by frames
// from alloc.
func NewRadix(alloc *phys.Allocator) *Radix {
	return &Radix{newRadixDir(alloc)}
}

// Kind implements Table.
func (r *Radix) Kind() string { return "radix" }

// buildPath creates the nodes down to the PL1 node covering vpn.
func (r *Radix) buildPath(vpn addr.VPN) {
	if e, _ := r.frames.lookup(vpn); e.Huge {
		panic(fmt.Sprintf("pagetable: 4K map under existing 2MB mapping at vpn %#x", uint64(vpn)))
	}
	v := vpn.Addr()
	n := r.child(r.root, addr.Index(v, addr.PL4))
	n = r.child(n, addr.Index(v, addr.PL3))
	r.child(n, addr.Index(v, addr.PL2))
}

// Map implements Table.
func (r *Radix) Map(vpn addr.VPN, pfn addr.PFN) { r.MapRange(vpn, 1, pfn) }

// MapRange implements Table, one PL1 node's span at a time.
func (r *Radix) MapRange(vpn addr.VPN, count uint64, base addr.PFN) {
	for count > 0 {
		r.buildPath(vpn)
		n := min(addr.EntriesPerTable-addr.Index(vpn.Addr(), addr.PL1), count)
		fresh := r.frames.mapRange(vpn, n, base)
		r.used[addr.PL1] += fresh
		r.mapped += fresh
		vpn += addr.VPN(n)
		base += addr.PFN(n)
		count -= n
	}
}

// MapHuge implements Table: installs a 2 MB leaf at PL2.
func (r *Radix) MapHuge(vpn addr.VPN, base addr.PFN) {
	if !vpn.HugeAligned() {
		panic(fmt.Sprintf("pagetable: MapHuge of unaligned vpn %#x", uint64(vpn)))
	}
	v := vpn.Addr()
	n := r.child(r.root, addr.Index(v, addr.PL4))
	n = r.child(n, addr.Index(v, addr.PL3))
	if n.children[addr.Index(v, addr.PL2)] != nil {
		panic(fmt.Sprintf("pagetable: 2MB map over existing 4K table at vpn %#x", uint64(vpn)))
	}
	if r.frames.mapHuge(vpn, base) {
		r.used[addr.PL2]++
		r.mapped += addr.EntriesPerTable
	}
}

// Unmap implements Table.
func (r *Radix) Unmap(vpn addr.VPN) (Entry, bool) {
	e, ok := r.frames.unmap(vpn)
	if !ok {
		return Entry{}, false
	}
	if e.Huge {
		r.used[addr.PL2]--
		r.mapped -= addr.EntriesPerTable
	} else {
		r.used[addr.PL1]--
		r.mapped--
	}
	return e, true
}

// WalkInto implements Table: a sequential walk from PL4 downward. The walk
// records every PTE it reads, stopping at the first non-present entry or
// at the leaf (PL1 entry, or a 2 MB leaf at PL2). The tree supplies the
// PTE addresses; the frame store supplies the outcome.
func (r *Radix) WalkInto(v addr.V, w *Walk) {
	w.Reset()
	// Read the translation first: its load then overlaps the descent's.
	e, ok := r.frames.lookup(v.Page())
	i4, i3 := addr.Index(v, addr.PL4), addr.Index(v, addr.PL3)
	n := r.walkUpper(w, i4, i3)
	if n == nil {
		return
	}
	if n = n.children[i3]; n == nil {
		return
	}
	i2 := addr.Index(v, addr.PL2)
	w.Seq = append(w.Seq, Access{addr.PL2, pteAddr(n.basePA, i2)})
	if !e.Huge {
		leaf := n.children[i2]
		if leaf == nil {
			return
		}
		w.Seq = append(w.Seq, Access{addr.PL1, pteAddr(leaf.basePA, addr.Index(v, addr.PL1))})
	}
	w.Found, w.Entry = ok, e
}

// pteAddr returns the physical address of entry idx in the table at base.
func pteAddr(base addr.P, idx uint64) addr.P {
	return base + addr.P(idx*addr.PTESize)
}

// Occupancy implements Table.
func (r *Radix) Occupancy() []LevelOccupancy {
	return []LevelOccupancy{
		r.occupancy(addr.PL4, addr.EntriesPerTable),
		r.occupancy(addr.PL3, addr.EntriesPerTable),
		r.occupancy(addr.PL2, addr.EntriesPerTable),
		r.occupancy(addr.PL1, addr.EntriesPerTable),
	}
}
