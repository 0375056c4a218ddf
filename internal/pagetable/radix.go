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

// Radix is the conventional x86-64 4-level page table. It also serves the
// Huge Page mechanism via MapHuge (2 MB leaves at PL2).
type Radix struct {
	alloc  *phys.Allocator
	root   *radixNode
	nodes  levelCounts
	used   levelCounts
	mapped uint64
	frames frameStore
}

// NewRadix builds an empty 4-level table whose nodes are backed by frames
// from alloc.
func NewRadix(alloc *phys.Allocator) *Radix {
	r := &Radix{alloc: alloc}
	r.root = r.newNode(addr.PL4)
	return r
}

// Kind implements Table.
func (r *Radix) Kind() string { return "radix" }

func (r *Radix) newNode(level addr.Level) *radixNode {
	pfn, ok := r.alloc.AllocFrame()
	if !ok {
		panic("pagetable: out of physical memory for a radix node")
	}
	n := &radixNode{basePA: pfn.Addr(), level: level}
	if level != addr.PL1 {
		n.children = make([]*radixNode, addr.EntriesPerTable)
	}
	r.nodes[level]++
	return n
}

// child returns the child node under n at idx, creating it if needed.
func (r *Radix) child(n *radixNode, idx uint64) *radixNode {
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
	c := r.newNode(lvl)
	n.children[idx] = c
	r.used[n.level]++
	return c
}

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

// Reserve implements Table.
func (r *Radix) Reserve(vpn addr.VPN, pages uint64) { r.frames.reserve(vpn, pages) }

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

// Lookup implements Table.
func (r *Radix) Lookup(vpn addr.VPN) (Entry, bool) { return r.frames.lookup(vpn) }

// Present implements Table: the demand-paging fast predicate, one frame
// store read instead of a four-level descent.
func (r *Radix) Present(vpn addr.VPN) bool { return r.frames.present(vpn) }

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
	n := r.root
	w.Seq = append(w.Seq, Access{addr.PL4, pteAddr(n.basePA, addr.Index(v, addr.PL4))})
	n = n.children[addr.Index(v, addr.PL4)]
	if n == nil {
		return
	}
	w.Seq = append(w.Seq, Access{addr.PL3, pteAddr(n.basePA, addr.Index(v, addr.PL3))})
	n = n.children[addr.Index(v, addr.PL3)]
	if n == nil {
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
	levels := []addr.Level{addr.PL4, addr.PL3, addr.PL2, addr.PL1}
	out := make([]LevelOccupancy, 0, len(levels))
	for _, l := range levels {
		out = append(out, LevelOccupancy{
			Level:       l,
			Nodes:       r.nodes[l],
			EntriesUsed: r.used[l],
			Capacity:    r.nodes[l] * addr.EntriesPerTable,
		})
	}
	return out
}

// MappedPages implements Table.
func (r *Radix) MappedPages() uint64 { return r.mapped }

// MetadataBytes implements Table: the simulator-side resident metadata,
// computed from the per-level node counts (interior nodes carry a
// 512-pointer child directory, PL1 leaves only their header) plus the
// frame store.
func (r *Radix) MetadataBytes() uint64 {
	const ptr = uint64(unsafe.Sizeof((*radixNode)(nil)))
	node := uint64(unsafe.Sizeof(radixNode{}))
	interior := r.nodes[addr.PL4] + r.nodes[addr.PL3] + r.nodes[addr.PL2]
	return interior*(node+addr.EntriesPerTable*ptr) + r.nodes[addr.PL1]*node + r.frames.bytes()
}
