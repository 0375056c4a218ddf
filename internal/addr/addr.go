// Package addr defines the address arithmetic shared by every component of
// the simulator: virtual and physical address types, x86-64 page geometry
// (4 KB and 2 MB pages), radix page-table indexing, the flattened L2/L1
// index used by NDPage, and cache-line math.
//
// The package is pure arithmetic with no state; everything in it is safe for
// concurrent use.
package addr

import "fmt"

// Fundamental x86-64 virtual-memory geometry.
const (
	// PageShift is log2 of the base page size (4 KB).
	PageShift = 12
	// PageSize is the base page size in bytes.
	PageSize = 1 << PageShift
	// PageMask masks the offset bits within a base page.
	PageMask = PageSize - 1

	// HugePageShift is log2 of the huge page size (2 MB).
	HugePageShift = 21
	// HugePageSize is the huge page size in bytes.
	HugePageSize = 1 << HugePageShift
	// HugePageMask masks the offset bits within a huge page.
	HugePageMask = HugePageSize - 1

	// LevelBits is the number of virtual-address bits consumed by one
	// radix page-table level (512 entries per table node).
	LevelBits = 9
	// EntriesPerTable is the fan-out of one radix table node.
	EntriesPerTable = 1 << LevelBits

	// FlatBits is the number of bits consumed by NDPage's flattened
	// L2/L1 level: 18 bits indexing a single 2 MB node of 262,144 PTEs.
	FlatBits = 2 * LevelBits
	// FlatEntries is the fan-out of a flattened L2/L1 node.
	FlatEntries = 1 << FlatBits

	// VABits is the number of translated virtual-address bits (x86-64
	// canonical 48-bit addressing: 36 translated bits + 12 offset bits).
	VABits = 48

	// PTESize is the size of one page-table entry in bytes.
	PTESize = 8

	// LineShift is log2 of the cache-line size (64 B).
	LineShift = 6
	// LineSize is the cache-line size in bytes.
	LineSize = 1 << LineShift
)

// Level identifies one level of the radix page table. The paper (and Intel
// convention) numbers them PL4 (root) down to PL1 (leaf).
type Level int

// Radix page-table levels. L2L1 is NDPage's merged level.
const (
	PL1 Level = 1 + iota
	PL2
	PL3
	PL4
	// L2L1 denotes NDPage's flattened node merging PL2 and PL1.
	L2L1
)

// String returns the conventional name of the level.
func (l Level) String() string {
	switch l {
	case PL1:
		return "PL1"
	case PL2:
		return "PL2"
	case PL3:
		return "PL3"
	case PL4:
		return "PL4"
	case L2L1:
		return "PL2L1"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Depth returns a level's distance from the radix root: PL4 is 0, PL3 is
// 1, PL2 is 2, PL1 is 3. The flattened L2L1 level sits where PL2 does
// (it is reached from a PL3 entry). Unknown levels return -1.
func Depth(l Level) int {
	switch l {
	case PL4:
		return 0
	case PL3:
		return 1
	case PL2, L2L1:
		return 2
	case PL1:
		return 3
	default:
		return -1
	}
}

// V is a virtual address.
type V uint64

// P is a physical address.
type P uint64

// VPN is a virtual page number (virtual address >> PageShift).
type VPN uint64

// PFN is a physical frame number (physical address >> PageShift).
type PFN uint64

// Page returns the virtual page number containing v.
func (v V) Page() VPN { return VPN(v >> PageShift) }

// HugePage returns the 2 MB-aligned virtual page number containing v,
// expressed in base-page units (i.e. the VPN of the first 4 KB page).
func (v V) HugePage() VPN { return VPN(v>>HugePageShift) << (HugePageShift - PageShift) }

// Offset returns the byte offset of v within its 4 KB page.
func (v V) Offset() uint64 { return uint64(v) & PageMask }

// Line returns the index of the 64 B cache line containing v.
func (v V) Line() uint64 { return uint64(v) >> LineShift }

// Addr returns the first virtual address of the page.
func (n VPN) Addr() V { return V(n << PageShift) }

// HugeAligned reports whether the VPN is aligned to a 2 MB boundary.
func (n VPN) HugeAligned() bool { return n&(EntriesPerTable-1) == 0 }

// Addr returns the first physical address of the frame.
func (n PFN) Addr() P { return P(n << PageShift) }

// Page returns the physical frame number containing p.
func (p P) Page() PFN { return PFN(p >> PageShift) }

// Line returns the index of the 64 B cache line containing p.
func (p P) Line() uint64 { return uint64(p) >> LineShift }

// Index returns the 9-bit radix index of v at the given conventional level
// (PL4 selects bits 47:39, PL3 38:30, PL2 29:21, PL1 20:12).
func Index(v V, l Level) uint64 {
	switch l {
	case PL4:
		return uint64(v>>39) & (EntriesPerTable - 1)
	case PL3:
		return uint64(v>>30) & (EntriesPerTable - 1)
	case PL2:
		return uint64(v>>21) & (EntriesPerTable - 1)
	case PL1:
		return uint64(v>>12) & (EntriesPerTable - 1)
	case L2L1:
		return FlatIndex(v)
	default:
		panic("addr: invalid page-table level " + l.String())
	}
}

// FlatIndex returns the 18-bit index into NDPage's flattened L2/L1 node:
// virtual-address bits 29:12, i.e. the concatenation of the PL2 and PL1
// indices.
func FlatIndex(v V) uint64 {
	return uint64(v>>PageShift) & (FlatEntries - 1)
}

// Prefix returns the virtual-address prefix identifying the level-l page
// table *entry* that a walk for v reads: the VA bits consumed down through
// level l's index. This is the tag a level-l page-walk cache uses — a hit
// on the level-l prefix yields the base of the child table below l, so the
// walk can resume there. PL4 entries are tagged by the 9-bit PL4 index
// (v>>39), PL3 by 18 bits (v>>30), PL2 by 27 bits (v>>21), and PL1 (or the
// flattened L2L1 leaf) by the full 36-bit VPN (v>>12).
func Prefix(v V, l Level) uint64 {
	switch l {
	case PL4:
		return uint64(v >> 39)
	case PL3:
		return uint64(v >> 30)
	case PL2:
		return uint64(v >> 21)
	case PL1, L2L1:
		return uint64(v >> PageShift)
	default:
		panic("addr: invalid page-table level " + l.String())
	}
}

// Canonical reports whether v is a canonical 48-bit address (bits 63:47 are
// a sign extension of bit 47). The simulator only issues canonical
// lower-half addresses; the check guards against workload generator bugs.
func Canonical(v V) bool {
	top := uint64(v) >> (VABits - 1)
	return top == 0 || top == (1<<(64-VABits+1))-1
}

// AlignUp rounds n up to the next multiple of align (a power of two).
func AlignUp(n, align uint64) uint64 {
	return (n + align - 1) &^ (align - 1)
}
