// Package pagetable implements the four page-table organizations the
// paper evaluates, behind one Table interface:
//
//   - Radix: the conventional x86-64 4-level radix tree (baseline), also
//     supporting 2 MB leaf entries at PL2 for the Huge Page mechanism.
//   - Flattened: NDPage's tailored table — Radix's PL4/PL3 directory
//     (the same type, radixDir), with the PL2 and PL1 levels merged into
//     one 2 MB node of 2^18 entries indexed by 18 virtual-address bits
//     (paper Section V-B).
//   - Cuckoo: an elastic cuckoo hash table (Skarlatos et al., ASPLOS'20),
//     the paper's strongest baseline (ECH): d=3 independent ways probed
//     in parallel, with gradual (elastic) resizing.
//
// A Table does two jobs: it is the *functional* map from virtual page
// numbers to physical frames (Map/Lookup), and it is the *timing* oracle
// telling the hardware walker which physical PTE addresses a walk for a
// given address touches (Walk). The two are kept apart. The functional
// map is one frameStore per table, shared in design by all three: a
// record per 2 MB chunk with its present bits and, since chunks are
// nearly always backed by one contiguous block, a base frame instead
// of 512 frame numbers. The OS model reserves each heap region before
// it maps into it (Reserve), and a table maps only reserved pages, so
// the records sit in one flat array sized to the heap. Lookup, Present
// and Unmap read only the store.
// The radix tree, flattened nodes and cuckoo ways keep only what
// decides PTE addresses and occupancy: node frames, used counts and
// tags. Every table node is backed by real frames from the shared
// physical allocator, so PTE accesses land in the same DRAM banks as
// data and contend with it — that contention is the paper's motivation.
package pagetable

import (
	"ndpage/internal/addr"
)

// HashLevel labels the parallel probe accesses of a hashed page table in
// Walk results (it is not a radix level).
const HashLevel addr.Level = 0

// Entry is a translation: the physical frame of a 4 KB page, or the base
// frame of a 2 MB region when Huge is set.
type Entry struct {
	PFN  addr.PFN
	Huge bool
}

// Translate resolves the frame for a specific page under this entry.
func (e Entry) Translate(vpn addr.VPN) addr.PFN {
	if !e.Huge {
		return e.PFN
	}
	return e.PFN + addr.PFN(uint64(vpn)&(addr.EntriesPerTable-1))
}

// Access is one PTE memory access a walk performs.
type Access struct {
	Level addr.Level
	PA    addr.P
}

// Walk describes the memory accesses of one page-table walk and its
// outcome. Seq holds dependent accesses issued one after another (radix
// walks); Par holds independent accesses issued simultaneously (hash
// walks). Exactly one of the two is populated. For hash walks, FoundIdx
// is the index within Par whose probe held the entry (-1 when not
// found) — way-prediction caches use it.
type Walk struct {
	Found    bool
	Entry    Entry
	Seq      []Access
	Par      []Access
	FoundIdx int
}

// WalkKind classifies the issue strategy a walk's accesses require.
type WalkKind int

// Walk kinds.
const (
	// Sequential walks issue each access only after the previous one
	// returned (radix pointer chasing).
	Sequential WalkKind = iota
	// Parallel walks issue every access simultaneously (hash-table
	// probes).
	Parallel
)

// Kind reports how the walk's accesses must be issued. A walk with no
// accesses at all (fully cached elsewhere) is Sequential.
func (w *Walk) Kind() WalkKind {
	if len(w.Par) > 0 {
		return Parallel
	}
	return Sequential
}

// Accesses returns the walk's access list — Par for parallel walks, Seq
// otherwise. The slice aliases the walk's storage.
func (w *Walk) Accesses() []Access {
	if w.Kind() == Parallel {
		return w.Par
	}
	return w.Seq
}

// Reset clears w for reuse without freeing its backing arrays. Table
// implementations call it at the top of WalkInto; hardware-walker models
// that reuse one Walk as scratch may also call it directly.
func (w *Walk) Reset() {
	w.Found = false
	w.Entry = Entry{}
	w.Seq = w.Seq[:0]
	w.Par = w.Par[:0]
	w.FoundIdx = -1
}

// LevelOccupancy reports, for one level of a table, how many nodes exist
// and what fraction of their entries are in use — the paper's Figure 8
// metric (PL2/PL1 ~98% occupied, PL3/PL4 nearly empty).
type LevelOccupancy struct {
	Level       addr.Level
	Nodes       uint64
	EntriesUsed uint64
	Capacity    uint64 // Nodes x entries-per-node
}

// Rate returns EntriesUsed/Capacity (0 for no nodes).
func (o LevelOccupancy) Rate() float64 {
	if o.Capacity == 0 {
		return 0
	}
	return float64(o.EntriesUsed) / float64(o.Capacity)
}

// Table is a page-table organization.
type Table interface {
	// Kind returns a short identifier ("radix", "flattened", "cuckoo").
	Kind() string
	// Reserve announces that pages [vpn, vpn+pages) form one heap
	// region the caller will map into. The OS model calls it once per
	// region, in ascending address order, before mapping any page of
	// it, and the frame store sizes its window to the heap. A range
	// that starts below the first or reaches VPN 2^32 panics, as does
	// a mapping outside every reserved range.
	Reserve(vpn addr.VPN, pages uint64)
	// Map installs a 4 KB translation.
	Map(vpn addr.VPN, pfn addr.PFN)
	// MapHuge installs a 2 MB translation; vpn must be 2 MB-aligned.
	// Organizations that do not support huge mappings panic.
	MapHuge(vpn addr.VPN, base addr.PFN)
	// MapRange installs count consecutive 4 KB translations backed by
	// consecutive frames starting at base (the fast path for eager
	// population).
	MapRange(vpn addr.VPN, count uint64, base addr.PFN)
	// Lookup is the functional (zero-cost) translation used by the OS
	// model and the Ideal mechanism.
	Lookup(vpn addr.VPN) (Entry, bool)
	// Present reports whether a translation covers vpn without
	// constructing it: the fast predicate of the OS demand-paging check,
	// which runs on every simulated load and store and hits ~99% of the
	// time after warmup. Implementations keep it inside bit-packed,
	// cache-resident metadata.
	Present(vpn addr.VPN) bool
	// Unmap removes the translation covering vpn, returning what was
	// removed (a Huge entry removes the whole 2 MB mapping). Used by
	// the reclaim model.
	Unmap(vpn addr.VPN) (Entry, bool)
	// WalkInto fills w with the PTE accesses a hardware walk for v
	// performs, reusing w's storage.
	WalkInto(v addr.V, w *Walk)
	// Occupancy reports per-level node occupancy.
	Occupancy() []LevelOccupancy
	// MappedPages returns the number of 4 KB-page translations
	// installed (huge mappings count as 512).
	MappedPages() uint64
	// MetadataBytes reports the simulator-side resident metadata of the
	// organization — the footprint of the lookup structures themselves,
	// not the modelled PTE frames. Per mapped page, it is the metric
	// the metadata-bound tests hold down (TestFlattenedMetadataBounds,
	// TestFlattenedReferenceSweepMetadata and their siblings).
	MetadataBytes() uint64
}
