package pagetable

import (
	"fmt"
	"unsafe"

	"ndpage/internal/addr"
	"ndpage/internal/bitset"
)

// chunkWords is the uint64 words of one 512-entry present bitmap.
const chunkWords = addr.EntriesPerTable / 64

// chunkRec holds the translations of one 2 MB-aligned chunk of virtual
// pages: which pages are mapped, and their frames. Chunks are almost
// always backed by one contiguous block (eager population maps a whole
// chunk from one huge allocation), so page i maps base+i and no frame
// array exists. pfns materializes only when a mapping breaks that rule:
// a remap to another frame, scattered demand-fault frames, or
// frame-by-frame population that did not come out consecutive.
type chunkRec struct {
	present [chunkWords]uint64
	// base is the frame of page 0 while pfns is nil, and the base
	// frame of a huge mapping.
	base addr.PFN
	pfns *[addr.EntriesPerTable]addr.PFN
	n    uint32 // present pages
	// huge marks a 2 MB leaf mapping (Radix.MapHuge): every present
	// bit is set and the chunk translates as one Entry.
	huge bool
}

// frame returns the frame of page i (present, not huge).
func (r *chunkRec) frame(i uint64) addr.PFN {
	if r.pfns != nil {
		return r.pfns[i]
	}
	return r.base + addr.PFN(i)
}

// frameStore maps VPN -> frame for every table; the tables keep only
// what decides PTE addresses and occupancy. Records are keyed by chunk
// ordinal (vpn >> 9). The OS model reserves each heap region before it
// maps a page of it (Table.Reserve), and the store sizes one window of
// chunks to the hull of the reserved ranges: a flat array indexed by
// ordinal - base, where a read is a bounds check and one load. The
// window is the only storage: mapping a page outside it panics, and a
// read outside it finds nothing.
type frameStore struct {
	base   uint64 // chunk ordinal of dense[0]
	dense  []chunkRec
	arrays uint64 // materialized frame arrays
}

// maxVPN bounds every reservation, so a mapped VPN, and with it a cuckoo
// tag, fits in 32 bits. Heaps start at VPN 2^27 and span at most 2^28
// pages (workload.MaxFootprint).
const maxVPN = addr.VPN(1) << 32

// chunkOf splits vpn into its chunk ordinal and index within the chunk.
func chunkOf(vpn addr.VPN) (chunk, i uint64) {
	return uint64(vpn) >> addr.LevelBits, uint64(vpn) & (addr.EntriesPerTable - 1)
}

// rec returns the record of chunk, nil outside the window.
func (s *frameStore) rec(chunk uint64) *chunkRec {
	if i := chunk - s.base; i < uint64(len(s.dense)) {
		return &s.dense[i]
	}
	return nil
}

// present reports whether vpn is mapped: one record read.
func (s *frameStore) present(vpn addr.VPN) bool {
	chunk, i := chunkOf(vpn)
	r := s.rec(chunk)
	return r != nil && bitset.TestBit(r.present[:], i)
}

// lookup returns the translation covering vpn.
func (s *frameStore) lookup(vpn addr.VPN) (Entry, bool) {
	chunk, i := chunkOf(vpn)
	r := s.rec(chunk)
	if r == nil || !bitset.TestBit(r.present[:], i) {
		return Entry{}, false
	}
	if r.huge {
		return Entry{PFN: r.base, Huge: true}, true
	}
	return Entry{PFN: r.frame(i)}, true
}

// presentMap returns a copy of the present map of vpn's chunk.
func (s *frameStore) presentMap(vpn addr.VPN) (m [chunkWords]uint64) {
	chunk, _ := chunkOf(vpn)
	if r := s.rec(chunk); r != nil {
		m = r.present
	}
	return m
}

// recFor returns the record of vpn's chunk, which a mapping is about to
// write; the chunk must lie in a reserved range. The pointer is valid
// until the next reserve.
func (s *frameStore) recFor(vpn addr.VPN) *chunkRec {
	chunk, _ := chunkOf(vpn)
	if r := s.rec(chunk); r != nil {
		return r
	}
	panic(fmt.Sprintf("pagetable: map of VPN %#x outside every reserved range", uint64(vpn)))
}

// mapRange maps count pages from vpn to consecutive frames from base,
// returning how many of them were unmapped before. None may lie under
// a huge mapping.
func (s *frameStore) mapRange(vpn addr.VPN, count uint64, base addr.PFN) (fresh uint64) {
	for count > 0 {
		_, i := chunkOf(vpn)
		n := min(addr.EntriesPerTable-i, count)
		fresh += s.mapRun(s.recFor(vpn), i, n, base)
		vpn += addr.VPN(n)
		base += addr.PFN(n)
		count -= n
	}
	return fresh
}

// mapRun maps pages [i, i+n) of r to frames from base. A run that
// covers every present page of the chunk (its first mapping, or a
// remap of all of it) sets the chunk's base and drops any frame array;
// a run on the existing base+i line extends it; anything else spells
// the frames out.
func (s *frameStore) mapRun(r *chunkRec, i, n uint64, base addr.PFN) uint64 {
	fresh := bitset.SetRun(r.present[:], i, n)
	r.n += uint32(fresh)
	switch start := base - addr.PFN(i); {
	case uint64(r.n) == n:
		if r.pfns != nil {
			r.pfns = nil
			s.arrays--
		}
		r.base = start
	case r.pfns == nil && start == r.base:
	default:
		if r.pfns == nil {
			r.pfns = new([addr.EntriesPerTable]addr.PFN)
			for k := range r.pfns {
				r.pfns[k] = r.base + addr.PFN(k)
			}
			s.arrays++
		}
		for k := uint64(0); k < n; k++ {
			r.pfns[i+k] = base + addr.PFN(k)
		}
	}
	return fresh
}

// mapHuge installs a 2 MB mapping at the huge-aligned vpn, reporting
// whether the chunk was not already huge. The chunk must hold no 4 KB
// mappings.
func (s *frameStore) mapHuge(vpn addr.VPN, base addr.PFN) (fresh bool) {
	r := s.recFor(vpn)
	fresh = !r.huge
	*r = chunkRec{base: base, n: addr.EntriesPerTable, huge: true}
	for k := range r.present {
		r.present[k] = ^uint64(0)
	}
	return fresh
}

// unmap removes the translation covering vpn (all of a huge mapping),
// returning it. A record left empty is cleared, so reclaim returns its
// frame array too.
func (s *frameStore) unmap(vpn addr.VPN) (Entry, bool) {
	chunk, i := chunkOf(vpn)
	r := s.rec(chunk)
	if r == nil || !bitset.ClearBit(r.present[:], i) {
		return Entry{}, false
	}
	var e Entry
	if r.huge {
		e = Entry{PFN: r.base, Huge: true}
		r.n = 0
	} else {
		e = Entry{PFN: r.frame(i)}
		r.n--
	}
	if r.n == 0 {
		if r.pfns != nil {
			s.arrays--
		}
		*r = chunkRec{}
	}
	return e, true
}

// reserve widens the window up to the last of pages [vpn, vpn+pages).
// Ranges come in ascending order, as the OS model's bump allocator hands
// them out, and lie below maxVPN; anything else panics. The window grows
// by append, so the small regions reserved after a large one (per-core
// code) usually fit in the array's spare capacity instead of copying it.
func (s *frameStore) reserve(vpn addr.VPN, pages uint64) {
	if pages == 0 {
		return
	}
	if vpn >= maxVPN || pages > uint64(maxVPN-vpn) {
		panic(fmt.Sprintf("pagetable: reservation of %d pages at VPN %#x reaches VPN %#x", pages, uint64(vpn), uint64(maxVPN)))
	}
	lo, _ := chunkOf(vpn)
	hi, _ := chunkOf(vpn + addr.VPN(pages-1))
	if len(s.dense) == 0 {
		s.base = lo
	}
	if lo < s.base {
		panic(fmt.Sprintf("pagetable: reservation at VPN %#x lies below the reserved window at VPN %#x", uint64(vpn), s.base<<addr.LevelBits))
	}
	if end := s.base + uint64(len(s.dense)); hi >= end {
		s.dense = append(s.dense, make([]chunkRec, hi+1-end)...)
	}
}

// bytes is the store's resident size.
func (s *frameStore) bytes() uint64 {
	const rec = uint64(unsafe.Sizeof(chunkRec{}))
	return uint64(cap(s.dense))*rec + s.arrays*addr.EntriesPerTable*8
}
