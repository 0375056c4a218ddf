package pagetable

import (
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
// ordinal (vpn >> 9). The OS model bump-allocates every heap upward
// from one base, so one window of chunks lives in a flat array indexed
// by ordinal - base, where a read is a bounds check and one load. A
// chunk the window could only take by spanning more than about twice
// the live records goes to a Go map instead, so memory stays
// proportional to the mapped chunks for any key distribution. No map key ever lies inside the
// window: growing the window moves the keys it newly spans into the
// array.
type frameStore struct {
	base   uint64 // chunk ordinal of dense[0]
	dense  []chunkRec
	sparse map[uint64]*chunkRec
	live   uint64 // records holding at least one page, dense and sparse
	arrays uint64 // materialized frame arrays
}

// storeSlack is how far past twice its live record count the window
// may span, so holes between populated chunks stay dense.
const storeSlack = 16

// sparseEntryBytes estimates a Go map entry's resident cost beyond the
// record it points to: the key and pointer plus control bytes and
// load-factor headroom.
const sparseEntryBytes = 32

// chunkOf splits vpn into its chunk ordinal and index within the chunk.
func chunkOf(vpn addr.VPN) (chunk, i uint64) {
	return uint64(vpn) >> addr.LevelBits, uint64(vpn) & (addr.EntriesPerTable - 1)
}

// rec returns the record of chunk, nil when the chunk has none.
func (s *frameStore) rec(chunk uint64) *chunkRec {
	if i := chunk - s.base; i < uint64(len(s.dense)) {
		return &s.dense[i]
	}
	return s.sparse[chunk]
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

// recFor returns chunk's record, creating it (empty) if needed. The
// pointer is valid until the next recFor.
func (s *frameStore) recFor(chunk uint64) *chunkRec {
	if r := s.rec(chunk); r != nil {
		return r
	}
	if s.cover(chunk) {
		return &s.dense[chunk-s.base]
	}
	if s.sparse == nil {
		s.sparse = make(map[uint64]*chunkRec)
	}
	r := new(chunkRec)
	s.sparse[chunk] = r
	return r
}

// mapRange maps count pages from vpn to consecutive frames from base,
// returning how many of them were unmapped before. None may lie under
// a huge mapping.
func (s *frameStore) mapRange(vpn addr.VPN, count uint64, base addr.PFN) (fresh uint64) {
	for count > 0 {
		chunk, i := chunkOf(vpn)
		n := min(addr.EntriesPerTable-i, count)
		fresh += s.mapRun(s.recFor(chunk), i, n, base)
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
	if r.n == 0 {
		s.live++
	}
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
	chunk, _ := chunkOf(vpn)
	r := s.recFor(chunk)
	if r.n == 0 {
		s.live++
	}
	fresh = !r.huge
	*r = chunkRec{base: base, n: addr.EntriesPerTable, huge: true}
	for k := range r.present {
		r.present[k] = ^uint64(0)
	}
	return fresh
}

// unmap removes the translation covering vpn (all of a huge mapping),
// returning it. A record left empty is cleared, and a sparse one
// deleted, so reclaim returns the metadata too.
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
		s.live--
		if chunk-s.base >= uint64(len(s.dense)) {
			delete(s.sparse, chunk)
		}
	}
	return e, true
}

// cover grows the window to take chunk, which lies outside it, unless
// the window would then span more than 2 x (live+1) + storeSlack
// records. It grows by half again toward chunk, so a run of ascending
// or descending chunks regrows it only logarithmically often.
func (s *frameStore) cover(chunk uint64) bool {
	lo, hi := chunk, chunk+1
	if len(s.dense) > 0 {
		lo, hi = min(lo, s.base), max(hi, s.base+uint64(len(s.dense)))
	}
	span := hi - lo
	if span > 2*(s.live+1)+storeSlack {
		return false
	}
	extra := span / 2
	if chunk < s.base || len(s.dense) == 0 {
		lo -= min(extra, lo)
	} else {
		hi += extra
	}
	d := make([]chunkRec, hi-lo)
	if len(s.dense) > 0 {
		copy(d[s.base-lo:], s.dense)
	}
	s.base, s.dense = lo, d
	for c, r := range s.sparse {
		if i := c - lo; i < uint64(len(d)) {
			d[i] = *r
			delete(s.sparse, c)
		}
	}
	return true
}

// bytes is the store's resident size.
func (s *frameStore) bytes() uint64 {
	const rec = uint64(unsafe.Sizeof(chunkRec{}))
	return uint64(cap(s.dense))*rec + uint64(len(s.sparse))*(rec+sparseEntryBytes) +
		s.arrays*addr.EntriesPerTable*8
}
