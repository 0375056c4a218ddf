package pagetable

import (
	"fmt"
	"math/bits"

	"ndpage/internal/addr"
	"ndpage/internal/bitset"
	"ndpage/internal/phys"
	"ndpage/internal/xrand"
)

// Cuckoo implements an elastic cuckoo hash page table (Skarlatos et al.,
// "Elastic Cuckoo Page Tables", ASPLOS 2020) — the paper's ECH baseline.
//
// Translations live in d independent ways (d = 3), each a separate hash
// table. A lookup computes one slot per way and probes all ways *in
// parallel*: WalkInto reports the probes in Walk.Par, and the MMU charges
// the maximum (not the sum) of their memory latencies. This is ECH's
// advantage over the radix walk's four dependent accesses — and its cost
// is d times the PTE memory traffic, which is what NDPage exploits at
// high core counts.
//
// Elastic resizing follows the ECH scheme: when a way's load factor
// crosses the threshold it begins a gradual migration into a table twice
// the size, tracked by a migration pointer. Entries whose old-table slot
// index is below the pointer have been rehashed into the new table, so a
// lookup still needs exactly one probe per way during resizing. Both
// tables share one slot array that grows in place (see cuckooWay).
//
// Map inserts one page at a time along that elastic path: demand
// faults, and population frame by frame. MapRange, the OS model's eager
// population, builds in bulk instead: it stores the frames at once and
// queues the pages, and place gives the queued pages their tags in bulk
// before anything reads slot state.
type Cuckoo struct {
	alloc *phys.Allocator
	ways  [len(cuckooSalts)]cuckooWay
	count uint64 // placed tags
	// frames holds the frame of every entry the slots tag, so a slot
	// need hold only its VPN tag, and Lookup, Present, and Map's remap
	// check read one store record instead of probing d slots.
	frames frameStore

	// queue holds the runs of pages MapRange mapped fresh, in mapping
	// order, whose tags place has not yet placed; queued counts them.
	queue  []cuckooRun
	queued uint64

	stats CuckooStats
}

// cuckooRun is n consecutive pages from vpn.
type cuckooRun struct {
	vpn addr.VPN
	n   uint64
}

// CuckooStats counts structural events.
type CuckooStats struct {
	Inserts  uint64
	Kicks    uint64 // displacement steps
	Resizes  uint64 // gradual resizes begun
	Migrated uint64 // entries migrated during gradual resizes, moved or not
}

// cuckooWay is one hash table that grows in place, the way linear
// hashing splits buckets. Its slot array covers size slots, or 2*size
// while it resizes; doubling appends one segment of size slots, so no
// tag is ever copied to grow the way and no array is freed. A slot
// holds only the VPN tag that placement compares; the PFN lives in
// Cuckoo.frames. The modelled PTE is slotBytes wide regardless, and
// only it decides the slots' physical addresses.
//
// A tag is 4 B: the frame store maps only pages below maxVPN (1<<32),
// so every tag fits in 32 bits.
//
// While the way resizes, the old table is slots [migPtr, size) and
// the new one, twice as large, is [0, migPtr) plus [size, size+migPtr):
// a key's new slot is its old slot i or i+size (its hash with one more
// bit), so migrating slot i either leaves the tag where it is or moves
// it to i+size. Old-table slots sit in frames and new-table slots in
// newFrames.
type cuckooWay struct {
	// segs[0] holds the initial 1<<seg0Shift slots and each resize
	// appends a segment as large as the table, so segs[k], k > 0,
	// holds slots [len(segs[k]), 2*len(segs[k])) and slot i lives in
	// segs[bits.Len(i>>seg0Shift)]. The few segment headers stay in
	// L1, so locating a slot adds one cached load.
	segs      [][]uint32
	seg0Shift uint8
	occ       []uint64 // one bit per slot
	frames    []addr.P // one frame per slotsPerFrame old-table slots
	newFrames []addr.P // the new table's, while resizing

	size  int // the table's slots (the old table's while resizing), a power of two
	salt  uint64
	count int
	// resizeAt is the count above which the way begins a gradual
	// resize: cuckooThreshold x size, precomputed per table size.
	resizeAt int

	resizing bool
	// migPtr is the first old-table slot not yet migrated; 0 unless
	// resizing, so probe needs no resizing test.
	migPtr int
}

// cell returns the cell holding slot i's tag.
func (way *cuckooWay) cell(i int) *uint32 {
	s := way.segs[bits.Len(uint(i)>>way.seg0Shift)]
	return &s[i&(len(s)-1)]
}

// tag returns slot i's tag.
func (way *cuckooWay) tag(i int) addr.VPN { return addr.VPN(*way.cell(i)) }

// setTag stores vpn, which lies below maxVPN, as slot i's tag.
func (way *cuckooWay) setTag(i int, vpn addr.VPN) { *way.cell(i) = uint32(vpn) }

// full reports whether slot i holds an entry.
func (way *cuckooWay) full(i int) bool { return bitset.TestBit(way.occ, uint64(i)) }

// slotBytes is the size of one modelled cuckoo PTE slot (VPN tag + PFN
// + flags).
const slotBytes = 16

// slotsPerFrame is how many modelled slots fit a 4 KB frame.
const slotsPerFrame = addr.PageSize / slotBytes

// cuckooSalts seed the d = 3 ways' hash functions.
var cuckooSalts = [...]uint64{0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9}

const (
	// cuckooMigrateStep entries are rehashed per insert while a way
	// resizes.
	cuckooMigrateStep = 8
	// cuckooThreshold is the per-way load factor that triggers a resize.
	cuckooThreshold = 0.6
)

// NewCuckoo builds an ECH table with the given initial slots per way
// (rounded up to a power of two; minimum one frame's worth).
func NewCuckoo(alloc *phys.Allocator, initialSlots int) *Cuckoo {
	size := slotsPerFrame
	for size < initialSlots {
		size *= 2
	}
	c := &Cuckoo{alloc: alloc}
	for i, salt := range cuckooSalts {
		c.ways[i] = cuckooWay{
			segs:      [][]uint32{make([]uint32, size)},
			seg0Shift: uint8(bits.TrailingZeros(uint(size))),
			occ:       make([]uint64, bitset.WordsFor(uint64(size))),
			frames:    c.allocFrames(size),
			size:      size,
			salt:      salt,
			resizeAt:  resizeLimit(size),
		}
	}
	return c
}

// Kind implements Table.
func (c *Cuckoo) Kind() string { return "cuckoo" }

// Stats returns a copy of the structural counters.
func (c *Cuckoo) Stats() CuckooStats {
	c.settle()
	return c.stats
}

func (c *Cuckoo) allocFrames(slots int) []addr.P {
	n := (slots + slotsPerFrame - 1) / slotsPerFrame
	frames := make([]addr.P, n)
	for i := range frames {
		pfn, ok := c.alloc.AllocFrame()
		if !ok {
			panic("pagetable: out of physical memory for a cuckoo way")
		}
		frames[i] = pfn.Addr()
	}
	return frames
}

// resizeLimit is the integer form of the resize trigger
// count > cuckooThreshold*size: count is an integer, so comparing it
// against the product's floor decides identically.
func resizeLimit(size int) int { return int(cuckooThreshold * float64(size)) }

// hash returns the way's full hash of vpn; a table of size slots uses
// its low log2(size) bits.
func (way *cuckooWay) hash(vpn addr.VPN) int {
	return int(xrand.Hash64(uint64(vpn) ^ way.salt))
}

// probe returns the slot a lookup for vpn lands on: its old-table slot,
// or, once migration has passed that slot, its new-table slot, which
// indexes by one more hash bit.
func (way *cuckooWay) probe(vpn addr.VPN) int {
	h := way.hash(vpn)
	i := h & (way.size - 1)
	if i < way.migPtr {
		i += h & way.size
	}
	return i
}

// slotPA returns the modelled physical address of slot i.
func (way *cuckooWay) slotPA(i int) addr.P {
	frames := way.frames
	if i < way.migPtr || i >= way.size {
		frames = way.newFrames
	}
	return frames[i/slotsPerFrame] + addr.P((i%slotsPerFrame)*slotBytes)
}

// holds reports whether the way's probe slot for vpn carries its tag,
// and which slot that is.
func (way *cuckooWay) holds(vpn addr.VPN) (idx int, ok bool) {
	idx = way.probe(vpn)
	return idx, way.full(idx) && way.tag(idx) == vpn
}

// Lookup implements Table.
func (c *Cuckoo) Lookup(vpn addr.VPN) (Entry, bool) { return c.frames.lookup(vpn) }

// Present implements Table: the demand-paging fast predicate, one store
// read.
func (c *Cuckoo) Present(vpn addr.VPN) bool { return c.frames.present(vpn) }

// WalkInto implements Table: d parallel probes, one per way.
func (c *Cuckoo) WalkInto(v addr.V, w *Walk) {
	c.settle()
	w.Reset()
	vpn := v.Page()
	// Read the frame first: its load then overlaps the tag probes'.
	e, _ := c.frames.lookup(vpn)
	for i := range c.ways {
		way := &c.ways[i]
		idx, ok := way.holds(vpn)
		w.Par = append(w.Par, Access{HashLevel, way.slotPA(idx)})
		if ok {
			w.Found = true
			w.FoundIdx = i
			w.Entry = e
		}
	}
}

// Reserve implements Table. It places queued tags first, so a region's
// build is done by the time the OS model reserves the next one.
func (c *Cuckoo) Reserve(vpn addr.VPN, pages uint64) {
	c.settle()
	c.frames.reserve(vpn, pages)
}

// Map implements Table: queued tags are placed, then the page, if new,
// gets its tag along the elastic path. A remapped page needs no tag
// work: its slot holds only the tag.
func (c *Cuckoo) Map(vpn addr.VPN, pfn addr.PFN) {
	c.settle()
	c.stats.Inserts++
	if c.frames.mapRange(vpn, 1, pfn) != 0 {
		c.add(vpn)
	}
}

// add gives a new page its tag along the elastic path: it advances any
// gradual resize, inserts the tag, and starts a resize of the way that
// took it if that way crossed its threshold.
func (c *Cuckoo) add(vpn addr.VPN) {
	c.advanceMigrations()
	way := c.insert(vpn, 0)
	c.count++
	c.maybeResize(way)
}

// MapRange implements Table. Frames go into the store at once, so
// Lookup and Present see the pages immediately; the pages the store did
// not hold before are queued for place. A remapped page needs no tag.
func (c *Cuckoo) MapRange(vpn addr.VPN, count uint64, base addr.PFN) {
	c.stats.Inserts += count
	for count > 0 {
		_, i := chunkOf(vpn)
		n := min(addr.EntriesPerTable-i, count)
		was := c.frames.presentMap(vpn)
		if c.frames.mapRange(vpn, n, base) == n {
			c.enqueue(vpn, n)
		} else {
			for k := uint64(0); k < n; k++ {
				if !bitset.TestBit(was[:], i+k) {
					c.enqueue(vpn+addr.VPN(k), 1)
				}
			}
		}
		vpn += addr.VPN(n)
		base += addr.PFN(n)
		count -= n
	}
}

// enqueue queues pages [vpn, vpn+n), extending the last run when they
// follow it.
func (c *Cuckoo) enqueue(vpn addr.VPN, n uint64) {
	c.queued += n
	if k := len(c.queue) - 1; k >= 0 && c.queue[k].vpn+addr.VPN(c.queue[k].n) == vpn {
		c.queue[k].n += n
		return
	}
	c.queue = append(c.queue, cuckooRun{vpn, n})
}

// settle places any queued tags; every read of slot state calls it
// first.
func (c *Cuckoo) settle() {
	if c.queued != 0 {
		c.place()
	}
}

// place gives every queued page its tag, in bulk:
//
//  1. Each way finishes any gradual resize, then grows once to the size
//     elastic growth would settle at for the whole table: the smallest
//     power of two whose threshold holds a third of the pages.
//  2. Each page tries its first-choice way (vpn mod d, where insert
//     starts), then the next way, then the one after: one pass per
//     choice and way, each way taking all of a choice's pages before
//     the next way does. A pass visits the pages still without a slot
//     in mapping order and places a page when its slot is free, so the
//     first page to reach a slot wins it. The first-choice pass reads
//     the queue's runs and records the pages it could not place; the
//     later passes visit only those.
//  3. Each way starts a gradual resize if it crossed its threshold, and
//     the pages that found all d slots taken go through add, Map's
//     elastic path, in mapping order.
//
// Step 1 streams through each way once, and step 2 makes one probe per
// page and choice with no displacement chain, where inserting the pages
// one by one would double every way many times over and migrate each
// tag at every doubling.
func (c *Cuckoo) place() {
	total := c.count + c.queued
	size := slotsPerFrame
	for uint64(resizeLimit(size)) < (total+2)/3 {
		size *= 2
	}
	for i := range c.ways {
		way := &c.ways[i]
		if way.resizing {
			c.migrate(way, way.size)
		}
		c.grow(way, size)
	}
	pending := c.pendingSets()
	const d = uint64(len(cuckooSalts))
	for choice := uint64(0); choice < d; choice++ {
		for w := range c.ways {
			r := (uint64(w) + d - choice) % d
			if choice == 0 {
				c.placeFirst(&c.ways[w], r, pending[r])
			} else {
				c.placePending(&c.ways[w], r, pending[r])
			}
		}
	}
	for i := range c.ways {
		c.maybeResize(&c.ways[i])
	}
	c.addLeftovers(pending)
	c.queue, c.queued = c.queue[:0], 0
}

// pendingSets returns empty sets of the queued pages, one per residue
// r (VPN mod d), of a bit per page by its rank among the residue's
// pages in mapping order; place marks in them the pages no way has
// taken yet. A residue holds at most ceil(n/d) of a run's n pages, so
// together the sets take about one bit per queued page.
func (c *Cuckoo) pendingSets() (pending [len(cuckooSalts)][]uint64) {
	n := bitset.WordsFor(c.queued/uint64(len(pending)) + uint64(len(c.queue)))
	bitmap := make([]uint64, len(pending)*n)
	for r := range pending {
		pending[r] = bitmap[r*n : (r+1)*n : (r+1)*n]
	}
	return pending
}

// residueSpan returns where run's pages of residue r (VPN mod d) lie:
// n of them, at offsets k, k+d, k+2d, ... into run.
func residueSpan(run cuckooRun, r uint64) (k, n uint64) {
	const d = uint64(len(cuckooSalts))
	k = (r + d - uint64(run.vpn)%d) % d
	if k >= run.n {
		return k, 0
	}
	return k, (run.n - k + d - 1) / d
}

// placeFirst places the queued pages of residue r in their slot of
// way, where free, and marks the rest in pending.
func (c *Cuckoo) placeFirst(way *cuckooWay, r uint64, pending []uint64) {
	const d = uint64(len(cuckooSalts))
	mask := way.size - 1
	placed, rank := 0, uint64(0)
	for _, run := range c.queue {
		k, n := residueSpan(run, r)
		vpn := run.vpn + addr.VPN(k)
		for range n {
			if i := way.hash(vpn) & mask; bitset.SetBit(way.occ, uint64(i)) {
				way.setTag(i, vpn)
				placed++
			} else {
				pending[rank>>6] |= 1 << (rank & 63)
			}
			vpn += addr.VPN(d)
			rank++
		}
	}
	way.count += placed
	c.count += uint64(placed)
}

// placePending places residue r's pending pages in their slot of way,
// where free, and clears their bits.
func (c *Cuckoo) placePending(way *cuckooWay, r uint64, pending []uint64) {
	mask := way.size - 1
	cur := newRankCursor(c.queue, r)
	placed := 0
	for w, word := range pending {
		left := word
		for ; word != 0; word &= word - 1 {
			_, vpn := cur.page(uint64(w)<<6 + uint64(bits.TrailingZeros64(word)))
			if i := way.hash(vpn) & mask; bitset.SetBit(way.occ, uint64(i)) {
				way.setTag(i, vpn)
				placed++
				left &^= word & -word
			}
		}
		pending[w] = left
	}
	way.count += placed
	c.count += uint64(placed)
}

// addLeftovers gives the pages still pending their tags through add,
// in mapping order: it merges the residues' pending pages by queue
// position.
func (c *Cuckoo) addLeftovers(pending [len(cuckooSalts)][]uint64) {
	var left [len(pending)]leftovers
	for r := range left {
		left[r] = leftovers{set: pending[r], cur: newRankCursor(c.queue, uint64(r))}
		left[r].seek(0)
	}
	for {
		l := &left[0]
		for k := 1; k < len(left); k++ {
			if left[k].pos < l.pos {
				l = &left[k]
			}
		}
		if l.pos == noPos {
			return
		}
		c.add(l.vpn)
		l.seek(l.rank + 1)
	}
}

// leftovers walks one residue's pending pages in mapping order.
type leftovers struct {
	set       []uint64
	cur       rankCursor
	rank, pos uint64 // the current page's rank and queue position, or pos noPos past the last
	vpn       addr.VPN
}

const noPos = ^uint64(0)

// seek moves to the first pending page of rank from or above.
func (l *leftovers) seek(from uint64) {
	rank, ok := bitset.NextSet(l.set, from)
	if !ok {
		l.pos = noPos
		return
	}
	l.rank = rank
	l.pos, l.vpn = l.cur.page(rank)
}

// rankCursor finds the queued pages of residue r by their rank among
// them, for ranks asked in increasing order.
type rankCursor struct {
	queue []cuckooRun
	r     uint64
	run   int    // the queue run holding the last rank asked
	k, n  uint64 // that run's residue span (residueSpan)
	rank  uint64 // the rank of the span's first page
	pos   uint64 // the queue position of the run's first page
}

func newRankCursor(queue []cuckooRun, r uint64) rankCursor {
	k, n := residueSpan(queue[0], r)
	return rankCursor{queue: queue, r: r, k: k, n: n}
}

// page returns the queue position and VPN of the page of rank j.
func (rc *rankCursor) page(j uint64) (pos uint64, vpn addr.VPN) {
	for j >= rc.rank+rc.n {
		rc.rank += rc.n
		rc.pos += rc.queue[rc.run].n
		rc.run++
		rc.k, rc.n = residueSpan(rc.queue[rc.run], rc.r)
	}
	k := rc.k + uint64(len(cuckooSalts))*(j-rc.rank)
	return rc.pos + k, rc.queue[rc.run].vpn + addr.VPN(k)
}

// grow doubles way, which is not resizing, until it has size slots, in
// one sequential pass: it appends the segments and the new frames, and
// moves each tag from slot i to its slot in the grown table, i plus a
// multiple of the old size. Those slots lie past the old table, and no
// two tags share one, since their old slots differ.
func (c *Cuckoo) grow(way *cuckooWay, size int) {
	old := way.size
	if old >= size {
		return
	}
	for s := old; s < size; s *= 2 {
		way.segs = append(way.segs, make([]uint32, s))
		c.stats.Resizes++
	}
	occ := make([]uint64, bitset.WordsFor(uint64(size)))
	copy(occ, way.occ)
	way.occ = occ
	frames := c.allocFrames(size)
	for w, word := range occ[:old/64] {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			c.stats.Migrated++
			vpn := way.tag(i)
			dst := way.hash(vpn) & (size - 1)
			if dst == i {
				continue
			}
			bitset.ClearBit(occ, uint64(i))
			bitset.SetBit(occ, uint64(dst))
			way.setTag(dst, vpn)
		}
	}
	for _, f := range way.frames {
		c.alloc.Free(f.Page())
	}
	way.frames = frames
	way.size = size
	way.resizeAt = resizeLimit(size)
}

// insert places vpn's tag using cuckoo displacement and returns the way
// whose count grew. attempts bounds forced-resize recursion.
func (c *Cuckoo) insert(vpn addr.VPN, attempts int) *cuckooWay {
	if attempts > 8 {
		panic("pagetable: cuckoo insertion failed after repeated resizes")
	}
	w := int(uint64(vpn) % uint64(len(c.ways)))
	const maxKicks = 32
	for kick := 0; kick < maxKicks; kick++ {
		way := &c.ways[w]
		idx := way.probe(vpn)
		if bitset.SetBit(way.occ, uint64(idx)) {
			way.setTag(idx, vpn)
			way.count++
			return way
		}
		// Displace the occupant and move it to the next way.
		old := way.tag(idx)
		way.setTag(idx, vpn)
		vpn = old
		c.stats.Kicks++
		if w++; w == len(c.ways) {
			w = 0
		}
	}
	// Displacement path exhausted: force a resize of the fullest way
	// and retry with the still-homeless entry.
	c.forceResize()
	c.advanceMigrations()
	return c.insert(vpn, attempts+1)
}

// MapHuge implements Table. The ECH design keeps separate per-page-size
// hash tables; this reproduction pairs the Huge Page mechanism with the
// radix table instead, so huge mappings are not supported here.
func (c *Cuckoo) MapHuge(vpn addr.VPN, base addr.PFN) {
	panic("pagetable: cuckoo table does not support huge mappings (use Radix.MapHuge)")
}

// Unmap implements Table.
func (c *Cuckoo) Unmap(vpn addr.VPN) (Entry, bool) {
	c.settle()
	e, ok := c.frames.unmap(vpn)
	if !ok {
		return Entry{}, false
	}
	for i := range c.ways {
		way := &c.ways[i]
		if idx, ok := way.holds(vpn); ok {
			bitset.ClearBit(way.occ, uint64(idx))
			way.count--
			c.count--
			return e, true
		}
	}
	panic("pagetable: cuckoo store maps a VPN no slot holds")
}

// maybeResize begins a gradual resize of way, the one an insert just
// grew, if its load factor crossed the threshold. No other way's count
// changed, and a way that finishes migrating is below its new, doubled
// threshold: it gains at most one entry per cuckooMigrateStep slots
// migrated, from at most cuckooThreshold x size.
func (c *Cuckoo) maybeResize(way *cuckooWay) {
	if !way.resizing && way.count > way.resizeAt {
		c.beginResize(way)
	}
}

// forceResize doubles the fullest non-resizing way (insertion pressure
// relief when displacement fails).
func (c *Cuckoo) forceResize() {
	var target *cuckooWay
	best := -1.0
	for i := range c.ways {
		way := &c.ways[i]
		if way.resizing {
			continue
		}
		lf := float64(way.count) / float64(way.size)
		if lf > best {
			best, target = lf, way
		}
	}
	if target == nil {
		// Every way is already resizing; push all migrations to
		// completion to free up space.
		for i := range c.ways {
			way := &c.ways[i]
			for way.resizing {
				c.migrate(way, way.size)
			}
		}
		return
	}
	c.beginResize(target)
}

// beginResize appends the segment [size, 2*size) and widens the
// occupancy bitmap to match; only the bitmap, at most 1/64 of the
// tags, is copied.
func (c *Cuckoo) beginResize(way *cuckooWay) {
	way.resizing = true
	way.segs = append(way.segs, make([]uint32, way.size))
	occ := make([]uint64, bitset.WordsFor(uint64(2*way.size)))
	copy(occ, way.occ)
	way.occ = occ
	way.newFrames = c.allocFrames(2 * way.size)
	way.migPtr = 0
	c.stats.Resizes++
}

// advanceMigrations moves cuckooMigrateStep entries per resizing way.
func (c *Cuckoo) advanceMigrations() {
	for i := range c.ways {
		way := &c.ways[i]
		if way.resizing {
			c.migrate(way, cuckooMigrateStep)
		}
	}
}

// migrate rehashes up to n old-table slots of way into its new table.
// Slot i's entry goes to slot i + hash&size: it stays, or moves up by
// size.
//
// Slot i+size is always free. The only other entries in that half
// were placed there by probe, which sends a key to the new table only
// when its old slot is below migPtr. migPtr only grows, so none of
// them has old slot i.
func (c *Cuckoo) migrate(way *cuckooWay, n int) {
	end := min(way.migPtr+n, way.size)
	for lo := way.migPtr; lo < end; {
		// Visit the occupied slots of [lo, end) in lo's bitmap word.
		hi := min(end, (lo|63)+1)
		word := way.occ[lo>>6] >> (lo & 63)
		if hi-lo < 64 {
			word &= 1<<(hi-lo) - 1
		}
		for ; word != 0; word &= word - 1 {
			i := lo + bits.TrailingZeros64(word)
			c.stats.Migrated++
			vpn := way.tag(i)
			dst := i + way.hash(vpn)&way.size
			if dst == i {
				continue // the tag stays
			}
			bitset.ClearBit(way.occ, uint64(i))
			if !bitset.SetBit(way.occ, uint64(dst)) {
				panic("pagetable: cuckoo migration target slot occupied")
			}
			way.setTag(dst, vpn)
		}
		lo = hi
	}
	way.migPtr = end
	if end == way.size {
		// Migration complete: retire the old table's frames.
		for _, f := range way.frames {
			c.alloc.Free(f.Page())
		}
		way.frames, way.newFrames = way.newFrames, nil
		way.size *= 2
		way.migPtr = 0
		way.resizing = false
		way.resizeAt = resizeLimit(way.size)
	}
}

// capacity is the way's modelled slot count: both tables while it
// resizes.
func (way *cuckooWay) capacity() int {
	if way.resizing {
		return 3 * way.size
	}
	return way.size
}

// Occupancy implements Table: one pseudo-level row describing overall
// hash-table load.
func (c *Cuckoo) Occupancy() []LevelOccupancy {
	c.settle()
	var capacity uint64
	for i := range c.ways {
		capacity += uint64(c.ways[i].capacity())
	}
	return []LevelOccupancy{{
		Level:       HashLevel,
		Nodes:       uint64(len(c.ways)),
		EntriesUsed: c.count,
		Capacity:    capacity,
	}}
}

// MappedPages implements Table.
func (c *Cuckoo) MappedPages() uint64 {
	c.settle()
	return c.count
}

// MetadataBytes implements Table: the host memory every way holds (its
// 4-byte tags, 2*size slots while it resizes, its occupancy bitmap, and
// the frame directories of both tables), plus the frame store.
func (c *Cuckoo) MetadataBytes() uint64 {
	c.settle()
	total := c.frames.bytes()
	for i := range c.ways {
		way := &c.ways[i]
		total += uint64(len(way.occ)+len(way.frames)+len(way.newFrames)) * 8
		for _, s := range way.segs {
			total += uint64(len(s)) * 4
		}
	}
	return total
}

// String summarizes the table state.
func (c *Cuckoo) String() string {
	c.settle()
	return fmt.Sprintf("cuckoo{d=%d, entries=%d, resizes=%d}", len(c.ways), c.count, c.stats.Resizes)
}
