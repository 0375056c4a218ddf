package pagetable

import (
	"fmt"

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
// lookup still needs exactly one probe per way during resizing.
type Cuckoo struct {
	alloc *phys.Allocator
	ways  [len(cuckooSalts)]cuckooWay
	count uint64
	// frames holds the frame of every entry the slots tag, so a slot
	// need hold only its VPN tag, and Lookup, Present, and Map's remap
	// check read one store record instead of probing d slots.
	frames frameStore

	stats CuckooStats
}

// CuckooStats counts structural events.
type CuckooStats struct {
	Inserts  uint64
	Kicks    uint64 // displacement steps
	Resizes  uint64 // gradual resizes begun
	Migrated uint64 // entries moved during gradual resizes
}

// cuckooTab is one hash table (a way's old or new array during gradual
// resizing): the VPN tag of each slot, their occupancy bitmap, and the
// backing frames. The host slot is just the tag placement compares;
// the PFN lives in Cuckoo.frames. The modelled PTE is slotBytes wide
// regardless, and only it decides the slots' physical addresses.
type cuckooTab struct {
	tags   []addr.VPN
	occ    []uint64 // one bit per slot
	frames []addr.P // one frame per slotsPerFrame slots
}

// full reports whether slot i holds an entry.
func (t *cuckooTab) full(i int) bool { return bitset.TestBit(t.occ, uint64(i)) }

type cuckooWay struct {
	cuckooTab
	salt  uint64
	count int
	// resizeAt is the count above which the way begins a gradual
	// resize: cuckooThreshold x len(tags), precomputed per table size.
	resizeAt int

	// resize state
	resizing bool
	newTab   cuckooTab
	migPtr   int
}

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
		c.ways[i] = cuckooWay{cuckooTab: c.newTab(size), salt: salt, resizeAt: resizeLimit(size)}
	}
	return c
}

// Kind implements Table.
func (c *Cuckoo) Kind() string { return "cuckoo" }

// Stats returns a copy of the structural counters.
func (c *Cuckoo) Stats() CuckooStats { return c.stats }

// newTab builds one hash table of size slots.
func (c *Cuckoo) newTab(size int) cuckooTab {
	return cuckooTab{
		tags:   make([]addr.VPN, size),
		occ:    make([]uint64, bitset.WordsFor(uint64(size))),
		frames: c.allocFrames(size),
	}
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

// slotPA returns the physical address of slot i given the backing frames.
func slotPA(frames []addr.P, i int) addr.P {
	return frames[i/slotsPerFrame] + addr.P((i%slotsPerFrame)*slotBytes)
}

// probe resolves where a lookup for vpn lands in the way: the table
// (old, or new during gradual resizing) and the slot index. Both
// tables index by the same hash, the new one by one more bit.
func (way *cuckooWay) probe(vpn addr.VPN) (*cuckooTab, int) {
	h := way.hash(vpn)
	if i := h & (len(way.tags) - 1); !way.resizing || i >= way.migPtr {
		return &way.cuckooTab, i
	}
	return &way.newTab, h & (len(way.newTab.tags) - 1)
}

// holds reports whether the way's probe slot for vpn carries its tag,
// and where that slot is.
func (way *cuckooWay) holds(vpn addr.VPN) (tab *cuckooTab, idx int, ok bool) {
	tab, idx = way.probe(vpn)
	return tab, idx, tab.full(idx) && tab.tags[idx] == vpn
}

// Lookup implements Table.
func (c *Cuckoo) Lookup(vpn addr.VPN) (Entry, bool) { return c.frames.lookup(vpn) }

// Present implements Table: the demand-paging fast predicate, one store
// read.
func (c *Cuckoo) Present(vpn addr.VPN) bool { return c.frames.present(vpn) }

// WalkInto implements Table: d parallel probes, one per way.
func (c *Cuckoo) WalkInto(v addr.V, w *Walk) {
	w.Reset()
	vpn := v.Page()
	// Read the frame first: its load then overlaps the tag probes'.
	e, _ := c.frames.lookup(vpn)
	for i := range c.ways {
		tab, idx, ok := c.ways[i].holds(vpn)
		w.Par = append(w.Par, Access{HashLevel, slotPA(tab.frames, idx)})
		if ok {
			w.Found = true
			w.FoundIdx = i
			w.Entry = e
		}
	}
}

// Map implements Table.
func (c *Cuckoo) Map(vpn addr.VPN, pfn addr.PFN) { c.MapRange(vpn, 1, pfn) }

// MapRange implements Table. Frames go into the store a chunk at a
// time; then every page the chunk did not hold before gets a tag, in
// page order. A remapped page needs none: its slot holds only the tag.
// Placement never reads the store, so this places exactly as mapping
// page by page would.
func (c *Cuckoo) MapRange(vpn addr.VPN, count uint64, base addr.PFN) {
	for count > 0 {
		_, i := chunkOf(vpn)
		n := min(addr.EntriesPerTable-i, count)
		was := c.frames.presentMap(vpn)
		c.frames.mapRange(vpn, n, base)
		for k := uint64(0); k < n; k++ {
			c.stats.Inserts++
			if bitset.TestBit(was[:], i+k) {
				continue
			}
			c.advanceMigrations()
			c.insert(vpn+addr.VPN(k), 0)
			c.count++
			c.maybeResize()
		}
		vpn += addr.VPN(n)
		base += addr.PFN(n)
		count -= n
	}
}

// insert places vpn's tag using cuckoo displacement. attempts bounds
// forced-resize recursion.
func (c *Cuckoo) insert(vpn addr.VPN, attempts int) {
	if attempts > 8 {
		panic("pagetable: cuckoo insertion failed after repeated resizes")
	}
	w := int(uint64(vpn) % uint64(len(c.ways)))
	const maxKicks = 32
	for kick := 0; kick < maxKicks; kick++ {
		way := &c.ways[w]
		tab, idx := way.probe(vpn)
		if bitset.SetBit(tab.occ, uint64(idx)) {
			tab.tags[idx] = vpn
			way.count++
			return
		}
		// Displace the occupant and move it to the next way.
		tab.tags[idx], vpn = vpn, tab.tags[idx]
		c.stats.Kicks++
		if w++; w == len(c.ways) {
			w = 0
		}
	}
	// Displacement path exhausted: force a resize of the fullest way
	// and retry with the still-homeless entry.
	c.forceResize()
	c.advanceMigrations()
	c.insert(vpn, attempts+1)
}

// MapHuge implements Table. The ECH design keeps separate per-page-size
// hash tables; this reproduction pairs the Huge Page mechanism with the
// radix table instead, so huge mappings are not supported here.
func (c *Cuckoo) MapHuge(vpn addr.VPN, base addr.PFN) {
	panic("pagetable: cuckoo table does not support huge mappings (use Radix.MapHuge)")
}

// Unmap implements Table.
func (c *Cuckoo) Unmap(vpn addr.VPN) (Entry, bool) {
	e, ok := c.frames.unmap(vpn)
	if !ok {
		return Entry{}, false
	}
	for i := range c.ways {
		way := &c.ways[i]
		if tab, idx, ok := way.holds(vpn); ok {
			bitset.ClearBit(tab.occ, uint64(idx))
			way.count--
			c.count--
			return e, true
		}
	}
	panic("pagetable: cuckoo store maps a VPN no slot holds")
}

// maybeResize begins a gradual resize of any way whose load factor
// crossed the threshold.
func (c *Cuckoo) maybeResize() {
	for i := range c.ways {
		way := &c.ways[i]
		if !way.resizing && way.count > way.resizeAt {
			c.beginResize(way)
		}
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
		lf := float64(way.count) / float64(len(way.tags))
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
				c.migrate(way, len(way.tags))
			}
		}
		return
	}
	c.beginResize(target)
}

func (c *Cuckoo) beginResize(way *cuckooWay) {
	way.resizing = true
	way.newTab = c.newTab(2 * len(way.tags))
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
//
// The target slot is always free. An entry in old slot i moves to a
// new slot whose low bits are i. The only other entries in the new
// table were placed there by probe, which sends a key to the new table
// only when its old slot is below migPtr. migPtr only grows, so none of
// them has old slot i.
func (c *Cuckoo) migrate(way *cuckooWay, n int) {
	for i := 0; i < n && way.migPtr < len(way.tags); i++ {
		i0 := way.migPtr
		way.migPtr++
		if !way.full(i0) {
			continue
		}
		vpn := way.tags[i0]
		hNew := way.hash(vpn) & (len(way.newTab.tags) - 1)
		if !bitset.SetBit(way.newTab.occ, uint64(hNew)) {
			panic("pagetable: cuckoo migration target slot occupied")
		}
		way.newTab.tags[hNew] = vpn
		c.stats.Migrated++
	}
	if way.migPtr >= len(way.tags) {
		// Migration complete: retire the old table.
		for _, f := range way.frames {
			c.alloc.Free(f.Page())
		}
		way.cuckooTab = way.newTab
		way.newTab = cuckooTab{}
		way.resizing = false
		way.resizeAt = resizeLimit(len(way.tags))
	}
}

// Occupancy implements Table: one pseudo-level row describing overall
// hash-table load.
func (c *Cuckoo) Occupancy() []LevelOccupancy {
	var capacity uint64
	for i := range c.ways {
		way := &c.ways[i]
		capacity += uint64(len(way.tags))
		if way.resizing {
			capacity += uint64(len(way.newTab.tags))
		}
	}
	return []LevelOccupancy{{
		Level:       HashLevel,
		Nodes:       uint64(len(c.ways)),
		EntriesUsed: c.count,
		Capacity:    capacity,
	}}
}

// MappedPages implements Table.
func (c *Cuckoo) MappedPages() uint64 { return c.count }

// MetadataBytes implements Table: the tag arrays, their occupancy
// bitmaps, and backing-frame directories of every way (old and new
// tables both, during gradual resizing), plus the frame store.
func (c *Cuckoo) MetadataBytes() uint64 {
	tab := func(t *cuckooTab) uint64 {
		return uint64(len(t.tags)+len(t.occ)+len(t.frames)) * 8
	}
	total := c.frames.bytes()
	for i := range c.ways {
		way := &c.ways[i]
		total += tab(&way.cuckooTab)
		if way.resizing {
			total += tab(&way.newTab)
		}
	}
	return total
}

// LoadFactors returns the per-way load factors, for tests and reports.
func (c *Cuckoo) LoadFactors() []float64 {
	out := make([]float64, len(c.ways))
	for i := range c.ways {
		way := &c.ways[i]
		size := len(way.tags)
		if way.resizing {
			size += len(way.newTab.tags)
		}
		out[i] = float64(way.count) / float64(size)
	}
	return out
}

// String summarizes the table state.
func (c *Cuckoo) String() string {
	return fmt.Sprintf("cuckoo{d=%d, entries=%d, resizes=%d}", len(c.ways), c.count, c.stats.Resizes)
}
