// Package assoc implements the generic set-associative, LRU-replaced
// lookup structure that underlies every tagged hardware array in the
// simulator: data caches, TLBs, and page-walk caches.
//
// Keys are uint64 tags chosen by the caller (cache-line numbers, virtual
// page numbers, walk prefixes). The set index is taken from the low bits
// of the key after a mixing step, so callers may pass keys with poor
// low-bit entropy.
//
// The storage is structure-of-arrays: tags and values live in two
// parallel set-major slices, and each set keeps two packed words side by
// side — an occupancy bitmask and a recency order. Lookup scans a dense
// run of bare uint64 tags instead of striding over full entry structs.
// Validity lives in the occupancy word, so invalid ways cost a bit test,
// and the free-way probe is a single trailing-zeros instruction.
//
// Replacement is exact true LRU with O(1) bookkeeping. The recency word
// holds the set's way numbers as 4-bit nibbles ordered from most to
// least recently used, so the victim is the last nibble, and promoting a
// way is a handful of branch-free bit operations: locate its nibble with
// the zero-nibble trick, shift the more recent nibbles down one place,
// and write the way at the front. Every fill and every promoting hit
// moves its way to the front and nothing else reorders the word, so the
// last nibble is always the way least recently filled or promoted —
// the same way a per-way timestamp scan would pick. One nibble per way
// in one word bounds associativity at 16. Free-way choice (lowest
// invalid way), Peek/Update (no promotion) and Range order (set-major,
// way order) do not depend on the recency word.
package assoc

import "math/bits"

// maxWays is the largest supported associativity: a set's recency order
// packs one 4-bit way number per way into a single word.
const maxWays = 16

// Table is a set-associative array mapping uint64 keys to values of type V
// with true-LRU replacement within each set.
type Table[V any] struct {
	sets int
	ways int
	mask uint64
	// Parallel set-major arrays, sets*ways entries each: way w of set s
	// is index s*ways+w in both. A tag or value is meaningful only while
	// the way's occupancy bit is set; clearing the bit is the only
	// invalidation (stale tags never match because the bit gates them).
	tags []uint64
	vals []V
	meta []setMeta
}

// setMeta is one set's packed bookkeeping.
type setMeta struct {
	occ uint64 // bit w = way w valid
	// order lists every way number of the set, one nibble each, from
	// most recently used (nibble 0) to least (nibble ways-1). Nibbles at
	// and above ways are zero.
	order uint64
}

// Nibble-parallel constants for the zero-nibble search.
const (
	nibbleOnes = 0x1111111111111111
	nibbleHigh = 0x8888888888888888
)

// New creates a table with the given number of sets (must be a power of
// two, >= 1) and ways (1..16).
func New[V any](sets, ways int) *Table[V] {
	if sets < 1 || sets&(sets-1) != 0 {
		panic("assoc: sets must be a positive power of two")
	}
	if ways < 1 || ways > maxWays {
		panic("assoc: ways must be in 1..16")
	}
	// Any permutation is a valid starting order: a set only evicts once
	// every way has been filled, and each fill moves its way to the front.
	var identity uint64
	for w := ways - 1; w >= 0; w-- {
		identity = identity<<4 | uint64(w)
	}
	meta := make([]setMeta, sets)
	for i := range meta {
		meta[i].order = identity
	}
	return &Table[V]{
		sets: sets,
		ways: ways,
		mask: uint64(sets - 1),
		tags: make([]uint64, sets*ways),
		vals: make([]V, sets*ways),
		meta: meta,
	}
}

// Sets returns the number of sets.
func (t *Table[V]) Sets() int { return t.sets }

// Ways returns the associativity.
func (t *Table[V]) Ways() int { return t.ways }

// Capacity returns sets*ways.
func (t *Table[V]) Capacity() int { return t.sets * t.ways }

// mix spreads key entropy into the set-index bits. Fibonacci hashing; keys
// such as sequential VPNs stay conflict-free, pathological strides do not
// all land in one set.
func mix(key uint64) uint64 {
	return key * 0x9e3779b97f4a7c15 >> 17
}

// find returns the set of key and the way holding it (-1 if absent).
// The tag scan runs over the dense tag run for the set; the occupancy
// bit gates stale tags.
func (t *Table[V]) find(key uint64) (s, way int) {
	s = int(mix(key) & t.mask)
	base := s * t.ways
	occ := t.meta[s].occ
	for w, tag := range t.tags[base : base+t.ways] {
		if tag == key && occ&(1<<uint(w)) != 0 {
			return s, w
		}
	}
	return s, -1
}

// touch moves way w of the set to the front of its recency order.
func (m *setMeta) touch(w int) {
	// XOR zeroes exactly the nibble holding w among the first ways
	// nibbles (the unused high nibbles may also become zero, but they sit
	// above it). The lowest flagged nibble of the zero-nibble test is
	// exact, so its position p is w's rank.
	x := m.order ^ uint64(w)*nibbleOnes
	z := (x - nibbleOnes) &^ x & nibbleHigh
	p4 := uint(bits.TrailingZeros64(z)) &^ 3 // 4*p
	below := uint64(1)<<p4 - 1               // nibbles more recent than w
	upto := below<<4 | 0xF                   // ... and w's own nibble
	m.order = m.order&^upto | (m.order&below)<<4 | uint64(w)
}

// Ref finds key, promoting it to most-recently-used, and returns a
// pointer to its value, or nil if the key is absent. The pointer is
// valid until the next Insert, Invalidate or Flush.
func (t *Table[V]) Ref(key uint64) *V {
	s, w := t.find(key)
	if w < 0 {
		return nil
	}
	t.meta[s].touch(w)
	return &t.vals[s*t.ways+w]
}

// Lookup finds key, promoting it to most-recently-used. The second result
// reports whether the key was present.
func (t *Table[V]) Lookup(key uint64) (V, bool) {
	if p := t.Ref(key); p != nil {
		return *p, true
	}
	var zero V
	return zero, false
}

// Peek finds key without updating recency.
func (t *Table[V]) Peek(key uint64) (V, bool) {
	if s, w := t.find(key); w >= 0 {
		return t.vals[s*t.ways+w], true
	}
	var zero V
	return zero, false
}

// Update replaces the value of an existing key without changing recency.
// It reports whether the key was present.
func (t *Table[V]) Update(key uint64, v V) bool {
	if s, w := t.find(key); w >= 0 {
		t.vals[s*t.ways+w] = v
		return true
	}
	return false
}

// Insert adds key with value v, evicting the LRU entry of the set if it is
// full. If the key is already present its value is replaced and promoted.
// The eviction results report what was displaced, so caches can model
// dirty write-backs.
func (t *Table[V]) Insert(key uint64, v V) (evictedKey uint64, evictedVal V, evicted bool) {
	s, w := t.find(key)
	m := &t.meta[s]
	base := s * t.ways
	// Hit: replace in place.
	if w >= 0 {
		t.vals[base+w] = v
		m.touch(w)
		return 0, evictedVal, false
	}
	// Free way: the lowest invalid one.
	if w := bits.TrailingZeros64(^m.occ); w < t.ways {
		t.tags[base+w] = key
		t.vals[base+w] = v
		m.occ |= 1 << uint(w)
		m.touch(w)
		return 0, evictedVal, false
	}
	// Evict LRU (every way is valid here): the last nibble. Moving it to
	// the front is a one-nibble rotation of the order.
	top := uint(t.ways-1) * 4
	victim := int(m.order >> top & 0xF)
	m.order = (m.order<<4 | uint64(victim)) & (uint64(1)<<(top+4) - 1)
	i := base + victim
	evictedKey, evictedVal = t.tags[i], t.vals[i]
	t.tags[i] = key
	t.vals[i] = v
	return evictedKey, evictedVal, true
}

// Invalidate removes key, reporting whether it was present.
func (t *Table[V]) Invalidate(key uint64) bool {
	if s, w := t.find(key); w >= 0 {
		t.meta[s].occ &^= 1 << uint(w)
		return true
	}
	return false
}

// Flush removes every entry.
func (t *Table[V]) Flush() {
	for i := range t.meta {
		t.meta[i].occ = 0
	}
}

// Len returns the number of valid entries.
func (t *Table[V]) Len() int {
	n := 0
	for i := range t.meta {
		n += bits.OnesCount64(t.meta[i].occ)
	}
	return n
}

// Range calls fn for every valid entry; if fn returns false iteration
// stops. Iteration order is internal array order (deterministic).
func (t *Table[V]) Range(fn func(key uint64, v V) bool) {
	for s := 0; s < t.sets; s++ {
		occ := t.meta[s].occ
		if occ == 0 {
			continue
		}
		base := s * t.ways
		for w := 0; w < t.ways; w++ {
			if occ&(1<<uint(w)) != 0 && !fn(t.tags[base+w], t.vals[base+w]) {
				return
			}
		}
	}
}
