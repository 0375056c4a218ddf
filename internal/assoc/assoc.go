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
// parallel set-major slices, and each set keeps packed words beside
// them — a fingerprint word per 8 ways and a recency order. Byte w of a
// fingerprint word is 0x80 plus 7 bits of the key's hash while way w is
// valid, and zero while it is invalid. Lookup matches all eight bytes of
// a word at once (SWAR, as Go's own map matches its control bytes) and
// compares full tags only for the flagged ways, so a miss usually loads
// no tag at all. The free-way probe is a trailing-zeros instruction over
// the bytes whose high bit is clear.
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
// invalid way) and Peek/Update (no promotion) do not depend on the
// recency word.
package assoc

import "math/bits"

// maxWays is the largest supported associativity: a set's recency order
// packs one 4-bit way number per way into a single word.
const maxWays = 16

// Table is a set-associative array mapping uint64 keys to values of type V
// with true-LRU replacement within each set.
type Table[V any] struct {
	ways int
	mask uint64
	// Parallel set-major arrays, sets*ways entries each: way w of set s
	// is index s*ways+w in both. A tag or value is meaningful only while
	// the way's fingerprint byte is nonzero; zeroing the byte is the only
	// invalidation (stale tags never match because no zero byte is
	// flagged).
	tags []uint64
	vals []V
	meta []setMeta
	// hi holds each set's fingerprint word for ways 8..15, laid out as
	// setMeta.fp is for ways 0..7. It is nil in tables of at most 8 ways.
	hi []uint64
}

// setMeta is one set's packed bookkeeping.
type setMeta struct {
	// fp holds one byte per way 0..7: 0x80|fingerprint while the way is
	// valid, 0 while it is invalid. Bytes at and above ways are zero.
	fp uint64
	// order lists every way number of the set, one nibble each, from
	// most recently used (nibble 0) to least (nibble ways-1). Nibbles at
	// and above ways are zero.
	order uint64
}

// Nibble- and byte-parallel constants for the zero-nibble and zero-byte
// searches.
const (
	nibbleOnes = 0x1111111111111111
	nibbleHigh = 0x8888888888888888
	byteOnes   = 0x0101010101010101
	byteHigh   = 0x8080808080808080
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
	t := &Table[V]{
		ways: ways,
		mask: uint64(sets - 1),
		tags: make([]uint64, sets*ways),
		vals: make([]V, sets*ways),
		meta: meta,
	}
	if ways > 8 {
		t.hi = make([]uint64, sets)
	}
	return t
}

// golden is 2^64 divided by the golden ratio. A key's hash is the key
// times golden (Fibonacci hashing), which spreads key entropy into the
// high bits of the product: keys such as sequential VPNs stay
// conflict-free, and pathological strides do not all land in one set.
// The set index is the hash's bits 17 and up, masked to the set count.
const golden = 0x9e3779b97f4a7c15

// fpByte returns the fingerprint byte of a key with hash h: the valid
// bit 0x80 over the hash's top 7 bits, which lie clear of the set index
// bits for up to 2^40 sets.
func fpByte(h uint64) uint64 { return 0x80 | h>>57 }

// match flags (bit 7 of byte w) every byte of fingerprint word fp that
// equals fb. The lowest flag is exact; a higher one can be false, from a
// fingerprint collision or from the zero-byte test's borrow, so callers
// confirm each flagged way against its full tag. A zero (invalid) byte is
// never flagged: XORed with fb it keeps the high bit that the test masks
// out.
func match(fp, fb uint64) uint64 {
	x := fp ^ fb*byteOnes
	return (x - byteOnes) &^ x & byteHigh
}

// find returns the set of key and the way holding it among ways 0..7 (-1
// if absent there). One multiply yields both the set index and the
// fingerprint, and full tags are loaded only for the ways whose byte
// matches. In tables of more than 8 ways every caller continues a miss
// in findHi. Kept out of find, that search leaves find within the
// inliner's budget, as do spelling match out and assigning way rather
// than returning it.
func (t *Table[V]) find(key uint64) (s, way int) {
	h := key * golden
	s = int(h >> 17 & t.mask)
	x := t.meta[s].fp ^ fpByte(h)*byteOnes
	for z := (x - byteOnes) &^ x & byteHigh; z != 0; z &= z - 1 {
		way = bits.TrailingZeros64(z) >> 3
		if t.tags[s*t.ways+way] == key {
			return
		}
	}
	return s, -1
}

// findHi returns the way among 8..15 of set s holding key, or -1 if it
// is absent there. Only tables of more than 8 ways have those ways.
func (t *Table[V]) findHi(s int, key uint64) (way int) {
	for z := match(t.hi[s], fpByte(key*golden)); z != 0; z &= z - 1 {
		way = 8 + bits.TrailingZeros64(z)>>3
		if t.tags[s*t.ways+way] == key {
			return
		}
	}
	return -1
}

// setFP writes b (a fingerprint byte, or 0 to invalidate) as way w's
// byte of set s.
func (t *Table[V]) setFP(s, w int, b uint64) {
	p := &t.meta[s].fp
	if w >= 8 {
		p, w = &t.hi[s], w-8
	}
	sh := uint(w) * 8
	*p = *p&^(0xFF<<sh) | b<<sh
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
	if w < 0 && t.hi != nil {
		w = t.findHi(s, key)
	}
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
	s, w := t.find(key)
	if w < 0 && t.hi != nil {
		w = t.findHi(s, key)
	}
	if w >= 0 {
		return t.vals[s*t.ways+w], true
	}
	var zero V
	return zero, false
}

// Update replaces the value of an existing key without changing recency.
// It reports whether the key was present.
func (t *Table[V]) Update(key uint64, v V) bool {
	s, w := t.find(key)
	if w < 0 && t.hi != nil {
		w = t.findHi(s, key)
	}
	if w >= 0 {
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
	if w < 0 && t.hi != nil {
		w = t.findHi(s, key)
	}
	m := &t.meta[s]
	base := s * t.ways
	// Hit: replace in place.
	if w >= 0 {
		t.vals[base+w] = v
		m.touch(w)
		return 0, evictedVal, false
	}
	fb := fpByte(key * golden)
	// Free way: the lowest invalid one, whose byte has its high bit clear
	// (bytes at and above ways are zero too, hence the bound).
	w = bits.TrailingZeros64(^m.fp&byteHigh) >> 3
	if w == 8 && t.hi != nil {
		w += bits.TrailingZeros64(^t.hi[s]&byteHigh) >> 3
	}
	if w < t.ways {
		t.tags[base+w] = key
		t.vals[base+w] = v
		t.setFP(s, w, fb)
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
	t.setFP(s, victim, fb)
	return evictedKey, evictedVal, true
}

// Invalidate removes key, reporting whether it was present.
func (t *Table[V]) Invalidate(key uint64) bool {
	s, w := t.find(key)
	if w < 0 && t.hi != nil {
		w = t.findHi(s, key)
	}
	if w >= 0 {
		t.setFP(s, w, 0)
		return true
	}
	return false
}

// Flush removes every entry.
func (t *Table[V]) Flush() {
	for i := range t.meta {
		t.meta[i].fp = 0
	}
	clear(t.hi)
}

// Len returns the number of valid entries: the set high bits of the
// fingerprint words.
func (t *Table[V]) Len() int {
	n := 0
	for i := range t.meta {
		n += bits.OnesCount64(t.meta[i].fp & byteHigh)
	}
	for _, fp := range t.hi {
		n += bits.OnesCount64(fp & byteHigh)
	}
	return n
}
