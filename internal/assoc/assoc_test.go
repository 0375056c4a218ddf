package assoc

import (
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"
)

// rangeAll calls fn for every valid entry in array order (set-major,
// way order within a set) until fn returns false: the content walk the
// differential tests diff against refTable.rangeAll.
func (t *Table[V]) rangeAll(fn func(key uint64, v V) bool) {
	for s := range t.meta {
		base := s * t.ways
		if !t.rangeWord(t.meta[s].fp, base, fn) ||
			t.hi != nil && !t.rangeWord(t.hi[s], base+8, fn) {
			return
		}
	}
}

// rangeWord calls fn for each valid way of fingerprint word fp, in way
// order, where the word's way 0 is index base of tags and vals. It
// reports whether fn asked to go on.
func (t *Table[V]) rangeWord(fp uint64, base int, fn func(key uint64, v V) bool) bool {
	for z := fp & byteHigh; z != 0; z &= z - 1 {
		i := base + bits.TrailingZeros64(z)>>3
		if !fn(t.tags[i], t.vals[i]) {
			return false
		}
	}
	return true
}

func TestNewValidation(t *testing.T) {
	for _, bad := range []struct{ sets, ways int }{{0, 1}, {3, 1}, {4, 0}, {-4, 2}, {4, 17}, {1, 64}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", bad.sets, bad.ways)
				}
			}()
			New[int](bad.sets, bad.ways)
		}()
	}
	tab := New[int](8, 2)
	if len(tab.meta) != 8 || tab.ways != 2 || len(tab.tags) != 16 || len(tab.vals) != 16 {
		t.Error("geometry wrong")
	}
}

func TestLookupInsert(t *testing.T) {
	tab := New[string](4, 2)
	if _, ok := tab.Lookup(1); ok {
		t.Fatal("lookup in empty table hit")
	}
	tab.Insert(1, "one")
	v, ok := tab.Lookup(1)
	if !ok || v != "one" {
		t.Fatalf("Lookup(1) = %q, %v", v, ok)
	}
	// Replace in place.
	tab.Insert(1, "uno")
	if v, _ := tab.Lookup(1); v != "uno" {
		t.Fatalf("after replace: %q", v)
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tab.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	// Fully-associative (1 set) makes LRU order easy to check.
	tab := New[int](1, 2)
	tab.Insert(10, 1)
	tab.Insert(20, 2)
	tab.Lookup(10) // promote 10; 20 becomes LRU
	k, v, evicted := tab.Insert(30, 3)
	if !evicted || k != 20 || v != 2 {
		t.Fatalf("evicted (%d,%d,%v), want (20,2,true)", k, v, evicted)
	}
	if _, ok := tab.Lookup(10); !ok {
		t.Error("promoted entry 10 was evicted")
	}
	if _, ok := tab.Lookup(20); ok {
		t.Error("LRU entry 20 still present")
	}
}

func TestPeekDoesNotPromote(t *testing.T) {
	tab := New[int](1, 2)
	tab.Insert(1, 1)
	tab.Insert(2, 2)
	tab.Peek(1) // must NOT promote 1
	_, _, evicted := tab.Insert(3, 3)
	if !evicted {
		t.Fatal("expected eviction")
	}
	if _, ok := tab.Peek(1); ok {
		t.Error("1 should have been evicted (Peek must not promote)")
	}
	if _, ok := tab.Peek(2); !ok {
		t.Error("2 should have survived")
	}
}

func TestUpdate(t *testing.T) {
	tab := New[int](1, 2)
	tab.Insert(1, 1)
	tab.Insert(2, 2)
	if !tab.Update(1, 100) {
		t.Fatal("Update of present key failed")
	}
	if tab.Update(99, 0) {
		t.Fatal("Update of absent key succeeded")
	}
	// Update must not promote: 1 is still LRU.
	_, _, _ = tab.Insert(3, 3)
	if _, ok := tab.Peek(1); ok {
		t.Error("Update promoted key 1")
	}
	if v, ok := tab.Peek(2); !ok || v != 2 {
		t.Error("key 2 lost")
	}
}

func TestInvalidateAndFlush(t *testing.T) {
	tab := New[int](4, 2)
	tab.Insert(1, 1)
	tab.Insert(2, 2)
	if !tab.Invalidate(1) {
		t.Fatal("Invalidate of present key failed")
	}
	if tab.Invalidate(1) {
		t.Fatal("Invalidate of absent key succeeded")
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tab.Len())
	}
	tab.Flush()
	if tab.Len() != 0 {
		t.Fatal("Flush left entries")
	}
}

func TestRange(t *testing.T) {
	tab := New[int](4, 2)
	for k := uint64(0); k < 5; k++ {
		tab.Insert(k, int(k)*10)
	}
	sum := 0
	tab.rangeAll(func(k uint64, v int) bool {
		sum += v
		return true
	})
	if sum != 0+10+20+30+40 {
		t.Errorf("Range sum = %d", sum)
	}
	count := 0
	tab.rangeAll(func(k uint64, v int) bool {
		count++
		return false // early stop
	})
	if count != 1 {
		t.Errorf("early-stop Range visited %d entries", count)
	}
}

// Property: the table never holds more than capacity entries and a key
// inserted last in its set is always found.
func TestCapacityProperty(t *testing.T) {
	f := func(keys []uint64) bool {
		tab := New[uint64](4, 4)
		for _, k := range keys {
			tab.Insert(k, k)
			if v, ok := tab.Lookup(k); !ok || v != k {
				return false
			}
		}
		return tab.Len() <= len(tab.meta)*tab.ways
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: with unique keys not exceeding one set's ways, nothing is ever
// evicted from a fully-associative table until capacity is reached.
func TestNoPrematureEviction(t *testing.T) {
	tab := New[int](1, 8)
	for k := uint64(0); k < 8; k++ {
		if _, _, evicted := tab.Insert(k, 0); evicted {
			t.Fatalf("premature eviction at key %d", k)
		}
	}
	if _, _, evicted := tab.Insert(8, 0); !evicted {
		t.Fatal("insert beyond capacity did not evict")
	}
}

func TestSetDistribution(t *testing.T) {
	// Sequential keys must spread over sets, not collide in one.
	tab := New[int](64, 1)
	evictions := 0
	for k := uint64(0); k < 64; k++ {
		if _, _, ev := tab.Insert(k, 0); ev {
			evictions++
		}
	}
	// Perfect spreading would give 0; tolerate mild imbalance from mixing.
	if evictions > 24 {
		t.Errorf("sequential keys caused %d evictions in 64 sets", evictions)
	}
}

// refTable is the array-of-structs implementation with a global clock
// and a per-way LRU stamp, kept as the differential oracle: the packed
// table must make identical hit, free-way, victim, and content-order
// decisions for any operation mix, because table decisions feed
// simulated timing and the golden tests pin that timing bit for bit.
type refTable[V any] struct {
	ways  int
	mask  uint64
	lines []refLine[V]
	clock uint64
}

type refLine[V any] struct {
	key   uint64
	value V
	valid bool
	lru   uint64
}

// mix returns the bits of a key's hash that the set index is taken from.
func mix(key uint64) uint64 {
	return key * golden >> 17
}

func newRef[V any](sets, ways int) *refTable[V] {
	return &refTable[V]{ways: ways, mask: uint64(sets - 1), lines: make([]refLine[V], sets*ways)}
}

func (t *refTable[V]) set(key uint64) []refLine[V] {
	s := int(mix(key) & t.mask)
	return t.lines[s*t.ways : (s+1)*t.ways]
}

func (t *refTable[V]) find(key uint64) *refLine[V] {
	set := t.set(key)
	for i := range set {
		if set[i].valid && set[i].key == key {
			return &set[i]
		}
	}
	return nil
}

func (t *refTable[V]) Ref(key uint64) *V {
	l := t.find(key)
	if l == nil {
		return nil
	}
	t.clock++
	l.lru = t.clock
	return &l.value
}

func (t *refTable[V]) Lookup(key uint64) (V, bool) {
	if p := t.Ref(key); p != nil {
		return *p, true
	}
	var zero V
	return zero, false
}

func (t *refTable[V]) Peek(key uint64) (V, bool) {
	if l := t.find(key); l != nil {
		return l.value, true
	}
	var zero V
	return zero, false
}

func (t *refTable[V]) Update(key uint64, v V) bool {
	if l := t.find(key); l != nil {
		l.value = v
		return true
	}
	return false
}

func (t *refTable[V]) Insert(key uint64, v V) (uint64, V, bool) {
	var zeroV V
	set := t.set(key)
	t.clock++
	for i := range set {
		if set[i].valid && set[i].key == key {
			set[i].value = v
			set[i].lru = t.clock
			return 0, zeroV, false
		}
	}
	for i := range set {
		if !set[i].valid {
			set[i] = refLine[V]{key: key, value: v, valid: true, lru: t.clock}
			return 0, zeroV, false
		}
	}
	victim := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	ek, ev := set[victim].key, set[victim].value
	set[victim] = refLine[V]{key: key, value: v, valid: true, lru: t.clock}
	return ek, ev, true
}

func (t *refTable[V]) Invalidate(key uint64) bool {
	if l := t.find(key); l != nil {
		l.valid = false
		return true
	}
	return false
}

func (t *refTable[V]) Flush() {
	for i := range t.lines {
		t.lines[i].valid = false
	}
}

func (t *refTable[V]) rangeAll(fn func(key uint64, v V) bool) {
	for i := range t.lines {
		if t.lines[i].valid && !fn(t.lines[i].key, t.lines[i].value) {
			return
		}
	}
}

// rangeSeq flattens a rangeAll walk (optionally stopped after limit
// entries) into key, value pairs.
func rangeSeq(rng func(func(uint64, uint64) bool), limit int) []uint64 {
	var seq []uint64
	rng(func(k, v uint64) bool {
		seq = append(seq, k, v)
		return len(seq) < 2*limit
	})
	return seq
}

// TestSoAMatchesAoSReference drives the packed table and the stamp-based
// AoS reference through long pseudo-random operation mixes at every
// supported associativity, on hot tables (heavy eviction and
// invalidation), and requires identical results: hits, values, eviction
// victims, lengths, and content order (rangeAll).
func TestSoAMatchesAoSReference(t *testing.T) {
	const ops = 100_000
	for ways := 1; ways <= maxWays; ways++ {
		for _, sets := range []int{1, 4, 64} {
			t.Run(fmt.Sprintf("sets=%d/ways=%d", sets, ways), func(t *testing.T) {
				diffAgainstReference(t, sets, ways, ops)
			})
		}
	}
}

func diffAgainstReference(t *testing.T, sets, ways, ops int) {
	state := uint64(0x2545F4914F6CDD1D) ^ uint64(sets*maxWays+ways)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	got := New[uint64](sets, ways)
	want := newRef[uint64](sets, ways)
	// About 1.5 keys per way keeps every set in constant conflict while
	// leaving enough repeats for hits and promotions to matter.
	keys := uint64(sets * (ways + ways/2 + 1))
	for op := 0; op < ops; op++ {
		key := next() % keys
		val := uint64(op)
		switch r := next() % 100; {
		case r < 35:
			gk, gv, ge := got.Insert(key, val)
			wk, wv, we := want.Insert(key, val)
			if gk != wk || gv != wv || ge != we {
				t.Fatalf("op %d: Insert(%d) = (%d,%d,%v), reference (%d,%d,%v)",
					op, key, gk, gv, ge, wk, wv, we)
			}
		case r < 60:
			gv, gok := got.Lookup(key)
			wv, wok := want.Lookup(key)
			if gv != wv || gok != wok {
				t.Fatalf("op %d: Lookup(%d) = (%d,%v), reference (%d,%v)", op, key, gv, gok, wv, wok)
			}
		case r < 72:
			// Ref promotes and writes through its pointer, as a cache
			// write hit does.
			gp, wp := got.Ref(key), want.Ref(key)
			if (gp == nil) != (wp == nil) {
				t.Fatalf("op %d: Ref(%d) present %v, reference %v", op, key, gp != nil, wp != nil)
			}
			if gp != nil {
				if *gp != *wp {
					t.Fatalf("op %d: Ref(%d) = %d, reference %d", op, key, *gp, *wp)
				}
				*gp, *wp = val, val
			}
		case r < 80:
			gv, gok := got.Peek(key)
			wv, wok := want.Peek(key)
			if gv != wv || gok != wok {
				t.Fatalf("op %d: Peek(%d) = (%d,%v), reference (%d,%v)", op, key, gv, gok, wv, wok)
			}
		case r < 88:
			if g, w := got.Update(key, val), want.Update(key, val); g != w {
				t.Fatalf("op %d: Update(%d) = %v, reference %v", op, key, g, w)
			}
		case r < 98:
			if g, w := got.Invalidate(key), want.Invalidate(key); g != w {
				t.Fatalf("op %d: Invalidate(%d) = %v, reference %v", op, key, g, w)
			}
		case r < 99:
			// A stopped walk must visit the same prefix.
			limit := int(next()%8) + 1
			if g, w := rangeSeq(got.rangeAll, limit), rangeSeq(want.rangeAll, limit); fmt.Sprint(g) != fmt.Sprint(w) {
				t.Fatalf("op %d: Range(limit %d) = %v, reference %v", op, limit, g, w)
			}
		default:
			if next()%20 == 0 {
				got.Flush()
				want.Flush()
			}
		}
		if op%500 == 0 {
			g, w := rangeSeq(got.rangeAll, sets*ways), rangeSeq(want.rangeAll, sets*ways)
			if len(g) != len(w) {
				t.Fatalf("op %d: Range visited %d entries, reference %d", op, len(g)/2, len(w)/2)
			}
			for i := range g {
				if g[i] != w[i] {
					t.Fatalf("op %d: Range order diverged at %d: %d vs %d", op, i, g[i], w[i])
				}
			}
			if got.Len() != len(g)/2 {
				t.Fatalf("op %d: Len %d, Range visited %d", op, got.Len(), len(g)/2)
			}
		}
	}
}

// fingerprint returns key's 7-bit fingerprint, the byte find matches
// without its valid bit.
func fingerprint(key uint64) uint64 { return key * golden >> 57 }

// xorshift returns a deterministic pseudo-random byte stream.
func xorshift(seed uint64, n int) []byte {
	state := seed | 1
	out := make([]byte, n)
	for i := range out {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		out[i] = byte(state >> 32)
	}
	return out
}

// runOps decodes ops as (kind, key index) byte pairs over keys and
// applies each to the packed table and to the reference, failing on the
// first difference in hits, values, victims, Len or content order.
func runOps(tb testing.TB, sets, ways int, keys []uint64, ops []byte) {
	tb.Helper()
	got := New[uint64](sets, ways)
	want := newRef[uint64](sets, ways)
	for i := 0; i+1 < len(ops); i += 2 {
		key := keys[int(ops[i+1])%len(keys)]
		val := uint64(i)
		switch kind := ops[i] % 16; {
		case kind < 5:
			gk, gv, ge := got.Insert(key, val)
			wk, wv, we := want.Insert(key, val)
			if gk != wk || gv != wv || ge != we {
				tb.Fatalf("op %d: Insert(%#x) = (%#x,%d,%v), reference (%#x,%d,%v)",
					i/2, key, gk, gv, ge, wk, wv, we)
			}
		case kind < 8:
			gv, gok := got.Lookup(key)
			wv, wok := want.Lookup(key)
			if gv != wv || gok != wok {
				tb.Fatalf("op %d: Lookup(%#x) = (%d,%v), reference (%d,%v)", i/2, key, gv, gok, wv, wok)
			}
		case kind < 10:
			gp, wp := got.Ref(key), want.Ref(key)
			if (gp == nil) != (wp == nil) || gp != nil && *gp != *wp {
				tb.Fatalf("op %d: Ref(%#x) differs from the reference", i/2, key)
			}
			if gp != nil {
				*gp, *wp = val, val
			}
		case kind < 11:
			gv, gok := got.Peek(key)
			wv, wok := want.Peek(key)
			if gv != wv || gok != wok {
				tb.Fatalf("op %d: Peek(%#x) = (%d,%v), reference (%d,%v)", i/2, key, gv, gok, wv, wok)
			}
		case kind < 12:
			if g, w := got.Update(key, val), want.Update(key, val); g != w {
				tb.Fatalf("op %d: Update(%#x) = %v, reference %v", i/2, key, g, w)
			}
		case kind < 15:
			if g, w := got.Invalidate(key), want.Invalidate(key); g != w {
				tb.Fatalf("op %d: Invalidate(%#x) = %v, reference %v", i/2, key, g, w)
			}
		default:
			got.Flush()
			want.Flush()
		}
		g, w := rangeSeq(got.rangeAll, sets*ways), rangeSeq(want.rangeAll, sets*ways)
		if fmt.Sprint(g) != fmt.Sprint(w) {
			tb.Fatalf("op %d: Range = %v, reference %v", i/2, g, w)
		}
		if got.Len() != len(w)/2 {
			tb.Fatalf("op %d: Len %d, reference holds %d", i/2, got.Len(), len(w)/2)
		}
	}
}

// collidingKeys returns n keys that fall in set 0 of a table with the
// given number of sets and whose fingerprint is one of fps.
func collidingKeys(sets, n int, fps ...uint64) []uint64 {
	var keys []uint64
	for k := uint64(1); len(keys) < n; k++ {
		if mix(k)&uint64(sets-1) != 0 {
			continue
		}
		for _, fp := range fps {
			if fingerprint(k) == fp {
				keys = append(keys, k)
				break
			}
		}
	}
	return keys
}

// TestFingerprintCollisions drives sets whose keys all share one
// fingerprint byte (every valid way is flagged, so only the full tag
// compare tells them apart), and sets whose fingerprints differ only in
// the lowest bit (a true match below such a way makes the zero-byte
// test's borrow flag it), against the reference.
func TestFingerprintCollisions(t *testing.T) {
	for _, ways := range []int{4, 8, 12, 16} {
		for _, tc := range []struct {
			name string
			fps  []uint64
		}{
			{"same", []uint64{0x2a}},
			{"lowbit", []uint64{0x2a, 0x2b}},
			{"lowbit-mixed", []uint64{0x2a, 0x2b, 0x00, 0x7f}},
		} {
			t.Run(fmt.Sprintf("ways=%d/%s", ways, tc.name), func(t *testing.T) {
				const sets = 4
				keys := collidingKeys(sets, 2*ways, tc.fps...)
				runOps(t, sets, ways, keys, xorshift(uint64(ways)<<8|uint64(len(tc.fps)), 40_000))
			})
		}
	}
}

// TestLowBitBorrowFlagsAreRejected pins the false flag the borrow
// raises: way 1 holds a key whose fingerprint differs from the probe's
// only in the lowest bit, above a way whose byte matches exactly.
func TestLowBitBorrowFlagsAreRejected(t *testing.T) {
	tab := New[int](1, 8)
	same := collidingKeys(1, 2, 0x40)
	other := collidingKeys(1, 1, 0x41)[0]
	tab.Insert(same[0], 0)
	tab.Insert(other, 1)
	if z := match(tab.meta[0].fp, fpByte(same[1]*golden)); z != 0x8080 {
		t.Fatalf("match flags %#x, want ways 0 and 1 (0x8080)", z)
	}
	if _, ok := tab.Peek(same[1]); ok {
		t.Error("absent key with a colliding fingerprint hit")
	}
	if v, ok := tab.Peek(other); !ok || v != 1 {
		t.Errorf("Peek(other) = %d, %v", v, ok)
	}
	if v, ok := tab.Peek(same[0]); !ok || v != 0 {
		t.Errorf("Peek(same) = %d, %v", v, ok)
	}
}

// wayOf returns the way of tab holding key, or -1.
func wayOf[V any](tab *Table[V], key uint64) int {
	s, w := tab.find(key)
	if w < 0 && tab.hi != nil {
		w = tab.findHi(s, key)
	}
	return w
}

// TestStaleTagsNeverMatch checks that an invalidated or flushed way
// keeps no match: its tag stays in the array but its fingerprint byte
// is cleared, and a refill takes the lowest free way.
func TestStaleTagsNeverMatch(t *testing.T) {
	for _, ways := range []int{4, 8, 12, 16} {
		t.Run(fmt.Sprintf("ways=%d", ways), func(t *testing.T) {
			tab := New[int](1, ways)
			keys := collidingKeys(1, ways+1, 0x11)
			for i, k := range keys[:ways] {
				tab.Insert(k, i)
			}
			for _, w := range []int{ways - 1, ways / 2, 0} {
				if !tab.Invalidate(keys[w]) {
					t.Fatalf("Invalidate(way %d) missed", w)
				}
				if _, ok := tab.Lookup(keys[w]); ok {
					t.Fatalf("way %d hit after Invalidate", w)
				}
			}
			// Refills take the lowest free way first.
			for _, w := range []int{0, ways / 2, ways - 1} {
				if _, _, ev := tab.Insert(keys[ways], w); ev {
					t.Fatal("refill evicted with free ways left")
				}
				if got := wayOf(tab, keys[ways]); got != w {
					t.Fatalf("refill took way %d, want %d", got, w)
				}
				tab.Invalidate(keys[ways])
				tab.Insert(keys[w], w)
			}
			tab.Flush()
			for i, k := range keys[:ways] {
				if _, ok := tab.Lookup(k); ok {
					t.Fatalf("key %d hit after Flush", i)
				}
			}
			if tab.Len() != 0 {
				t.Fatalf("Len %d after Flush", tab.Len())
			}
			tab.Insert(keys[ways], 0)
			if got := wayOf(tab, keys[ways]); got != 0 {
				t.Fatalf("insert after Flush took way %d, want 0", got)
			}
		})
	}
}

// TestFingerprintSpread requires the fingerprints of keys in one set to
// cover all 128 values evenly. A fingerprint correlated with the set
// index bits would stay correct but flag most ways on every probe.
func TestFingerprintSpread(t *testing.T) {
	const sets = 64
	for _, stride := range []uint64{1, 64, 4096} {
		t.Run(fmt.Sprintf("stride=%d", stride), func(t *testing.T) {
			const n = 128 * 64
			var count [128]int
			seen := 0
			for k := uint64(0); seen < n; k += stride {
				if mix(k)&(sets-1) != sets/2 {
					continue
				}
				count[fingerprint(k)]++
				seen++
			}
			for fp, c := range count {
				if c == 0 || c > 2*n/128 {
					t.Errorf("fingerprint %#x taken by %d of %d keys (share %d)", fp, c, n, n/128)
				}
			}
		})
	}
}

// FuzzAssoc decodes a geometry and an operation sequence from bytes and
// requires the packed table to match the reference after every op. Half
// of the key pool shares one set-0 fingerprint or its low-bit neighbour,
// so the fuzzer reaches collisions and borrow flags quickly.
func FuzzAssoc(f *testing.F) {
	f.Add([]byte{0, 7, 0, 1, 0, 2, 1, 1, 13, 1, 15, 0})
	f.Add(xorshift(1, 64))
	f.Add(append([]byte{2, 15}, xorshift(2, 256)...))
	f.Add(append([]byte{1, 11}, xorshift(3, 256)...))
	pools := map[int][]uint64{}
	for _, sets := range []int{1, 2, 4} {
		pool := collidingKeys(sets, 16, 0x55, 0x54)
		for k := uint64(0); k < 16; k++ {
			pool = append(pool, k)
		}
		pools[sets] = pool
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		sets := 1 << (data[0] % 3)
		ways := int(data[1]%maxWays) + 1
		runOps(t, sets, ways, pools[sets], data[2:])
	})
}

func BenchmarkLookupHit(b *testing.B) {
	t := New[uint64](64, 8)
	t.Insert(42, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(42)
	}
}

func BenchmarkInsertEvict(b *testing.B) {
	t := New[uint64](64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Insert(uint64(i), uint64(i))
	}
}

// BenchmarkLookupInsert is the cache/TLB access pattern — Lookup, and
// Insert on a miss — over a uniform random key stream. The ways=N cases
// hit about 70% of the time in 64 sets at each associativity the
// simulator's tables use. The geometry cases are the simulator's own
// arrays — the L1 data TLB (16 sets x 4 ways), the L1D (64 x 8) and the
// L2 TLB (128 x 12) — each at about 70% and, miss-heavy, 30% hits.
func BenchmarkLookupInsert(b *testing.B) {
	for _, ways := range []int{4, 8, 12, 16} {
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			benchLookupInsert(b, 64, ways, 70)
		})
	}
	for _, g := range []struct {
		name       string
		sets, ways int
	}{{"l1dtlb", 16, 4}, {"l1d", 64, 8}, {"l2tlb", 128, 12}} {
		for _, hitPct := range []int{70, 30} {
			b.Run(fmt.Sprintf("%s=%dx%d/hits=%d", g.name, g.sets, g.ways, hitPct), func(b *testing.B) {
				benchLookupInsert(b, g.sets, g.ways, hitPct)
			})
		}
	}
}

func benchLookupInsert(b *testing.B, sets, ways, hitPct int) {
	t := New[uint64](sets, ways)
	// LRU over uniform keys hits about capacity/keys of the time.
	keys := uint64(sets * ways * 100 / hitPct)
	stream := make([]uint64, 1<<12)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range stream {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		stream[i] = state % keys
	}
	for _, k := range stream {
		t.Insert(k, k)
	}
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := stream[i&(len(stream)-1)]
		if _, ok := t.Lookup(k); ok {
			hits++
		} else {
			t.Insert(k, k)
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hit/op")
}
