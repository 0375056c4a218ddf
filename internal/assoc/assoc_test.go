package assoc

import (
	"fmt"
	"testing"
	"testing/quick"
)

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
	if tab.Sets() != 8 || tab.Ways() != 2 || tab.Capacity() != 16 {
		t.Error("geometry accessors wrong")
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
	tab.Range(func(k uint64, v int) bool {
		sum += v
		return true
	})
	if sum != 0+10+20+30+40 {
		t.Errorf("Range sum = %d", sum)
	}
	count := 0
	tab.Range(func(k uint64, v int) bool {
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
		return tab.Len() <= tab.Capacity()
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
// table must make identical hit, free-way, victim, and Range-order
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

func (t *refTable[V]) Range(fn func(key uint64, v V) bool) {
	for i := range t.lines {
		if t.lines[i].valid && !fn(t.lines[i].key, t.lines[i].value) {
			return
		}
	}
}

// rangeSeq flattens a Range walk (optionally stopped after limit
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
// victims, lengths, and Range order.
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
			// A stopped Range must visit the same prefix.
			limit := int(next()%8) + 1
			if g, w := rangeSeq(got.Range, limit), rangeSeq(want.Range, limit); fmt.Sprint(g) != fmt.Sprint(w) {
				t.Fatalf("op %d: Range(limit %d) = %v, reference %v", op, limit, g, w)
			}
		default:
			if next()%20 == 0 {
				got.Flush()
				want.Flush()
			}
		}
		if op%500 == 0 {
			g, w := rangeSeq(got.Range, sets*ways), rangeSeq(want.Range, sets*ways)
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
// Insert on a miss — over a uniform random key stream sized for about a
// 70/30 hit/miss mix, at each associativity the simulator's tables use.
func BenchmarkLookupInsert(b *testing.B) {
	for _, ways := range []int{4, 8, 12, 16} {
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			const sets = 64
			t := New[uint64](sets, ways)
			// LRU over uniform keys hits about capacity/keys of the time.
			keys := uint64(sets*ways) * 10 / 7
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
		})
	}
}
