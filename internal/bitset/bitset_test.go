package bitset

import "testing"

func TestZeroValueIsEmpty(t *testing.T) {
	var p Paged
	if p.Get(0) || p.Get(1<<40) {
		t.Error("zero-value set reports membership")
	}
	if p.Len() != 0 {
		t.Errorf("Len = %d, want 0", p.Len())
	}
}

func TestSetGetClear(t *testing.T) {
	var p Paged
	keys := []uint64{0, 1, 63, 64, pageSize - 1, pageSize, pageSize + 7, 3 * pageSize}
	for _, k := range keys {
		p.Set(k)
	}
	if p.Len() != uint64(len(keys)) {
		t.Fatalf("Len = %d, want %d", p.Len(), len(keys))
	}
	for _, k := range keys {
		if !p.Get(k) {
			t.Errorf("key %d missing after Set", k)
		}
	}
	// Neighbors unaffected.
	for _, k := range []uint64{2, 62, 65, pageSize + 1, 2 * pageSize} {
		if p.Get(k) {
			t.Errorf("key %d present without Set", k)
		}
	}
	p.Clear(keys[0])
	p.Clear(keys[3])
	if p.Get(keys[0]) || p.Get(keys[3]) {
		t.Error("cleared keys still present")
	}
	if p.Len() != uint64(len(keys)-2) {
		t.Errorf("Len after clears = %d, want %d", p.Len(), len(keys)-2)
	}
}

func TestSetIdempotentAndClearMissing(t *testing.T) {
	var p Paged
	p.Set(100)
	p.Set(100)
	if p.Len() != 1 {
		t.Errorf("double Set counted twice: Len = %d", p.Len())
	}
	p.Clear(200)     // absent key in an existing page range? (page 0 exists)
	p.Clear(1 << 30) // absent key in an unallocated page
	if p.Len() != 1 {
		t.Errorf("Clear of absent keys changed Len = %d", p.Len())
	}
}

// TestMatchesMapReference drives the paged bitmap and a map[uint64]bool
// through a pseudo-random Set/Clear/Get mix and requires identical
// membership.
func TestMatchesMapReference(t *testing.T) {
	var p Paged
	ref := map[uint64]bool{}
	state := uint64(0x2545F4914F6CDD1D)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < 100000; i++ {
		// Dense-ish keys with occasional far outliers, mirroring chunk
		// ordinals from a bump allocator plus reclaim churn.
		key := next() % 10000
		if next()%100 == 0 {
			key += 1 << 20
		}
		switch next() % 3 {
		case 0:
			p.Set(key)
			ref[key] = true
		case 1:
			p.Clear(key)
			delete(ref, key)
		default:
			if p.Get(key) != ref[key] {
				t.Fatalf("op %d: Get(%d) = %v, reference %v", i, key, p.Get(key), ref[key])
			}
		}
	}
	if p.Len() != uint64(len(ref)) {
		t.Fatalf("Len = %d, reference %d", p.Len(), len(ref))
	}
}

func TestNextSet(t *testing.T) {
	words := make([]uint64, 4)
	set := []uint64{0, 5, 63, 64, 190, 255}
	for _, i := range set {
		SetBit(words, i)
	}
	for from := uint64(0); from <= 260; from++ {
		want, wantOK := uint64(0), false
		for _, i := range set {
			if i >= from {
				want, wantOK = i, true
				break
			}
		}
		if got, ok := NextSet(words, from); got != want || ok != wantOK {
			t.Fatalf("NextSet(%d) = %d, %v; want %d, %v", from, got, ok, want, wantOK)
		}
	}
}
