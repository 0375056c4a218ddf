package cache

import (
	"testing"

	"ndpage/internal/access"
	"ndpage/internal/addr"
)

func tiny() *Cache {
	// 8 sets x 2 ways x 64 B = 1 KB.
	return New(Config{Name: "L1D", Size: 1024, Ways: 2, Latency: 4})
}

// lookupOrFill is the memory hierarchy's probe-then-fill sequence:
// Lookup, and on a miss, Fill. It returns the fill's eviction, if any.
func lookupOrFill(c *Cache, line uint64, op access.Op, class access.Class) (Eviction, bool) {
	if c.Lookup(line, op, class) {
		return Eviction{}, false
	}
	return c.Fill(line, op, class)
}

func TestGeometryValidation(t *testing.T) {
	cases := []Config{
		{Name: "zero", Size: 0, Ways: 2},
		{Name: "noways", Size: 1024, Ways: 0},
		{Name: "nonpow2", Size: 3 * 64 * 2, Ways: 2}, // 3 sets
	}
	for _, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%q) did not panic", cfg.Name)
				}
			}()
			New(cfg)
		}()
	}
	c := tiny()
	if c.Name() != "L1D" || c.Latency() != 4 {
		t.Error("accessors wrong")
	}
}

func TestMissThenHit(t *testing.T) {
	c := tiny()
	if c.Lookup(100, access.Read, access.Data) {
		t.Fatal("cold lookup hit")
	}
	c.Fill(100, access.Read, access.Data)
	if !c.Lookup(100, access.Read, access.Data) {
		t.Fatal("lookup after fill missed")
	}
	s := c.Stats()
	if s.PerClass[access.Data].Hits != 1 || s.PerClass[access.Data].Misses != 1 {
		t.Errorf("data stats: %+v", s.PerClass[access.Data])
	}
}

func TestWriteMakesDirtyAndWritebackCounted(t *testing.T) {
	c := New(Config{Name: "t", Size: 2 * 64, Ways: 2, Latency: 1}) // 1 set, 2 ways
	lookupOrFill(c, 1, access.Write, access.Data)
	lookupOrFill(c, 2, access.Read, access.Data)
	// Evict line 1 (LRU, dirty).
	ev, evicted := lookupOrFill(c, 3, access.Read, access.Data)
	if !evicted || ev.Line != 1 || !ev.Dirty {
		t.Fatalf("eviction = %+v %v, want dirty line 1", ev, evicted)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestWriteHitDirtiesLine(t *testing.T) {
	c := New(Config{Name: "t", Size: 2 * 64, Ways: 2, Latency: 1})
	lookupOrFill(c, 1, access.Read, access.Data)  // clean fill
	lookupOrFill(c, 1, access.Write, access.Data) // write hit -> dirty
	lookupOrFill(c, 2, access.Read, access.Data)
	ev, evicted := lookupOrFill(c, 3, access.Read, access.Data)
	if !evicted || !ev.Dirty {
		t.Fatalf("eviction = %+v %v, want dirty", ev, evicted)
	}
}

func TestPTEPollutionCounter(t *testing.T) {
	c := New(Config{Name: "t", Size: 2 * 64, Ways: 2, Latency: 1})
	lookupOrFill(c, 1, access.Read, access.Data)
	lookupOrFill(c, 2, access.Read, access.Data)
	// PTE fill evicts a data line: pollution.
	lookupOrFill(c, 3, access.Read, access.PTE)
	if c.Stats().DataEvictedByPTE != 1 {
		t.Errorf("DataEvictedByPTE = %d, want 1", c.Stats().DataEvictedByPTE)
	}
	// The next PTE fill evicts the other data line (2); the one after
	// evicts PTE line 3, and PTE evicting PTE is not pollution.
	lookupOrFill(c, 4, access.Read, access.PTE)
	lookupOrFill(c, 5, access.Read, access.PTE)
	if c.Stats().DataEvictedByPTE != 2 {
		t.Errorf("DataEvictedByPTE = %d, want 2", c.Stats().DataEvictedByPTE)
	}
}

func TestPerClassIsolation(t *testing.T) {
	c := tiny()
	lookupOrFill(c, 1, access.Read, access.Data)
	lookupOrFill(c, 2, access.Read, access.PTE)
	lookupOrFill(c, 3, access.Read, access.Code)
	s := c.Stats()
	for _, cl := range []access.Class{access.Data, access.PTE, access.Code} {
		if s.PerClass[cl].Misses != 1 {
			t.Errorf("class %v misses = %d, want 1", cl, s.PerClass[cl].Misses)
		}
	}
	if s.Total().Total() != 3 {
		t.Errorf("total accesses = %d, want 3", s.Total().Total())
	}
}

func TestInvalidate(t *testing.T) {
	c := tiny()
	lookupOrFill(c, 9, access.Write, access.Data)
	dirty, present := c.Invalidate(9)
	if !present || !dirty {
		t.Fatalf("Invalidate = (%v,%v), want dirty and present", dirty, present)
	}
	if _, present = c.Invalidate(9); present {
		t.Fatal("second Invalidate found the line")
	}
	if c.Contains(9) {
		t.Fatal("line still present after invalidate")
	}
}

// TestWorkingSetFitsNoMisses: a working set no larger than capacity,
// accessed repeatedly, must stop missing after the first pass (LRU sanity
// at cache granularity).
func TestWorkingSetFitsNoMisses(t *testing.T) {
	c := New(Config{Name: "t", Size: 32 << 10, Ways: 8, Latency: 4})
	lines := uint64(32 << 10 / addr.LineSize / 2) // half capacity
	for pass := 0; pass < 3; pass++ {
		for l := uint64(0); l < lines; l++ {
			lookupOrFill(c, l, access.Read, access.Data)
		}
	}
	s := c.Stats().PerClass[access.Data]
	if got := s.Misses.Value(); got != lines {
		t.Errorf("misses = %d, want exactly %d cold misses", got, lines)
	}
}

// TestThrashingWorkingSet: a working set far larger than capacity with
// no reuse inside the reuse distance must miss nearly always.
func TestThrashingWorkingSet(t *testing.T) {
	c := New(Config{Name: "t", Size: 1 << 10, Ways: 2, Latency: 4})
	for pass := 0; pass < 3; pass++ {
		for l := uint64(0); l < 4096; l++ {
			lookupOrFill(c, l, access.Read, access.Data)
		}
	}
	s := c.Stats().PerClass[access.Data]
	if s.MissRate() < 0.99 {
		t.Errorf("thrashing miss rate = %.3f, want ~1", s.MissRate())
	}
}

func BenchmarkCacheAccessHit(b *testing.B) {
	c := New(Config{Name: "b", Size: 32 << 10, Ways: 8, Latency: 4})
	lookupOrFill(c, 1, access.Read, access.Data)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookupOrFill(c, 1, access.Read, access.Data)
	}
}

func BenchmarkCacheAccessThrash(b *testing.B) {
	c := New(Config{Name: "b", Size: 32 << 10, Ways: 8, Latency: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookupOrFill(c, uint64(i), access.Read, access.Data)
	}
}
