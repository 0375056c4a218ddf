package pagetable

import (
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"ndpage/internal/addr"
	"ndpage/internal/phys"
	"ndpage/internal/xrand"
)

func TestCuckooMapLookup(t *testing.T) {
	c := reserved(NewCuckoo(newAlloc(), 1024), addr.EntriesPerTable)
	if _, ok := c.Lookup(42); ok {
		t.Fatal("empty table lookup hit")
	}
	c.Map(42, 1000)
	e, ok := c.Lookup(42)
	if !ok || e.PFN != 1000 {
		t.Fatalf("Lookup = %+v, %v", e, ok)
	}
	c.Map(42, 2000)
	if e, _ := c.Lookup(42); e.PFN != 2000 {
		t.Error("remap did not update in place")
	}
	if c.MappedPages() != 1 {
		t.Errorf("MappedPages = %d, want 1", c.MappedPages())
	}
}

func TestCuckooWalkIsParallel(t *testing.T) {
	c := reserved(NewCuckoo(newAlloc(), 1024), addr.EntriesPerTable)
	c.Map(7, 77)
	var w Walk
	c.WalkInto(addr.VPN(7).Addr(), &w)
	if !w.Found || w.Entry.PFN != 77 {
		t.Fatalf("walk = %+v", w)
	}
	if len(w.Par) != 3 || len(w.Seq) != 0 {
		t.Fatalf("ECH walk must be 3 parallel probes, got par=%d seq=%d",
			len(w.Par), len(w.Seq))
	}
	for _, a := range w.Par {
		if a.Level != HashLevel {
			t.Errorf("probe level = %v, want HashLevel", a.Level)
		}
	}
}

func TestCuckooMissedWalkStillProbesAllWays(t *testing.T) {
	c := NewCuckoo(newAlloc(), 1024)
	var w Walk
	c.WalkInto(addr.VPN(123).Addr(), &w)
	if w.Found || len(w.Par) != 3 {
		t.Fatalf("miss walk = %+v", w)
	}
}

func TestCuckooManyInsertsAllRetrievable(t *testing.T) {
	c := reserved(NewCuckoo(newAlloc(), 512), testSpan)
	rng := xrand.New(11)
	want := map[addr.VPN]addr.PFN{}
	for i := 0; i < 50000; i++ {
		vpn := addr.VPN(rng.Uint64n(testSpan))
		pfn := addr.PFN(i)
		c.Map(vpn, pfn)
		want[vpn] = pfn
	}
	if c.MappedPages() != uint64(len(want)) {
		t.Fatalf("MappedPages = %d, want %d", c.MappedPages(), len(want))
	}
	for vpn, pfn := range want {
		e, ok := c.Lookup(vpn)
		if !ok || e.PFN != pfn {
			t.Fatalf("vpn %#x: got %+v/%v want pfn %d", uint64(vpn), e, ok, pfn)
		}
	}
	if c.Stats().Resizes == 0 {
		t.Error("50k inserts into 512-slot ways must have resized")
	}
}

// loadFactors returns the per-way load factors, once queued tags settle.
func loadFactors(c *Cuckoo) []float64 {
	c.settle()
	out := make([]float64, len(c.ways))
	for i := range c.ways {
		way := &c.ways[i]
		out[i] = float64(way.count) / float64(way.capacity())
	}
	return out
}

func TestCuckooLoadFactorBounded(t *testing.T) {
	c := reserved(NewCuckoo(newAlloc(), 512), testSpan)
	rng := xrand.New(13)
	for i := 0; i < 20000; i++ {
		c.Map(addr.VPN(rng.Uint64n(testSpan)), addr.PFN(i))
	}
	for w, lf := range loadFactors(c) {
		if lf > 0.85 {
			t.Errorf("way %d load factor %.2f exceeds bound", w, lf)
		}
	}
}

func TestCuckooResizePreservesEntriesDuringMigration(t *testing.T) {
	c := reserved(NewCuckoo(newAlloc(), 512), testSpan)
	rng := xrand.New(17)
	var keys []addr.VPN
	// Insert enough to trigger a resize but not complete migration, then
	// verify every key mid-migration.
	for i := 0; i < 400; i++ {
		vpn := addr.VPN(rng.Uint64n(testSpan))
		c.Map(vpn, addr.PFN(i))
		keys = append(keys, vpn)
		for j, k := range keys {
			if e, ok := c.Lookup(k); !ok || e.PFN != addr.PFN(j) {
				t.Fatalf("after insert %d: key %d lost (%+v, %v)", i, j, e, ok)
			}
		}
	}
}

func TestCuckooMapHugePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MapHuge on cuckoo did not panic")
		}
	}()
	NewCuckoo(newAlloc(), 512).MapHuge(0, 0)
}

func TestCuckooProbeAddressesDistinctWays(t *testing.T) {
	c := NewCuckoo(newAlloc(), 1024)
	var w Walk
	c.WalkInto(addr.VPN(99).Addr(), &w)
	seen := map[addr.P]bool{}
	for _, a := range w.Par {
		if seen[a.PA] {
			t.Errorf("two ways probed the same physical slot %#x", uint64(a.PA))
		}
		seen[a.PA] = true
	}
}

func TestCuckooOccupancyReport(t *testing.T) {
	c := reserved(NewCuckoo(newAlloc(), 1024), 100*977)
	for i := 0; i < 100; i++ {
		c.Map(addr.VPN(i*977), addr.PFN(i))
	}
	occ := c.Occupancy()
	if len(occ) != 1 || occ[0].Level != HashLevel {
		t.Fatalf("occupancy = %+v", occ)
	}
	if occ[0].EntriesUsed != 100 || occ[0].Nodes != 3 {
		t.Errorf("occupancy row = %+v", occ[0])
	}
}

func TestCuckooMapRange(t *testing.T) {
	c := reserved(NewCuckoo(newAlloc(), 1024), 700)
	c.MapRange(100, 600, 9000)
	for _, k := range []uint64{0, 599} {
		e, ok := c.Lookup(addr.VPN(100 + k))
		if !ok || e.PFN != addr.PFN(9000+k) {
			t.Fatalf("range page +%d: %+v, %v", k, e, ok)
		}
	}
}

// Property: Map then Lookup agrees for arbitrary key sets in a reserved
// span (cuckoo vs a plain map as the model).
func TestCuckooMatchesModel(t *testing.T) {
	f := func(raw []uint32) bool {
		c := reserved(NewCuckoo(newAlloc(), 256), testSpan)
		model := map[addr.VPN]addr.PFN{}
		for i, r := range raw {
			vpn := addr.VPN(r % testSpan)
			pfn := addr.PFN(i)
			c.Map(vpn, pfn)
			model[vpn] = pfn
		}
		for vpn, pfn := range model {
			if e, ok := c.Lookup(vpn); !ok || e.PFN != pfn {
				return false
			}
		}
		return c.MappedPages() == uint64(len(model))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCuckooDeterministic(t *testing.T) {
	run := func() CuckooStats {
		c := reserved(NewCuckoo(newAlloc(), 256), testSpan)
		rng := xrand.New(5)
		for i := 0; i < 5000; i++ {
			c.Map(addr.VPN(rng.Uint64n(testSpan)), addr.PFN(i))
		}
		return c.Stats()
	}
	if run() != run() {
		t.Error("cuckoo construction is not deterministic")
	}
}

// TestCuckooMetadataBounds bounds resident metadata per mapped page. A
// heap populated the way the OS model does it, at the pr workload's
// default footprint (5738 chunks, 11.2 GiB), must stay within the
// 34.6 B/page of the layout that kept {vpn, pfn} in every slot, and
// within 10 B/page with 4-byte tags (8-byte tags took 17.7).
func TestCuckooMetadataBounds(t *testing.T) {
	dense := NewCuckoo(phys.New(1<<30), 4096)
	populateHeap(dense, 5738)
	got := float64(dense.MetadataBytes()) / float64(dense.MappedPages())
	if got > 34.6 {
		t.Errorf("dense heap: %.2f B/page, want <= 34.6", got)
	}
	if got > 10 {
		t.Errorf("dense heap: %.2f B/page, want <= 10 with 4-byte tags", got)
	}
}

// TestCuckooPopulateAllocs bounds the host bytes allocated while
// building an ECH table over a 4 GB heap (1M pages) to 1.25x the
// metadata the finished table holds. A way grows in place, so a resize
// allocates only its new segment, frame directory and occupancy bitmap,
// and the bulk build's pending sets take one bit per queued page. The
// bound also guards that transient memory: the build measures 1.007x
// (1.05x while the buddy allocator kept its allocated blocks in a Go
// map, which grew with every frame the ways took).
func TestCuckooPopulateAllocs(t *testing.T) {
	c := NewCuckoo(phys.New(1<<30), 4096)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	populateHeap(c, 2048)
	runtime.ReadMemStats(&after)
	alloc, meta := after.TotalAlloc-before.TotalAlloc, c.MetadataBytes()
	if ratio := float64(alloc) / float64(meta); ratio > 1.25 {
		t.Errorf("populating allocated %d B, %.2fx MetadataBytes %d B; want <= 1.25x", alloc, ratio, meta)
	}
}

// TestCuckooMapStartsGradualResize: after a bulk build, Map still grows
// a way elastically. The Map whose insert crosses the threshold begins
// one gradual resize without doubling the way at once, and the next Map
// migrates part of it.
func TestCuckooMapStartsGradualResize(t *testing.T) {
	c := reserved(NewCuckoo(newAlloc(), 1024), testSpan)
	c.MapRange(0, 3000, 0)
	before := c.Stats()
	rng := xrand.New(3)
	fresh := func() addr.VPN { return addr.VPN(4096 + rng.Uint64n(testSpan-4096)) }
	for c.Stats().Resizes == before.Resizes {
		c.Map(fresh(), 1)
	}
	var way *cuckooWay
	for i := range c.ways {
		if c.ways[i].resizing {
			way = &c.ways[i]
		}
	}
	if way == nil || c.Stats().Resizes != before.Resizes+1 {
		t.Fatalf("resizes %d -> %d, resizing way %v; want one gradual resize", before.Resizes, c.Stats().Resizes, way)
	}
	size := way.size
	c.Map(fresh(), 1)
	if way.size != size || way.migPtr <= 0 || way.migPtr >= way.size {
		t.Errorf("after the next Map: size %d (was %d), migPtr %d; want a partial migration", way.size, size, way.migPtr)
	}
}

// TestCuckooBulkBuildEdges holds two bulk builds to refCuckoo slot for
// slot. In "ceiling" a third of the pages is one past a way's threshold
// at 1024 slots, so every way must grow to 2048. In "one way" every page
// prefers way 0, which the first pass fills past its threshold, so the
// build must leave it resizing.
func TestCuckooBulkBuildEdges(t *testing.T) {
	cases := []struct {
		name string
		fill func(mapRange func(vpn addr.VPN, n uint64))
		want func(c *Cuckoo) bool
	}{
		{"ceiling", func(m func(addr.VPN, uint64)) { m(0, 3*uint64(resizeLimit(1024))+1) },
			func(c *Cuckoo) bool { return c.ways[0].size == 2048 }},
		{"one way", func(m func(addr.VPN, uint64)) {
			for k := addr.VPN(0); k < 1500; k++ {
				m(3*k, 1)
			}
		}, func(c *Cuckoo) bool { return c.ways[0].resizing }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := reserved(NewCuckoo(newAlloc(), 1024), testSpan)
			p := fuzzPair{"cuckoo", new(Walk), new(Walk), c, newRefCuckoo(newAlloc(), 1024)}
			tc.fill(func(vpn addr.VPN, n uint64) {
				p.got.MapRange(vpn, n, addr.PFN(vpn))
				p.want.MapRange(vpn, n, addr.PFN(vpn))
			})
			p.checkCounts(t, 0)
			for vpn := addr.VPN(0); vpn < 4500; vpn++ {
				p.check(t, 0, vpn)
			}
			checkCuckooStore(t, c, 0, true)
			if !tc.want(c) {
				t.Errorf("way 0: size %d, resizing %v", c.ways[0].size, c.ways[0].resizing)
			}
		})
	}
}

// TestCuckooReadsSettleQueuedTags: every call that reads or changes slot
// state answers, and leaves the table, exactly as it would had
// MapRange's queued pages been placed before it. Lookup and Present
// read only the frame store and leave the pages queued.
func TestCuckooReadsSettleQueuedTags(t *testing.T) {
	build := func(settled bool) *Cuckoo {
		c := reserved(NewCuckoo(newAlloc(), 1024), testSpan)
		for i := addr.VPN(0); i < 50; i++ {
			c.Map(9000+7*i, addr.PFN(i))
		}
		c.MapRange(100, 5000, 7)
		c.MapRange(9000, 700, 20000)
		if settled {
			c.settle()
		}
		return c
	}
	calls := []struct {
		name string
		call func(c *Cuckoo) any
	}{
		{"WalkInto", func(c *Cuckoo) any {
			var w Walk
			c.WalkInto(addr.VPN(4000).Addr(), &w)
			return w
		}},
		{"Unmap", func(c *Cuckoo) any {
			e, ok := c.Unmap(4000)
			return []any{e, ok}
		}},
		{"Occupancy", func(c *Cuckoo) any { return c.Occupancy() }},
		{"LoadFactors", func(c *Cuckoo) any { return loadFactors(c) }},
		{"MappedPages", func(c *Cuckoo) any { return c.MappedPages() }},
		{"MetadataBytes", func(c *Cuckoo) any { return c.MetadataBytes() }},
		{"Stats", func(c *Cuckoo) any { return c.Stats() }},
		{"String", func(c *Cuckoo) any { return c.String() }},
		{"Reserve", func(c *Cuckoo) any {
			c.Reserve(testSpan, addr.EntriesPerTable)
			return nil
		}},
		{"Map", func(c *Cuckoo) any {
			c.Map(testSpan-1, 3)
			return nil
		}},
	}
	for _, tc := range calls {
		t.Run(tc.name, func(t *testing.T) {
			queued, placed := build(false), build(true)
			if queued.queued == 0 || placed.queued != 0 {
				t.Fatalf("queued %d and %d pages, want some and none", queued.queued, placed.queued)
			}
			got, want := tc.call(queued), tc.call(placed)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s = %v with pages queued, %v with them placed", tc.name, got, want)
			}
			if queued.queued != 0 || !reflect.DeepEqual(queued.ways, placed.ways) || queued.stats != placed.stats {
				t.Errorf("%s left a different table with pages queued than with them placed", tc.name)
			}
		})
	}
	c := build(false)
	for vpn, pfn := range map[addr.VPN]addr.PFN{100: 7, 5099: 5006, 9000: 20000, 9001: 20001, 9699: 20699} {
		if e, ok := c.Lookup(vpn); !ok || e.PFN != pfn || !c.Present(vpn) {
			t.Errorf("queued page %#x: Lookup %+v, %v, Present %v; want frame %#x", uint64(vpn), e, ok, c.Present(vpn), uint64(pfn))
		}
	}
	if c.queued != 5000+700-50 {
		t.Errorf("Lookup and Present left %d pages queued, want %d", c.queued, 5000+700-50)
	}
}
