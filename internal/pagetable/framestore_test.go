package pagetable

import (
	"strings"
	"testing"

	"ndpage/internal/addr"
	"ndpage/internal/bitset"
	"ndpage/internal/xrand"
)

// audit checks the store's layout invariants — every record's count
// matches its present map, a huge record is full and array-free, the
// array counter matches the records, and empty records hold nothing —
// and returns the pages it holds.
func (s *frameStore) audit(t *testing.T) (pages uint64) {
	t.Helper()
	var arrays uint64
	check := func(chunk uint64, r *chunkRec) {
		n := bitset.Count(r.present[:])
		if n != uint64(r.n) {
			t.Fatalf("chunk %#x counts %d pages, present map holds %d", chunk, r.n, n)
		}
		if r.huge && (n != addr.EntriesPerTable || r.pfns != nil) {
			t.Fatalf("huge chunk %#x holds %d pages, frame array %v", chunk, n, r.pfns != nil)
		}
		if n == 0 && *r != (chunkRec{}) {
			t.Fatalf("empty chunk %#x not cleared: %+v", chunk, *r)
		}
		if r.pfns != nil {
			arrays++
		}
		pages += n
	}
	for i := range s.dense {
		check(s.base+uint64(i), &s.dense[i])
	}
	if arrays != s.arrays {
		t.Fatalf("store counts %d arrays, holds %d", s.arrays, arrays)
	}
	return pages
}

// pages sums the records' page counts: the pages the store holds,
// without the per-record bitmap scan audit makes.
func (s *frameStore) pages() (n uint64) {
	for i := range s.dense {
		n += uint64(s.dense[i].n)
	}
	return n
}

// TestFrameStoreMatchesMap reserves a heap-like span, then drives the
// store and a Go map through ascending, descending and every-other page
// runs, MapRange runs over chunk boundaries, keys scattered over the
// span, remaps, huge mappings, removals and reservations inside the
// window, and requires identical answers, a consistent layout, and
// memory proportional to the chunks held.
func TestFrameStoreMatchesMap(t *testing.T) {
	var s frameStore
	// Runs start in [heapBase, heapBase+1<<16) and reach up to 4096
	// pages either way.
	const spanLo, span = heapBase - 4096, 1<<16 + 8192
	s.reserve(spanLo, span)
	model := map[addr.VPN]addr.PFN{}
	huge := map[addr.VPN]addr.PFN{} // chunk base -> frame of huge chunks
	rng := xrand.New(3)
	set := func(vpn addr.VPN, pfn addr.PFN) {
		if _, ok := huge[vpn&^(addr.EntriesPerTable-1)]; ok {
			return
		}
		_, had := model[vpn]
		if got := s.mapRange(vpn, 1, pfn); (got == 1) == had {
			t.Fatalf("mapRange(%#x) fresh = %d, page was mapped: %v", uint64(vpn), got, had)
		}
		model[vpn] = pfn
	}
	for round := 0; round < 300; round++ {
		base := addr.VPN(1<<27 + rng.Uint64n(1<<16))
		n := rng.Uint64n(2048) + 1
		switch rng.Uint64n(8) {
		case 0: // ascending run, consecutive frames
			pfn := addr.PFN(rng.Uint64n(1 << 30))
			for k := uint64(0); k < n; k++ {
				set(base+addr.VPN(k), pfn+addr.PFN(k))
			}
		case 1: // descending run, scattered frames
			for k := uint64(0); k < n; k++ {
				set(base-addr.VPN(k), addr.PFN(rng.Uint64n(1<<30)))
			}
		case 2: // every other page
			for k := uint64(0); k < n; k++ {
				set(base+addr.VPN(2*k), addr.PFN(rng.Uint64n(1<<30)))
			}
		case 3: // scattered keys
			for k := uint64(0); k < n/16+1; k++ {
				set(spanLo+addr.VPN(rng.Uint64n(span)), addr.PFN(rng.Uint64n(1<<30)))
			}
		case 4: // a range, possibly over chunk boundaries
			pfn := addr.PFN(rng.Uint64n(1 << 30))
			clear := true
			for k := uint64(0); k < n; k++ {
				if _, ok := huge[(base+addr.VPN(k))&^(addr.EntriesPerTable-1)]; ok {
					clear = false
				}
			}
			if !clear {
				break
			}
			var want uint64
			for k := uint64(0); k < n; k++ {
				if _, ok := model[base+addr.VPN(k)]; !ok {
					want++
				}
				model[base+addr.VPN(k)] = pfn + addr.PFN(k)
			}
			if got := s.mapRange(base, n, pfn); got != want {
				t.Fatalf("mapRange(%#x, %d) fresh = %d, want %d", uint64(base), n, got, want)
			}
		case 5: // a huge mapping over an empty (or huge) chunk
			chunk := base &^ (addr.EntriesPerTable - 1)
			empty := true
			for k := addr.VPN(0); k < addr.EntriesPerTable; k++ {
				if _, ok := model[chunk+k]; ok {
					empty = false
				}
			}
			if !empty {
				break
			}
			_, was := huge[chunk]
			pfn := addr.PFN(rng.Uint64n(1 << 30))
			if s.mapHuge(chunk, pfn) == was {
				t.Fatalf("mapHuge(%#x) fresh = %v, was huge: %v", uint64(chunk), !was, was)
			}
			huge[chunk] = pfn
		case 6: // a reservation inside the window, which must change no answer
			s.reserve(base, n)
		default: // removals
			for k := uint64(0); k < n; k++ {
				vpn := base + addr.VPN(k)
				chunk := vpn &^ (addr.EntriesPerTable - 1)
				got, ok := s.unmap(vpn)
				if hp, hok := huge[chunk]; hok {
					if !ok || got != (Entry{PFN: hp, Huge: true}) {
						t.Fatalf("unmap(%#x) = %+v,%v want huge %d", uint64(vpn), got, ok, hp)
					}
					delete(huge, chunk)
					continue
				}
				want, wok := model[vpn]
				if ok != wok || got != (Entry{PFN: want}) && wok {
					t.Fatalf("unmap(%#x) = %+v,%v want %d,%v", uint64(vpn), got, ok, want, wok)
				}
				delete(model, vpn)
			}
		}
		pages := s.audit(t)
		if want := uint64(len(model) + len(huge)*addr.EntriesPerTable); pages != want {
			t.Fatalf("round %d: store holds %d pages, model %d", round, pages, want)
		}
		for vpn, want := range model {
			if e, ok := s.lookup(vpn); !ok || e != (Entry{PFN: want}) || !s.present(vpn) {
				t.Fatalf("round %d: lookup(%#x) = %+v,%v want %d", round, uint64(vpn), e, ok, want)
			}
		}
		for chunk, want := range huge {
			v := chunk + addr.VPN(rng.Uint64n(addr.EntriesPerTable))
			if e, ok := s.lookup(v); !ok || e != (Entry{PFN: want, Huge: true}) {
				t.Fatalf("round %d: lookup(%#x) = %+v,%v want huge %d", round, uint64(v), e, ok, want)
			}
		}
	}
	if s.present(addr.VPN(1) << 45) {
		t.Error("present of an unmapped far key")
	}
	chunks := map[addr.VPN]bool{}
	for vpn := range model {
		chunks[vpn>>addr.LevelBits] = true
	}
	if per := float64(s.bytes()) / float64(len(chunks)+len(huge)); per > 8*1024 {
		t.Errorf("store holds %.1f B per chunk, want <= 8 KB", per)
	}
}

// TestFrameStoreExtents pins when a chunk's frame array materializes:
// never for a chunk mapped base+i, whether in one run, page by page, or
// over a chunk boundary; on the first mapping off that line; and it is
// dropped again when a run remaps every present page, or the chunk
// empties and is re-mapped from another base. The chunks are reserved
// first, as the OS model does, so the emptied record stays readable in
// the window.
func TestFrameStoreExtents(t *testing.T) {
	var s frameStore
	const c0 = addr.VPN(1) << 27
	s.reserve(c0, 2*addr.EntriesPerTable)
	s.mapRange(c0+256, addr.EntriesPerTable, 5000) // straddles two chunks
	for k := addr.VPN(0); k < 256; k++ {
		s.mapRange(c0+k, 1, 5000-256+addr.PFN(k)) // page by page below it
	}
	if s.arrays != 0 {
		t.Fatalf("contiguous mappings spelled %d frame arrays", s.arrays)
	}
	s.mapRange(c0+7, 1, 99) // remap inside the extent
	if s.arrays != 1 {
		t.Fatalf("remap inside an extent: %d arrays, want 1", s.arrays)
	}
	for _, c := range []struct {
		vpn addr.VPN
		pfn addr.PFN
	}{{c0 + 7, 99}, {c0 + 8, 5000 - 256 + 8}, {c0 + 600, 5000 + 600 - 256}} {
		if e, ok := s.lookup(c.vpn); !ok || e.PFN != c.pfn {
			t.Fatalf("lookup(%#x) = %+v,%v want %d", uint64(c.vpn), e, ok, c.pfn)
		}
	}
	s.mapRange(c0, addr.EntriesPerTable, 8000) // remap the whole chunk
	if s.arrays != 0 {
		t.Fatalf("whole-chunk remap kept %d arrays", s.arrays)
	}
	s.mapRange(c0+3, 1, 1) // break it again, then empty the chunk
	for k := addr.VPN(0); k < addr.EntriesPerTable; k++ {
		s.unmap(c0 + k)
	}
	if s.arrays != 0 || s.rec(uint64(c0)>>addr.LevelBits).n != 0 {
		t.Fatalf("emptied chunk keeps %d arrays", s.arrays)
	}
	s.mapRange(c0+10, 20, 300) // re-map from another base
	if e, _ := s.lookup(c0 + 12); s.arrays != 0 || e.PFN != 302 {
		t.Fatalf("re-mapped chunk: %d arrays, lookup %+v", s.arrays, e)
	}
	s.audit(t)
}

// TestFrameStoreReservedDemandOrder reserves the pr workload's default
// heap (5738 chunks) as a few ascending regions, the way the OS model's
// allocations do, then faults one page per chunk in shuffled order:
// every fault must land in the window, which the reservations alone
// size to the heap.
func TestFrameStoreReservedDemandOrder(t *testing.T) {
	var s frameStore
	rng := xrand.New(7)
	for off := uint64(0); off < heapChunks; {
		n := min(rng.Uint64n(2048)+1, heapChunks-off)
		s.reserve(heapBase+addr.VPN(off*addr.EntriesPerTable), n*addr.EntriesPerTable)
		off += n
	}
	order := make([]int, heapChunks)
	rng.Perm(order)
	for k, c := range order {
		vpn := heapBase + addr.VPN(uint64(c)*addr.EntriesPerTable+rng.Uint64n(addr.EntriesPerTable))
		s.mapRange(vpn, 1, addr.PFN(k))
	}
	if pages := s.audit(t); pages != heapChunks || len(s.dense) != heapChunks {
		t.Fatalf("store holds %d pages in a %d-chunk window, want %d in %d", pages, len(s.dense), heapChunks, heapChunks)
	}
}

// TestFrameStoreRejectsOutOfWindow pins the window's three panics, each
// naming the VPN at fault, on every table: a mapping into an unreserved
// chunk, a reservation below the window, and a reservation reaching
// maxVPN. The panics leave the table's mappings as they were, except a
// run that leaves the window, which comes last. A reservation ending
// just below maxVPN is accepted.
func TestFrameStoreRejectsOutOfWindow(t *testing.T) {
	wantPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			msg, _ := recover().(string)
			if !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q, want one naming %s", name, msg, want)
			}
		}()
		f()
	}
	for _, mk := range []func() Table{
		func() Table { return NewRadix(newAlloc()) },
		func() Table { return NewFlattened(newAlloc()) },
		func() Table { return NewCuckoo(newAlloc(), 512) },
	} {
		tab := mk()
		tab.Reserve(heapBase, 2*addr.EntriesPerTable)
		tab.Map(heapBase+addr.EntriesPerTable+3, 7)
		kind := tab.Kind()
		wantPanic(kind+" map past the window", "0x8000400", func() { tab.Map(heapBase+2*addr.EntriesPerTable, 1) })
		wantPanic(kind+" map below the window", "0x7ffffff", func() { tab.Map(heapBase-1, 1) })
		wantPanic(kind+" reserve below the window", "0x7fffe00", func() { tab.Reserve(heapBase-addr.EntriesPerTable, 1) })
		wantPanic(kind+" reserve reaching maxVPN", "0xfffffe00", func() { tab.Reserve(maxVPN-addr.EntriesPerTable, addr.EntriesPerTable+1) })
		wantPanic(kind+" reserve overflowing", "0x8000000", func() { tab.Reserve(heapBase, ^uint64(0)) })
		if e, ok := tab.Lookup(heapBase + addr.EntriesPerTable + 3); !ok || e.PFN != 7 || tab.MappedPages() != 1 {
			t.Errorf("%s: after the panics Lookup = %+v,%v, MappedPages %d", kind, e, ok, tab.MappedPages())
		}
		for _, v := range []addr.VPN{heapBase - 1, heapBase + 2*addr.EntriesPerTable, maxVPN, 1 << 40} {
			if tab.Present(v) {
				t.Errorf("%s: Present(%#x) outside the window", kind, uint64(v))
			}
		}
		wantPanic(kind+" run over the window's end", "0x8000400", func() {
			tab.MapRange(heapBase+2*addr.EntriesPerTable-1, 2, 1)
		})
	}
	var s frameStore
	s.reserve(maxVPN-addr.EntriesPerTable, addr.EntriesPerTable)
	s.mapRange(maxVPN-1, 1, 9)
	if e, ok := s.lookup(maxVPN - 1); !ok || e.PFN != 9 {
		t.Errorf("last page below maxVPN: lookup = %+v,%v", e, ok)
	}
}
