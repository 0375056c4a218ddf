package pagetable

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/bits"
	"testing"

	"ndpage/internal/addr"
	"ndpage/internal/phys"
	"ndpage/internal/xrand"
)

// cuckooPlacementGolden is the FNV-64a digest of runCuckooPlacement,
// captured when MapRange began to queue its pages for the bulk build
// (sim.ModelVersion 2); the one-page-at-a-time build before it digested
// to 0x7a377d5afa72978e. Any change to slot placement, resize or
// migration points, or backing frames moves it.
const cuckooPlacementGolden = 0xefa97c269a30c1c4

// runCuckooPlacement drives a cuckoo table from 256 slots per way through
// a seeded mix of Map, MapRange, remap, Unmap and WalkInto, calling check
// with the op's VPN after every op, and returns a digest of every Unmap
// and walk result plus the final Stats, load factors, Occupancy and
// allocator Stats. The sequence forces a resize (forceResize) once.
// Keys lie below 2^20 and runs reach at most 511 pages past them, so the
// table reserves [0, 2^20+512) first; reserving takes no frames.
func runCuckooPlacement(check func(op int, c *Cuckoo, vpn addr.VPN)) uint64 {
	alloc := phys.New(1 << 30)
	c := NewCuckoo(alloc, 256)
	c.Reserve(0, 1<<20+addr.EntriesPerTable)
	rng := xrand.New(28)
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	var keys []addr.VPN
	pick := func() addr.VPN {
		if len(keys) == 0 || rng.Uint64n(8) == 0 {
			return addr.VPN(rng.Uint64n(1 << 20))
		}
		return keys[rng.Uint64n(uint64(len(keys)))]
	}
	var w Walk
	for op := 0; op < 20000; op++ {
		var vpn addr.VPN
		switch r := rng.Uint64n(16); {
		case r < 6: // fresh page
			vpn = addr.VPN(rng.Uint64n(1 << 20))
			c.Map(vpn, addr.PFN(rng.Uint64n(1<<22)))
			keys = append(keys, vpn)
		case r < 7: // a run of pages
			vpn = addr.VPN(rng.Uint64n(1 << 20))
			count := rng.Uint64n(addr.EntriesPerTable) + 1
			c.MapRange(vpn, count, addr.PFN(rng.Uint64n(1<<22)))
			keys = append(keys, vpn, vpn+addr.VPN(count-1))
		case r < 9: // remap in place
			vpn = pick()
			c.Map(vpn, addr.PFN(rng.Uint64n(1<<22)))
		case r < 11:
			vpn = pick()
			e, ok := c.Unmap(vpn)
			put(uint64(e.PFN))
			if ok {
				put(1)
			}
		default:
			vpn = pick()
			c.WalkInto(vpn.Addr()+addr.V(rng.Uint64n(addr.PageSize)), &w)
			for _, a := range w.Par {
				put(uint64(a.PA))
			}
			if w.Found {
				put(1)
			}
			put(uint64(int64(w.FoundIdx)))
			put(uint64(w.Entry.PFN))
		}
		if check != nil {
			check(op, c, vpn)
		}
	}
	s := c.Stats()
	put(s.Inserts)
	put(s.Kicks)
	put(s.Resizes)
	put(s.Migrated)
	for _, lf := range loadFactors(c) {
		put(math.Float64bits(lf))
	}
	for _, o := range c.Occupancy() {
		put(uint64(o.Level))
		put(o.Nodes)
		put(o.EntriesUsed)
		put(o.Capacity)
	}
	a := alloc.Stats()
	put(a.FrameAllocs)
	put(a.HugeAllocs)
	put(a.HugeFailures)
	put(a.Frees)
	put(a.FragmentFrames)
	put(a.AllocatedFrames)
	return h.Sum64()
}

// TestCuckooPlacementGolden pins where the cuckoo table places every
// entry, when it resizes and migrates, and which frames back it, and
// checks the slot/store invariant along the way.
func TestCuckooPlacementGolden(t *testing.T) {
	got := runCuckooPlacement(func(op int, c *Cuckoo, vpn addr.VPN) {
		checkCuckooStore(t, c, vpn, op%1024 == 0)
	})
	if got != cuckooPlacementGolden {
		t.Errorf("placement digest = %#x, want %#x", got, uint64(cuckooPlacementGolden))
	}
}

// liveSlots calls f for every occupied slot of every way. Every
// occupied slot is live: migrating a tag clears its old slot's bit.
func (c *Cuckoo) liveSlots(f func(way *cuckooWay, idx int)) {
	for i := range c.ways {
		way := &c.ways[i]
		for w, word := range way.occ {
			for ; word != 0; word &= word - 1 {
				f(way, w*64+bits.TrailingZeros64(word))
			}
		}
	}
}

// liveCount counts what liveSlots visits, a word at a time.
func (c *Cuckoo) liveCount() uint64 {
	var n uint64
	for i := range c.ways {
		for _, word := range c.ways[i].occ {
			n += uint64(bits.OnesCount64(word))
		}
	}
	return n
}

// checkCuckooStore places any queued tags, then asserts that the slots
// and the frame store agree: as many live occupied slots as
// MappedPages and store pages, and Present(vpn) agrees with
// Lookup(vpn). No way past its threshold may be left without a resize
// under way. With full set it also resolves
// every live tag through Lookup, checks that probe finds it where it
// sits, and audits the store's layout, which costs time proportional to
// the table.
func checkCuckooStore(t *testing.T, c *Cuckoo, vpn addr.VPN, full bool) {
	t.Helper()
	c.settle()
	if n := c.liveCount(); n != c.MappedPages() || n != c.frames.pages() {
		t.Fatalf("%d live slots, MappedPages %d, store pages %d", n, c.MappedPages(), c.frames.pages())
	}
	if _, ok := c.Lookup(vpn); c.Present(vpn) != ok {
		t.Fatalf("Present(%#x) = %v, Lookup says %v", uint64(vpn), !ok, ok)
	}
	for i := range c.ways {
		if way := &c.ways[i]; !way.resizing && way.count > way.resizeAt {
			t.Fatalf("way %d holds %d tags, past its threshold %d, and is not resizing", i, way.count, way.resizeAt)
		}
	}
	if !full {
		return
	}
	c.liveSlots(func(way *cuckooWay, idx int) {
		vpn := way.tag(idx)
		if !c.Present(vpn) {
			t.Fatalf("occupied tag %#x does not resolve through Lookup", uint64(vpn))
		}
		if p := way.probe(vpn); p != idx {
			t.Fatalf("tag %#x sits in slot %d, but probe finds slot %d", uint64(vpn), idx, p)
		}
	})
	if n := c.frames.audit(t); n != c.MappedPages() {
		t.Fatalf("store holds %d pages, MappedPages %d", n, c.MappedPages())
	}
}
