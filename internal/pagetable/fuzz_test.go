package pagetable

import (
	"testing"

	"ndpage/internal/addr"
	"ndpage/internal/phys"
)

// fuzzChunks are the 2 MB chunks FuzzTableOps maps into: four adjacent
// chunks, two on each side of a flattened-node boundary, one in the
// middle of the node after it, and one at VPN 1<<28, under the next PL4
// entry. Their hull spans 515 chunks.
var fuzzChunks = [...]addr.VPN{
	flatEdge - 2*addr.EntriesPerTable,
	flatEdge - addr.EntriesPerTable,
	flatEdge,
	flatEdge + addr.EntriesPerTable,
	flatEdge + addr.FlatEntries/2,
	flatEdge + addr.FlatEntries,
}

// flatEdge is the flattened-node boundary the first four fuzzed chunks
// straddle: the last flat node below VPN 1<<28.
const flatEdge = addr.VPN(1)<<28 - addr.FlatEntries

// Fuzz op kinds.
const (
	opMap = iota
	opMapRange
	opMapHuge
	opUnmap
	opWalk
	numOps
)

// fuzzOpBytes is the encoded size of one op.
const fuzzOpBytes = 6

// fuzzOp is one decoded operation. arg sets the run length of MapRange
// and Unmap, and the frame: an even arg maps page i of the chunk to
// frame (arg/2 mod 4)<<16 + i, one of four extents a mapping may land on
// or off; an odd arg picks frame arg/2 outright.
type fuzzOp struct {
	kind, chunk byte
	page, arg   uint16
}

func (o fuzzOp) encode() []byte {
	return []byte{o.kind, o.chunk, byte(o.page), byte(o.page >> 8), byte(o.arg), byte(o.arg >> 8)}
}

func decodeFuzzOps(data []byte) []fuzzOp {
	var ops []fuzzOp
	for ; len(data) >= fuzzOpBytes; data = data[fuzzOpBytes:] {
		ops = append(ops, fuzzOp{
			kind:  data[0] % numOps,
			chunk: data[1] % byte(len(fuzzChunks)),
			page:  (uint16(data[2]) | uint16(data[3])<<8) % addr.EntriesPerTable,
			arg:   uint16(data[4]) | uint16(data[5])<<8,
		})
	}
	return ops
}

func (o fuzzOp) vpn() addr.VPN { return fuzzChunks[o.chunk] + addr.VPN(o.page) }

// count is the run length of a MapRange or Unmap: up to a little over
// two chunks.
func (o fuzzOp) count() uint64 { return uint64(o.arg)%1100 + 1 }

func (o fuzzOp) pfn() addr.PFN {
	if o.arg&1 != 0 {
		return addr.PFN(o.arg >> 1)
	}
	return addr.PFN(o.arg>>1&3)<<16 + addr.PFN(o.page)
}

// fuzzPair is a production table and the reference it must match, with
// a walk buffer for each.
type fuzzPair struct {
	name      string
	wg, ww    *Walk
	got, want interface {
		Map(addr.VPN, addr.PFN)
		MapRange(addr.VPN, uint64, addr.PFN)
		Lookup(addr.VPN) (Entry, bool)
		Present(addr.VPN) bool
		Unmap(addr.VPN) (Entry, bool)
		WalkInto(addr.V, *Walk)
		Occupancy() []LevelOccupancy
		MappedPages() uint64
	}
}

// check compares the pair on vpn's translation and walk.
func (p fuzzPair) check(t *testing.T, op int, vpn addr.VPN) {
	p.checkLookup(t, op, vpn)
	p.checkWalk(t, op, vpn)
}

// checkLookup compares the pair on vpn's translation. Lookup and
// Present read the frame store only, so ECH keeps MapRange's pages
// queued across it.
func (p fuzzPair) checkLookup(t *testing.T, op int, vpn addr.VPN) {
	eg, okg := p.got.Lookup(vpn)
	ew, okw := p.want.Lookup(vpn)
	if okg != okw || eg != ew || p.got.Present(vpn) != okw {
		t.Fatalf("%s op %d: Lookup(%#x) = %+v,%v Present %v; want %+v,%v",
			p.name, op, uint64(vpn), eg, okg, p.got.Present(vpn), ew, okw)
	}
}

// checkWalk compares the pair on vpn's walk, which places any queued
// ECH tags first.
func (p fuzzPair) checkWalk(t *testing.T, op int, vpn addr.VPN) {
	wg, ww := p.wg, p.ww
	v := vpn.Addr() + addr.V(uint64(vpn)%addr.PageSize)
	p.got.WalkInto(v, wg)
	p.want.WalkInto(v, ww)
	if wg.Found != ww.Found || wg.Entry != ww.Entry || wg.FoundIdx != ww.FoundIdx ||
		!sameAccesses(wg.Seq, ww.Seq) || !sameAccesses(wg.Par, ww.Par) {
		t.Fatalf("%s op %d: WalkInto(%#x) = %+v, want %+v", p.name, op, uint64(v), wg, ww)
	}
}

// checkCounts compares the pair's whole-table counts.
func (p fuzzPair) checkCounts(t *testing.T, op int) {
	if g, w := p.got.MappedPages(), p.want.MappedPages(); g != w {
		t.Fatalf("%s op %d: MappedPages = %d, want %d", p.name, op, g, w)
	}
	og, ow := p.got.Occupancy(), p.want.Occupancy()
	if len(og) != len(ow) {
		t.Fatalf("%s op %d: Occupancy = %+v, want %+v", p.name, op, og, ow)
	}
	for i := range og {
		if og[i] != ow[i] {
			t.Fatalf("%s op %d: Occupancy = %+v, want %+v", p.name, op, og, ow)
		}
	}
}

func sameAccesses(a, b []Access) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runTableOps applies ops to Radix, Flattened and Cuckoo and to their
// references. It compares every pair's translations after every op,
// walks the op's page on an opWalk, compares walks and whole-table
// counts after every fourth op, and sweeps every page of every chunk at
// the end, where it also audits each frame store. Walks and counts read
// ECH's slot state, which places its queued tags, so the sparser
// cadence lets several MapRanges queue runs for one bulk build.
// Each table first reserves the chunks' hull and the three chunks past
// the last, which a run from it can reach. Radix skips the ops that
// would panic on it: a 4 KB map under a 2 MB leaf, or a 2 MB map over a
// PL1 node.
func runTableOps(t *testing.T, ops []fuzzOp) {
	radix, refR := NewRadix(phys.New(1<<30)), newRefRadix(phys.New(1<<30))
	flat, cuckoo := NewFlattened(phys.New(1<<30)), NewCuckoo(phys.New(1<<30), 256)
	lo, hi := fuzzChunks[0], fuzzChunks[len(fuzzChunks)-1]+4*addr.EntriesPerTable
	for _, tab := range []Table{radix, flat, cuckoo} {
		tab.Reserve(lo, uint64(hi-lo))
	}
	pairs := []fuzzPair{
		{"radix", new(Walk), new(Walk), radix, refR},
		{"flattened", new(Walk), new(Walk), flat, newRefFlattened(phys.New(1 << 30))},
		{"cuckoo", new(Walk), new(Walk), cuckoo, newRefCuckoo(phys.New(1<<30), 256)},
	}
	underHuge := func(vpn addr.VPN, count uint64) bool {
		for k := uint64(0); k < count; k += addr.EntriesPerTable {
			if refR.hugeAt(vpn + addr.VPN(k)) {
				return true
			}
		}
		return refR.hugeAt(vpn + addr.VPN(count-1))
	}
	for i, o := range ops {
		vpn := o.vpn()
		for _, p := range pairs {
			isRadix := p.name == "radix"
			switch o.kind {
			case opMap:
				if isRadix && underHuge(vpn, 1) {
					continue
				}
				p.got.Map(vpn, o.pfn())
				p.want.Map(vpn, o.pfn())
			case opMapRange:
				if isRadix && underHuge(vpn, o.count()) {
					continue
				}
				p.got.MapRange(vpn, o.count(), o.pfn())
				p.want.MapRange(vpn, o.count(), o.pfn())
			case opMapHuge:
				chunk := fuzzChunks[o.chunk]
				if !isRadix || refR.leafAt(chunk) {
					continue
				}
				radix.MapHuge(chunk, o.pfn()-addr.PFN(o.page))
				refR.MapHuge(chunk, o.pfn()-addr.PFN(o.page))
			case opUnmap:
				for k := uint64(0); k < o.count(); k++ {
					v := vpn + addr.VPN(k)
					eg, okg := p.got.Unmap(v)
					ew, okw := p.want.Unmap(v)
					if okg != okw || eg != ew {
						t.Fatalf("%s op %d: Unmap(%#x) = %+v,%v want %+v,%v", p.name, i, uint64(v), eg, okg, ew, okw)
					}
				}
			}
			p.checkLookup(t, i, vpn)
			if o.kind == opMapRange || o.kind == opUnmap {
				p.checkLookup(t, i, vpn+addr.VPN(o.count()-1))
			}
			if o.kind == opWalk || i%4 == 3 {
				p.checkWalk(t, i, vpn)
			}
			if i%4 == 3 {
				p.checkCounts(t, i)
			}
		}
	}
	for _, p := range pairs {
		for _, chunk := range fuzzChunks {
			for k := addr.VPN(0); k < addr.EntriesPerTable; k++ {
				p.check(t, len(ops), chunk+k)
			}
		}
	}
	for _, tab := range []struct {
		s *frameStore
		t Table
	}{{&radix.frames, radix}, {&flat.frames, flat}, {&cuckoo.frames, cuckoo}} {
		if pages := tab.s.audit(t); pages != tab.t.MappedPages() {
			t.Fatalf("%s store holds %d pages, MappedPages %d", tab.t.Kind(), pages, tab.t.MappedPages())
		}
	}
}

// fuzzSeeds are the frame store's edge cases, and one multi-run ECH
// bulk build.
var fuzzSeeds = [][]fuzzOp{
	// A remap inside an extent, then walks on and off the remapped page.
	{{opMapRange, 0, 0, 511}, {opMap, 0, 7, 99}, {opWalk, 0, 7, 0}, {opWalk, 0, 8, 0}},
	// A whole chunk unmapped and re-mapped from another base.
	{{opMapRange, 1, 0, 511}, {opUnmap, 1, 0, 511}, {opMapRange, 1, 0, 1611}, {opWalk, 1, 300, 0}},
	// A MapRange straddling two chunks, then one page of each remapped.
	{{opMapRange, 0, 300, 399}, {opMap, 0, 301, 5}, {opMap, 1, 10, 7}, {opWalk, 1, 150, 0}},
	// MapHuge, then Unmap of one page removes it; a 4 KB map follows.
	{{opMapHuge, 2, 5, 4}, {opWalk, 2, 9, 0}, {opUnmap, 2, 5, 0}, {opMap, 2, 6, 6}, {opMapHuge, 2, 0, 0}},
	// Scattered single pages mid-node and under the next PL4 entry.
	{{opMap, 4, 1, 3}, {opMap, 4, 2, 9}, {opMap, 5, 511, 0}, {opUnmap, 4, 1, 1}, {opWalk, 5, 511, 0}},
	// A MapRange across the flattened-node boundary, a remap past it,
	// an Unmap run back across it, and a MapRange from the last chunk
	// into the reserved chunks past it.
	{{opMapRange, 1, 400, 399}, {opMap, 2, 5, 8}, {opWalk, 2, 6, 0}, {opUnmap, 1, 500, 199},
		{opWalk, 1, 600, 0}, {opMapRange, 5, 500, 1099}, {opWalk, 5, 511, 0}, {opUnmap, 5, 400, 1099}},
	// Three MapRanges, the last over a page Map placed, queue four runs
	// that one ECH bulk build places at the fourth op's walk.
	{{opMap, 3, 5, 1}, {opMapRange, 0, 10, 99}, {opMapRange, 2, 300, 48}, {opMapRange, 3, 0, 21}, {opWalk, 3, 5, 0}},
}

// FuzzTableOps decodes its input into Map, MapRange, MapHuge (Radix
// only), Unmap and WalkInto sequences over a few reserved chunks and
// requires each table to match its reference on Lookup and Present
// after every op, and on WalkInto accesses, MappedPages and Occupancy
// at runTableOps' cadence.
func FuzzTableOps(f *testing.F) {
	for _, seed := range fuzzSeeds {
		var data []byte
		for _, o := range seed {
			data = append(data, o.encode()...)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64*fuzzOpBytes {
			data = data[:64*fuzzOpBytes]
		}
		runTableOps(t, decodeFuzzOps(data))
	})
}
