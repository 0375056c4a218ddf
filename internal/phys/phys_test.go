package phys

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"

	"ndpage/internal/addr"
	"ndpage/internal/xrand"
)

const testMem = 64 << 20 // 64 MB = 16384 frames = 32 huge blocks

func TestNewAccounting(t *testing.T) {
	a := New(testMem)
	if got := a.TotalFrames(); got != testMem/addr.PageSize {
		t.Fatalf("TotalFrames = %d", got)
	}
	if a.FreeFrames() != a.TotalFrames() {
		t.Fatal("fresh allocator must be fully free")
	}
	if got := a.IntactHugeBlocks(); got != testMem/addr.HugePageSize {
		t.Fatalf("IntactHugeBlocks = %d, want %d", got, testMem/addr.HugePageSize)
	}
}

func TestNewRejectsBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(4096) should panic: not a 2MB multiple")
		}
	}()
	New(4096)
}

func TestAllocFrameUnique(t *testing.T) {
	a := New(testMem)
	seen := map[addr.PFN]bool{}
	for i := uint64(0); i < a.TotalFrames(); i++ {
		pfn, ok := a.AllocFrame()
		if !ok {
			t.Fatalf("allocation %d failed with %d frames free", i, a.FreeFrames())
		}
		if seen[pfn] {
			t.Fatalf("frame %d handed out twice", pfn)
		}
		seen[pfn] = true
	}
	if _, ok := a.AllocFrame(); ok {
		t.Fatal("allocation succeeded from an exhausted allocator")
	}
}

func TestAllocHugeAlignment(t *testing.T) {
	a := New(testMem)
	for {
		pfn, ok := a.AllocHuge()
		if !ok {
			break
		}
		if !addr.VPN(pfn).HugeAligned() {
			t.Fatalf("huge block at frame %d not 2MB-aligned", pfn)
		}
	}
	if a.FreeFrames() != 0 {
		t.Fatalf("%d frames stranded after exhausting huge blocks", a.FreeFrames())
	}
	if a.Stats().HugeFailures == 0 {
		t.Error("failed huge alloc not counted")
	}
}

func TestFreeCoalescesToHuge(t *testing.T) {
	a := New(testMem)
	var frames []addr.PFN
	for i := uint64(0); i < a.TotalFrames(); i++ {
		pfn, ok := a.AllocFrame()
		if !ok {
			t.Fatal("alloc failed")
		}
		frames = append(frames, pfn)
	}
	if a.IntactHugeBlocks() != 0 {
		t.Fatal("no huge blocks should remain")
	}
	for _, pfn := range frames {
		a.Free(pfn)
	}
	if got := a.IntactHugeBlocks(); got != testMem/addr.HugePageSize {
		t.Fatalf("after freeing everything: %d intact huge blocks, want %d",
			got, testMem/addr.HugePageSize)
	}
	if a.FreeFrames() != a.TotalFrames() {
		t.Fatal("frame accounting leaked")
	}
}

func TestFreeUnallocatedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Free of unallocated frame should panic")
		}
	}()
	New(testMem).Free(addr.PFN(3))
}

func TestMixedOrderRoundTrip(t *testing.T) {
	a := New(testMem)
	type block struct {
		pfn   addr.PFN
		order int
	}
	rng := xrand.New(5)
	var blocks []block
	for i := 0; i < 200; i++ {
		o := rng.Intn(MaxOrder + 1)
		if pfn, ok := a.AllocOrder(o); ok {
			blocks = append(blocks, block{pfn, o})
		}
	}
	// Free in shuffled order.
	perm := make([]int, len(blocks))
	rng.Perm(perm)
	for _, i := range perm {
		a.Free(blocks[i].pfn)
	}
	if a.FreeFrames() != a.TotalFrames() {
		t.Fatalf("leak: %d free of %d", a.FreeFrames(), a.TotalFrames())
	}
	if got := a.IntactHugeBlocks(); got != testMem/addr.HugePageSize {
		t.Fatalf("coalescing incomplete: %d huge blocks", got)
	}
}

func TestAllocAt(t *testing.T) {
	a := New(testMem)
	if !a.AllocAt(addr.PFN(1000)) {
		t.Fatal("AllocAt on free memory failed")
	}
	if a.AllocAt(addr.PFN(1000)) {
		t.Fatal("AllocAt twice on same frame succeeded")
	}
	if a.AllocAt(addr.PFN(a.TotalFrames())) {
		t.Fatal("AllocAt out of range succeeded")
	}
	// The hole must have destroyed exactly one huge block.
	if got := a.IntactHugeBlocks(); got != testMem/addr.HugePageSize-1 {
		t.Fatalf("IntactHugeBlocks = %d after one hole", got)
	}
	// Freeing the hole restores it.
	a.Free(addr.PFN(1000))
	if got := a.IntactHugeBlocks(); got != testMem/addr.HugePageSize {
		t.Fatalf("IntactHugeBlocks = %d after healing", got)
	}
}

func TestAllocAtThenFrameAllocNoOverlap(t *testing.T) {
	a := New(testMem)
	a.AllocAt(addr.PFN(7))
	seen := map[addr.PFN]bool{7: true}
	for {
		pfn, ok := a.AllocFrame()
		if !ok {
			break
		}
		if seen[pfn] {
			t.Fatalf("frame %d double-allocated", pfn)
		}
		seen[pfn] = true
	}
	if uint64(len(seen)) != a.TotalFrames() {
		t.Fatalf("allocated %d frames, want %d", len(seen), a.TotalFrames())
	}
}

func TestInjectFragmentationDestroysContiguity(t *testing.T) {
	a := New(testMem)
	blocks := testMem / addr.HugePageSize
	claimed := a.InjectFragmentation(xrand.New(1), blocks*4, 1)
	if claimed == 0 {
		t.Fatal("no frames claimed")
	}
	got := a.IntactHugeBlocks()
	if got >= blocks/2 {
		t.Errorf("fragmentation too weak: %d of %d huge blocks intact", got, blocks)
	}
	// Frame-level allocation must still serve everything that is free.
	free := a.FreeFrames()
	for i := uint64(0); i < free; i++ {
		if _, ok := a.AllocFrame(); !ok {
			t.Fatalf("frame alloc %d of %d failed after fragmentation", i, free)
		}
	}
}

func TestInjectFragmentationDeterministic(t *testing.T) {
	a1, a2 := New(testMem), New(testMem)
	c1 := a1.InjectFragmentation(xrand.New(42), 100, 3)
	c2 := a2.InjectFragmentation(xrand.New(42), 100, 3)
	if c1 != c2 || a1.IntactHugeBlocks() != a2.IntactHugeBlocks() {
		t.Error("fragmentation injection is not deterministic")
	}
}

// Property: for any interleaving of small allocations and frees, the free
// frame count is consistent and nothing is handed out twice.
func TestAllocFreeProperty(t *testing.T) {
	f := func(ops []byte) bool {
		a := New(8 << 20) // small: 2048 frames
		live := map[addr.PFN]bool{}
		var order []addr.PFN
		for _, op := range ops {
			if op%3 != 0 || len(order) == 0 {
				if pfn, ok := a.AllocFrame(); ok {
					if live[pfn] {
						return false
					}
					live[pfn] = true
					order = append(order, pfn)
				}
			} else {
				pfn := order[len(order)-1]
				order = order[:len(order)-1]
				delete(live, pfn)
				a.Free(pfn)
			}
		}
		return a.FreeFrames() == a.TotalFrames()-uint64(len(live))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestHugeCounterTracksExactly checks the O(1) intact-block counter
// against a scan of the reference allocator's free set, over random
// huge, frame, AllocAt and Free operations.
func TestHugeCounterTracksExactly(t *testing.T) {
	a, ref := New(testMem), newRefAllocator(testMem)
	count := func() int {
		n := 0
		for _, o := range ref.freeOrder {
			if o == MaxOrder {
				n++
			}
		}
		return n
	}
	rng := xrand.New(77)
	var blocks []addr.PFN
	for i := 0; i < 500; i++ {
		switch rng.Intn(4) {
		case 0:
			pfn, ok := a.AllocHuge()
			ref.AllocHuge()
			if ok {
				blocks = append(blocks, pfn)
			}
		case 1:
			pfn, ok := a.AllocFrame()
			ref.AllocFrame()
			if ok {
				blocks = append(blocks, pfn)
			}
		case 2:
			pfn := addr.PFN(rng.Uint64n(a.TotalFrames()))
			a.AllocAt(pfn)
			ref.AllocAt(pfn)
		case 3:
			if len(blocks) > 0 {
				a.Free(blocks[len(blocks)-1])
				ref.Free(blocks[len(blocks)-1])
				blocks = blocks[:len(blocks)-1]
			}
		}
		if got, want := a.IntactHugeBlocks(), count(); got != want {
			t.Fatalf("step %d: counter %d != scan %d", i, got, want)
		}
	}
}

func TestContiguityRatio(t *testing.T) {
	a := New(testMem)
	if a.ContiguityRatio() != 1.0 {
		t.Fatalf("fresh ratio = %v", a.ContiguityRatio())
	}
	half := a.TotalHugeBlocks() / 2
	for i := 0; i < half; i++ {
		a.AllocHuge()
	}
	if got := a.ContiguityRatio(); got != 0.5 {
		t.Fatalf("ratio after half = %v", got)
	}
}

// refAllocator is the map-based buddy allocator the bitmap Allocator
// replaced, kept as a test oracle: the same LIFO stacks with lazy
// deletion, with the free and allocated sets held in Go maps. Every
// call sequence must give both the same PFNs, results and counters.
type refAllocator struct {
	totalFrames uint64
	free        [MaxOrder + 1][]uint64
	// freeOrder maps a block start to its order iff the block is free;
	// allocOrder iff it is allocated.
	freeOrder  map[uint64]int
	allocOrder map[uint64]int
	hugeFree   int
	stats      Stats
}

func newRefAllocator(totalBytes uint64) *refAllocator {
	a := &refAllocator{
		totalFrames: totalBytes / addr.PageSize,
		freeOrder:   make(map[uint64]int),
		allocOrder:  make(map[uint64]int),
	}
	for start := uint64(0); start < a.totalFrames; start += 1 << MaxOrder {
		a.push(start, MaxOrder)
	}
	return a
}

func (a *refAllocator) FreeFrames() uint64 { return a.totalFrames - a.stats.AllocatedFrames }

func (a *refAllocator) push(start uint64, order int) {
	a.free[order] = append(a.free[order], start)
	a.freeOrder[start] = order
	if order == MaxOrder {
		a.hugeFree++
	}
}

func (a *refAllocator) removeFree(start uint64, order int) {
	delete(a.freeOrder, start)
	if order == MaxOrder {
		a.hugeFree--
	}
}

func (a *refAllocator) pop(order int) (uint64, bool) {
	stack := a.free[order]
	for len(stack) > 0 {
		start := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if o, ok := a.freeOrder[start]; ok && o == order {
			a.removeFree(start, order)
			a.free[order] = stack
			return start, true
		}
	}
	a.free[order] = stack
	return 0, false
}

func (a *refAllocator) AllocOrder(order int) (addr.PFN, bool) {
	for o := order; o <= MaxOrder; o++ {
		start, ok := a.pop(o)
		if !ok {
			continue
		}
		for o > order {
			o--
			a.push(start+1<<o, o)
		}
		a.allocOrder[start] = order
		a.stats.AllocatedFrames += 1 << order
		return addr.PFN(start), true
	}
	return 0, false
}

func (a *refAllocator) AllocFrame() (addr.PFN, bool) {
	pfn, ok := a.AllocOrder(0)
	if ok {
		a.stats.FrameAllocs++
	}
	return pfn, ok
}

func (a *refAllocator) AllocHuge() (addr.PFN, bool) {
	pfn, ok := a.AllocOrder(MaxOrder)
	if ok {
		a.stats.HugeAllocs++
	} else {
		a.stats.HugeFailures++
	}
	return pfn, ok
}

func (a *refAllocator) Free(pfn addr.PFN) {
	start := uint64(pfn)
	order, ok := a.allocOrder[start]
	if !ok {
		panic(fmt.Sprintf("phys: Free of unallocated frame %#x", start))
	}
	delete(a.allocOrder, start)
	a.stats.AllocatedFrames -= 1 << order
	a.stats.Frees++
	for order < MaxOrder {
		buddy := start ^ (1 << order)
		if o, free := a.freeOrder[buddy]; !free || o != order {
			break
		}
		a.removeFree(buddy, order)
		if buddy < start {
			start = buddy
		}
		order++
	}
	a.push(start, order)
}

func (a *refAllocator) AllocAt(pfn addr.PFN) bool {
	frame := uint64(pfn)
	if frame >= a.totalFrames {
		return false
	}
	for o := 0; o <= MaxOrder; o++ {
		start := frame &^ (1<<o - 1)
		fo, ok := a.freeOrder[start]
		if !ok || fo != o {
			continue
		}
		a.removeFree(start, o)
		for o > 0 {
			o--
			lower, upper := start, start+1<<o
			if frame >= upper {
				a.push(lower, o)
				start = upper
			} else {
				a.push(upper, o)
			}
		}
		a.allocOrder[frame] = 0
		a.stats.AllocatedFrames++
		return true
	}
	return false
}

func (a *refAllocator) InjectFragmentation(rng *xrand.RNG, holes, runLen int) int {
	if runLen <= 0 {
		runLen = 1
	}
	claimed := 0
	for i := 0; i < holes; i++ {
		base := rng.Uint64n(a.totalFrames)
		for j := 0; j < runLen; j++ {
			f := base + uint64(j)
			if f >= a.totalFrames {
				break
			}
			if a.AllocAt(addr.PFN(f)) {
				claimed++
			}
		}
	}
	a.stats.FragmentFrames += uint64(claimed)
	return claimed
}

// runAllocatorOps drives an Allocator and a refAllocator over testMem
// with the operations ops encodes, three bytes each: AllocOrder(0..9),
// AllocFrame, AllocHuge, Free of a live block (three times as likely
// as each other operation, so memory does not stay full), AllocAt
// (sometimes out of range), InjectFragmentation, and Free of a frame
// no allocated block starts at, which both must reject with a panic. After every
// operation it compares results and counters; at the end, the free
// and allocated sets bit for bit.
func runAllocatorOps(t *testing.T, ops []byte) {
	t.Helper()
	a, ref := New(testMem), newRefAllocator(testMem)
	var live []addr.PFN // allocated block starts, in allocation order
	for n := 0; n+3 <= len(ops); n += 3 {
		op, arg := ops[n]%9, uint64(ops[n+1])|uint64(ops[n+2])<<8
		desc := ""
		var got, want any
		switch op {
		case 0:
			o := int(arg % (MaxOrder + 1))
			desc = fmt.Sprintf("AllocOrder(%d)", o)
			pfn, ok := a.AllocOrder(o)
			rpfn, rok := ref.AllocOrder(o)
			got, want = [2]any{pfn, ok}, [2]any{rpfn, rok}
			if ok {
				live = append(live, pfn)
			}
		case 1, 2:
			alloc, refAlloc := a.AllocFrame, ref.AllocFrame
			desc = "AllocFrame"
			if op == 2 {
				alloc, refAlloc, desc = a.AllocHuge, ref.AllocHuge, "AllocHuge"
			}
			pfn, ok := alloc()
			rpfn, rok := refAlloc()
			got, want = [2]any{pfn, ok}, [2]any{rpfn, rok}
			if ok {
				live = append(live, pfn)
			}
		case 3, 4, 5:
			if len(live) == 0 {
				continue
			}
			i := int(arg % uint64(len(live)))
			pfn := live[i]
			live = slices.Delete(live, i, i+1)
			desc = fmt.Sprintf("Free(%#x)", pfn)
			a.Free(pfn)
			ref.Free(pfn)
		case 6:
			pfn := addr.PFN(arg % (ref.totalFrames + 64))
			desc = fmt.Sprintf("AllocAt(%#x)", pfn)
			ok := a.AllocAt(pfn)
			got, want = ok, ref.AllocAt(pfn)
			if ok {
				live = append(live, pfn)
			}
		case 7:
			holes, runLen := int(arg%5), int(arg>>3%6)
			desc = fmt.Sprintf("InjectFragmentation(%d, %d, %d)", arg, holes, runLen)
			got = a.InjectFragmentation(xrand.New(arg), holes, runLen)
			want = ref.InjectFragmentation(xrand.New(arg), holes, runLen)
			// The claimed frames join the live blocks, lowest first.
			known := map[addr.PFN]bool{}
			for _, pfn := range live {
				known[pfn] = true
			}
			var fresh []addr.PFN
			for start := range ref.allocOrder {
				if !known[addr.PFN(start)] {
					fresh = append(fresh, addr.PFN(start))
				}
			}
			slices.Sort(fresh)
			live = append(live, fresh...)
		case 8:
			pfn := addr.PFN(arg % (ref.totalFrames + 64))
			if _, ok := ref.allocOrder[uint64(pfn)]; ok {
				continue
			}
			desc = fmt.Sprintf("Free(%#x) of an unallocated frame", pfn)
			got, want = panics(func() { a.Free(pfn) }), true
			if !panics(func() { ref.Free(pfn) }) {
				t.Fatalf("op %d: reference %s did not panic", n/3, desc)
			}
		}
		if got != want {
			t.Fatalf("op %d: %s = %v, reference %v", n/3, desc, got, want)
		}
		if a.Stats() != ref.stats || a.FreeFrames() != ref.FreeFrames() || a.IntactHugeBlocks() != ref.hugeFree {
			t.Fatalf("op %d: after %s: stats %+v free %d huge %d; reference %+v free %d huge %d",
				n/3, desc, a.Stats(), a.FreeFrames(), a.IntactHugeBlocks(), ref.stats, ref.FreeFrames(), ref.hugeFree)
		}
	}
	checkSets(t, a, ref)
}

// checkSets compares a's free and allocated bits with ref's maps.
func checkSets(t *testing.T, a *Allocator, ref *refAllocator) {
	t.Helper()
	freeBits, allocBits := 0, 0
	for _, w := range a.free2M {
		freeBits += bits.OnesCount64(w)
	}
	for _, w := range a.alloc2M {
		allocBits += bits.OnesCount64(w)
	}
	for _, tree := range a.trees {
		if tree != nil {
			for i := range tree.free {
				freeBits += bits.OnesCount64(tree.free[i])
				allocBits += bits.OnesCount64(tree.alloc[i])
			}
		}
	}
	if freeBits != len(ref.freeOrder) || allocBits != len(ref.allocOrder) {
		t.Fatalf("%d free and %d allocated bits; reference has %d free and %d allocated blocks",
			freeBits, allocBits, len(ref.freeOrder), len(ref.allocOrder))
	}
	for start, o := range ref.freeOrder {
		if !a.isFree(start, o) {
			t.Fatalf("order-%d block %#x free in the reference, not in the allocator", o, start)
		}
	}
	for start, o := range ref.allocOrder {
		if got, ok := a.allocatedOrder(start); !ok || got != o {
			t.Fatalf("block %#x allocated at order %d in the reference; allocator says %d, %v", start, o, got, ok)
		}
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestAllocatorMatchesReference runs random operation streams, several
// seeds of 6000 operations each, against the map-based reference.
func TestAllocatorMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := xrand.New(seed)
		ops := make([]byte, 3*6000)
		for i := range ops {
			ops[i] = byte(rng.Uint64())
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runAllocatorOps(t, ops) })
	}
}

// FuzzAllocator checks the Allocator against the map-based reference
// over fuzzed operation streams.
func FuzzAllocator(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 0, 0, 3, 0, 0, 2, 0, 0, 3, 1, 0})
	f.Add([]byte{4, 0xe8, 0x03, 5, 0x2b, 0x00, 1, 0, 0, 3, 0, 0, 6, 0xe9, 0x03})
	f.Add([]byte{2, 0, 0, 2, 0, 0, 0, 7, 0, 3, 0, 0, 3, 0, 0, 6, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*4096 {
			ops = ops[:3*4096]
		}
		runAllocatorOps(t, ops)
	})
}
