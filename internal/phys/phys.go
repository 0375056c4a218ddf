// Package phys models physical memory as a buddy allocator over 4 KB
// frames with a maximum order of 2 MB (the x86-64 huge-page size).
//
// The allocator serves two roles in the simulator:
//
//  1. It hands out frames for demand paging, so virtual-to-physical
//     mappings are realistic (scattered, allocation-order dependent)
//     rather than identity mappings.
//  2. It is the substrate for the Huge Page mechanism's failure mode: the
//     paper observes (Section VII-B) that at 8 cores Huge Page performs
//     *worse* than the Radix baseline because physical-memory contiguity
//     is rapidly consumed. InjectFragmentation seeds the background
//     fragmentation that, combined with multi-core demand, exhausts
//     intact 2 MB blocks and forces 4 KB fallbacks.
//
// Determinism: free blocks are managed as LIFO stacks with lazy deletion,
// so allocation order is a pure function of the call sequence and the
// injected RNG. Whether a block is free or allocated is kept in bitmaps
// (see Allocator), which the stacks' entries are checked against.
package phys

import (
	"fmt"

	"ndpage/internal/addr"
	"ndpage/internal/bitset"
	"ndpage/internal/xrand"
)

// MaxOrder is the largest buddy order: order 9 blocks are 512 frames,
// i.e. one 2 MB huge page.
const MaxOrder = addr.HugePageShift - addr.PageShift // 9

// Stats summarizes allocator activity.
type Stats struct {
	FrameAllocs     uint64 // successful 4 KB allocations
	HugeAllocs      uint64 // successful 2 MB allocations
	HugeFailures    uint64 // 2 MB allocations that found no intact block
	Frees           uint64 // blocks returned
	FragmentFrames  uint64 // frames consumed by injected background fragmentation
	AllocatedFrames uint64 // frames currently allocated (incl. fragmentation)
}

// Allocator is a buddy allocator over a fixed number of physical frames.
// It is not safe for concurrent use; the simulator is single-threaded.
//
// Block state lives in bitmaps, not maps: one free and one allocated
// bit per 2 MB block for order-MaxOrder blocks, and a buddyTree for
// the smaller blocks inside each 2 MB block, made on the block's first
// split. A 2 MB block with neither bit set is split. Beyond a pointer
// and two bits per 2 MB block, host memory grows with the blocks that
// have been split, not with the frames.
type Allocator struct {
	totalFrames uint64
	// free[o] is a LIFO stack of candidate block starts at order o.
	// Entries may be stale; the free bits are the source of truth.
	free [MaxOrder + 1][]uint64
	// free2M and alloc2M hold one bit per 2 MB block: set iff the
	// block is free, or allocated, as one order-MaxOrder block.
	free2M, alloc2M []uint64
	// trees[b] records the blocks below MaxOrder inside 2 MB block b;
	// nil until b is first split. A tree outlives the split that made
	// it, empty while b is whole. New trees come from slab, treeSlab
	// at a time, so a split costs no host allocation of its own.
	trees []*buddyTree
	slab  []buddyTree
	// hugeFree counts free blocks of exactly MaxOrder, maintained
	// incrementally so the OS model can read contiguity pressure on
	// every fault without scanning.
	hugeFree int
	stats    Stats
}

// buddyTree holds one bit per block of order 0 to MaxOrder-1 inside a
// 2 MB block, at index node(start, order): free's is set iff the block
// is free, alloc's iff it is allocated (Free needs its order).
type buddyTree struct {
	free, alloc [treeWords]uint64
}

// treeSlab is how many buddyTrees one slab allocation holds (16 KB).
const treeSlab = 64

// treeWords covers the 2<<MaxOrder node indices: order o's blocks sit
// at [1<<(MaxOrder-o), 2<<(MaxOrder-o)), so bits 0 and 1 go unused.
const treeWords = 2 << MaxOrder / 64

// node returns the buddyTree bit of the order-order block at start.
func node(start uint64, order int) uint64 {
	return 1<<(MaxOrder-order) + start&(1<<MaxOrder-1)>>order
}

// New returns an allocator managing totalBytes of physical memory.
// totalBytes must be a positive multiple of the huge-page size.
func New(totalBytes uint64) *Allocator {
	if totalBytes == 0 || totalBytes%addr.HugePageSize != 0 {
		panic(fmt.Sprintf("phys: total memory %d is not a positive multiple of 2 MB", totalBytes))
	}
	blocks := totalBytes / addr.HugePageSize
	a := &Allocator{
		totalFrames: totalBytes / addr.PageSize,
		free2M:      make([]uint64, bitset.WordsFor(blocks)),
		alloc2M:     make([]uint64, bitset.WordsFor(blocks)),
		trees:       make([]*buddyTree, blocks),
	}
	for start := uint64(0); start < a.totalFrames; start += 1 << MaxOrder {
		a.push(start, MaxOrder)
	}
	return a
}

// TotalFrames returns the number of 4 KB frames managed.
func (a *Allocator) TotalFrames() uint64 { return a.totalFrames }

// FreeFrames returns the number of currently free 4 KB frames.
func (a *Allocator) FreeFrames() uint64 {
	return a.totalFrames - a.stats.AllocatedFrames
}

// Stats returns a copy of the allocator's counters.
func (a *Allocator) Stats() Stats { return a.stats }

// IntactHugeBlocks returns how many free 2 MB blocks exist, i.e. how many
// more huge pages could be allocated right now. O(1).
func (a *Allocator) IntactHugeBlocks() int { return a.hugeFree }

// TotalHugeBlocks returns the machine's total 2 MB block capacity.
func (a *Allocator) TotalHugeBlocks() int {
	return int(a.totalFrames >> MaxOrder)
}

// ContiguityRatio returns IntactHugeBlocks/TotalHugeBlocks — the signal
// the OS model reads as transparent-huge-page allocation pressure.
func (a *Allocator) ContiguityRatio() float64 {
	return float64(a.hugeFree) / float64(a.TotalHugeBlocks())
}

func (a *Allocator) push(start uint64, order int) {
	a.free[order] = append(a.free[order], start)
	b := start >> MaxOrder
	if order == MaxOrder {
		bitset.SetBit(a.free2M, b)
		a.hugeFree++
		return
	}
	t := a.trees[b]
	if t == nil {
		if len(a.slab) == 0 {
			a.slab = make([]buddyTree, treeSlab)
		}
		t, a.slab = &a.slab[0], a.slab[1:]
		a.trees[b] = t
	}
	bitset.SetBit(t.free[:], node(start, order))
}

// isFree reports whether the block of the given order at start is free.
func (a *Allocator) isFree(start uint64, order int) bool {
	b := start >> MaxOrder
	if order == MaxOrder {
		return bitset.TestBit(a.free2M, b)
	}
	t := a.trees[b]
	return t != nil && bitset.TestBit(t.free[:], node(start, order))
}

// removeFree drops a free block from the free set (lazy stack entries
// are skipped later), maintaining the huge-block counter.
func (a *Allocator) removeFree(start uint64, order int) {
	if order == MaxOrder {
		bitset.ClearBit(a.free2M, start>>MaxOrder)
		a.hugeFree--
		return
	}
	bitset.ClearBit(a.trees[start>>MaxOrder].free[:], node(start, order))
}

// markAllocated records the block of the given order at start as
// allocated. A block below MaxOrder lies in a split 2 MB block, which
// has its tree.
func (a *Allocator) markAllocated(start uint64, order int) {
	if order == MaxOrder {
		bitset.SetBit(a.alloc2M, start>>MaxOrder)
	} else {
		bitset.SetBit(a.trees[start>>MaxOrder].alloc[:], node(start, order))
	}
	a.stats.AllocatedFrames += 1 << order
}

// allocatedOrder returns the order of the allocated block that starts
// at start, and false if no allocated block starts there.
func (a *Allocator) allocatedOrder(start uint64) (int, bool) {
	if start >= a.totalFrames {
		return 0, false
	}
	b := start >> MaxOrder
	if bitset.TestBit(a.alloc2M, b) {
		return MaxOrder, start&(1<<MaxOrder-1) == 0
	}
	t := a.trees[b]
	if t == nil {
		return 0, false
	}
	// Blocks of order o start on multiples of 1<<o.
	for o := 0; o < MaxOrder && start&(1<<o-1) == 0; o++ {
		if bitset.TestBit(t.alloc[:], node(start, o)) {
			return o, true
		}
	}
	return 0, false
}

// pop returns a valid free block of exactly the given order, skipping
// stale stack entries, or false if none exists.
func (a *Allocator) pop(order int) (uint64, bool) {
	stack := a.free[order]
	for len(stack) > 0 {
		start := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if a.isFree(start, order) {
			a.removeFree(start, order)
			a.free[order] = stack
			return start, true
		}
	}
	a.free[order] = stack
	return 0, false
}

// AllocOrder allocates a block of 2^order frames, splitting larger blocks
// as needed. It returns the first frame of the block and whether the
// allocation succeeded.
func (a *Allocator) AllocOrder(order int) (addr.PFN, bool) {
	if order < 0 || order > MaxOrder {
		panic(fmt.Sprintf("phys: invalid order %d", order))
	}
	for o := order; o <= MaxOrder; o++ {
		start, ok := a.pop(o)
		if !ok {
			continue
		}
		// Split down to the requested order, returning the upper
		// halves to the free lists.
		for o > order {
			o--
			a.push(start+1<<o, o)
		}
		a.markAllocated(start, order)
		return addr.PFN(start), true
	}
	return 0, false
}

// AllocFrame allocates a single 4 KB frame.
func (a *Allocator) AllocFrame() (addr.PFN, bool) {
	pfn, ok := a.AllocOrder(0)
	if ok {
		a.stats.FrameAllocs++
	}
	return pfn, ok
}

// AllocHuge allocates one 2 MB-aligned block of 512 frames. Failure means
// physical contiguity is exhausted; callers (the OS memory manager) fall
// back to 4 KB pages, reproducing the paper's Huge Page degradation.
func (a *Allocator) AllocHuge() (addr.PFN, bool) {
	pfn, ok := a.AllocOrder(MaxOrder)
	if ok {
		a.stats.HugeAllocs++
	} else {
		a.stats.HugeFailures++
	}
	return pfn, ok
}

// Free returns a previously allocated block (identified by its first
// frame) and coalesces buddies. Freeing an unallocated address panics:
// it is a simulator bug, not a recoverable condition.
func (a *Allocator) Free(pfn addr.PFN) {
	start := uint64(pfn)
	order, ok := a.allocatedOrder(start)
	if !ok {
		panic(fmt.Sprintf("phys: Free of unallocated frame %#x", start))
	}
	if order == MaxOrder {
		bitset.ClearBit(a.alloc2M, start>>MaxOrder)
	} else {
		bitset.ClearBit(a.trees[start>>MaxOrder].alloc[:], node(start, order))
	}
	a.stats.AllocatedFrames -= 1 << order
	a.stats.Frees++
	// Coalesce with free buddies as far as possible.
	for order < MaxOrder {
		buddy := start ^ (1 << order)
		if !a.isFree(buddy, order) {
			break
		}
		a.removeFree(buddy, order) // lazy deletion from the stack
		if buddy < start {
			start = buddy
		}
		order++
	}
	a.push(start, order)
}

// AllocAt carves out the specific frame pfn, splitting whatever free block
// contains it. It returns false if the frame is already allocated. It is
// used by fragmentation injection to punch holes at chosen positions,
// which a plain buddy allocator would never do on its own.
func (a *Allocator) AllocAt(pfn addr.PFN) bool {
	frame := uint64(pfn)
	if frame >= a.totalFrames {
		return false
	}
	// Find the free block containing the frame.
	for o := 0; o <= MaxOrder; o++ {
		start := frame &^ (1<<o - 1)
		if !a.isFree(start, o) {
			continue
		}
		a.removeFree(start, o)
		// Split repeatedly, keeping the half containing frame.
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
		a.markAllocated(frame, 0)
		return true
	}
	return false
}

// InjectFragmentation punches `holes` runs of `runLen` consecutive 4 KB
// frames at pseudo-random positions, modelling long-running background
// allocation that has broken up physical contiguity before the workload
// starts. It returns the number of frames actually claimed (positions
// already occupied are skipped, not retried).
func (a *Allocator) InjectFragmentation(rng *xrand.RNG, holes, runLen int) int {
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
