// Package osmm is the operating-system memory-management model: virtual
// address-space layout, eager and demand population of page tables, page
// fault costs, and the transparent-huge-page policy with its fallback to
// 4 KB pages when physical contiguity is exhausted.
//
// The model follows the paper's framing:
//
//   - Datasets that exist before the region of interest (graph structure,
//     embedding tables, ...) are allocated with Alloc and populated
//     eagerly — their faults happen "before the measurement window".
//   - Structures that grow during execution (frontiers, output arrays,
//     hash-table extensions) are allocated with AllocLazy and populated
//     on first touch *inside* the window, charging fault latency. This is
//     the channel through which the Huge Page mechanism's fault cost
//     (zero-filling 2 MB, Section VII-B) reaches the measured runtime.
//   - Under the Huge policy, each 2 MB chunk first tries a contiguous
//     block; failure marks the chunk fallen-back and pages map at 4 KB.
//   - When free physical memory drops below a low watermark, every fault
//     additionally pays a reclaim penalty (kswapd pressure) — the paper's
//     "rapid consumption of available physical memory".
package osmm

import (
	"fmt"

	"ndpage/internal/addr"
	"ndpage/internal/bitset"
	"ndpage/internal/pagetable"
	"ndpage/internal/phys"
	"ndpage/internal/xrand"
)

// Policy selects the page size the OS prefers for data regions.
type Policy int

// Policies.
const (
	// Base4K maps everything with 4 KB pages.
	Base4K Policy = iota
	// Huge2M maps 2 MB chunks with huge pages when contiguity allows,
	// falling back to 4 KB.
	Huge2M
)

// String names the policy.
func (p Policy) String() string {
	if p == Huge2M {
		return "huge2m"
	}
	return "base4k"
}

// Config holds the OS cost model.
type Config struct {
	Policy Policy
	// FaultCost4K is the cycle cost of a minor fault on a 4 KB page
	// (trap + allocation + zero-fill).
	FaultCost4K uint64
	// FaultCost2M is the cycle cost of faulting a 2 MB huge page; the
	// dominant term is zero-filling 512x more bytes.
	FaultCost2M uint64
	// ReclaimWatermark is the free-frame count under which faults pay
	// ReclaimCost extra.
	ReclaimWatermark uint64
	// ReclaimCost is the extra fault cost under memory pressure.
	ReclaimCost uint64
	// CompactionCost is the direct-compaction stall charged on a huge
	// allocation attempt at full contiguity pressure. Linux THP faults
	// stall on compaction when 2 MB blocks are scarce — successful or
	// not — which is the paper's "increased page fault latency" and
	// "rapid consumption of physical memory contiguity" at 8 cores.
	// The charge scales linearly from 0 (ratio >= PressureHigh) to
	// CompactionCost (ratio <= PressureLow).
	CompactionCost uint64
	// PressureHigh and PressureLow bound the contiguity ratio band over
	// which compaction cost ramps.
	PressureHigh float64
	PressureLow  float64
	// HoleFraction leaves this fraction of each eagerly allocated
	// region's 2 MB chunks unpopulated: datasets are not fully resident
	// when the measurement window opens, so first touches to those
	// chunks fault inside the window (a 4 KB page at a time under
	// Base4K; a whole chunk — with compaction under pressure — under
	// Huge2M). Zero disables holes.
	HoleFraction float64
	// HoleSeed makes hole placement deterministic.
	HoleSeed uint64
	// DemandPaging disables eager population entirely: Alloc behaves
	// like AllocLazy and every page faults on first touch (sensitivity
	// study; the paper-configuration default is eager).
	DemandPaging bool
	// ResidentLimitFrames caps this address space's resident 4 KB
	// pages, modelling datasets larger than memory: beyond the limit,
	// faults steal frames from the oldest resident 2 MB chunks (FIFO
	// reclaim), unmapping them so later touches re-fault. Each evicted
	// chunk charges ReclaimCost to the faulting core. Zero disables
	// the limit (the default: datasets fit).
	ResidentLimitFrames uint64
	// IdentityMap tracks eagerly populated 2 MB chunks as
	// identity-mapped segments (the NMT mechanism, Picorel et al.): a
	// covered address translates with an O(1) range check instead of a
	// walk. Chunks populated before the measurement window are covered;
	// demand-faulted chunks are not (they fall back to the radix walk)
	// unless IdentityPromote also covers them. Reclaimed chunks lose
	// coverage either way.
	IdentityMap bool
	// IdentityPromote extends identity coverage to chunks that fault in
	// on demand, modelling an OS that re-establishes segment mappings
	// as pages arrive.
	IdentityPromote bool
}

// DefaultConfig returns the cost model used by the experiments: a 4 KB
// fault ~2.5K cycles, a 2 MB fault ~80K cycles (zeroing 2 MB at ~32 B per
// cycle), reclaim pressure under 2% free at ~20K cycles.
func DefaultConfig(policy Policy, totalFrames uint64) Config {
	return Config{
		Policy:           policy,
		FaultCost4K:      2500,
		FaultCost2M:      80000,
		ReclaimWatermark: totalFrames / 50,
		ReclaimCost:      20000,
		CompactionCost:   400000,
		PressureHigh:     0.30,
		PressureLow:      0.05,
	}
}

// compactionPressure maps the allocator's contiguity ratio into [0,1]
// over the configured band.
func (as *AddressSpace) compactionPressure() float64 {
	ratio := as.alloc.ContiguityRatio()
	if ratio >= as.cfg.PressureHigh {
		return 0
	}
	if ratio <= as.cfg.PressureLow {
		return 1
	}
	return (as.cfg.PressureHigh - ratio) / (as.cfg.PressureHigh - as.cfg.PressureLow)
}

// Region is a reserved range of virtual address space.
type Region struct {
	Base addr.V
	Size uint64
	Name string
	Lazy bool
}

// End returns the first address past the region.
func (r Region) End() addr.V { return r.Base + addr.V(r.Size) }

// Stats counts OS events.
type Stats struct {
	Faults4K         uint64
	Faults2M         uint64
	FaultCycles      uint64
	HugeFallbacks    uint64 // 2 MB chunks that could not get contiguity
	ReclaimHits      uint64 // faults that paid the reclaim penalty
	CompactionCycles uint64 // direct-compaction stall cycles
	Populated        uint64 // 4 KB pages populated (eager + demand)
	Holes            uint64 // chunks left unpopulated at allocation
	ReclaimedChunks  uint64 // 2 MB chunks evicted by the resident limit
	ReclaimedPages   uint64 // 4 KB pages those chunks held
}

// AddressSpace is one process's virtual memory: a bump-allocated heap of
// 2 MB-aligned regions above vaBase, mapped through a pagetable.Table and
// backed by the machine-wide physical allocator.
type AddressSpace struct {
	table pagetable.Table
	alloc *phys.Allocator
	cfg   Config

	brk     addr.V
	regions []Region
	// fallback4K marks 2 MB chunks (by chunk ordinal, see chunkKey) that
	// lost the contiguity race under the Huge2M policy. It is consulted
	// on every data-side fault, so it is a paged bitmap rather than a
	// map — no bucket probe on the demand-paging path.
	fallback4K bitset.Paged
	holeRNG    *xrand.RNG

	// identity marks 2 MB chunks covered by identity-mapped segments
	// (by chunk ordinal; only maintained when cfg.IdentityMap is set,
	// so the disabled paths stay untouched).
	identity bitset.Paged

	// Reclaim state (active when cfg.ResidentLimitFrames > 0): FIFO of
	// resident chunks, the resident-chunk bitmap, and the current
	// resident page count.
	residentFIFO  []addr.VPN
	fifoHead      int
	residentSet   bitset.Paged
	residentPages uint64

	stats Stats
}

// vaBase is where heaps start: PL4 slot 1, giving clean non-zero upper
// indices without colliding across address spaces (each space is private,
// the constant is just hygiene).
const vaBase = addr.V(1) << 39

// chunkKey maps a huge-aligned VPN to its dense 2 MB-chunk ordinal
// relative to the heap base: the bump allocator hands out chunks
// upward from vaBase, so ordinals index the paged bitmaps densely from
// zero.
func chunkKey(vpn addr.VPN) uint64 {
	const basePage = uint64(vaBase) >> addr.PageShift
	if uint64(vpn) < basePage {
		panic(fmt.Sprintf("osmm: chunk VPN %#x below the heap base", uint64(vpn)))
	}
	return (uint64(vpn) - basePage) >> addr.LevelBits
}

// New creates an address space over the given table and allocator.
func New(table pagetable.Table, alloc *phys.Allocator, cfg Config) *AddressSpace {
	return &AddressSpace{
		table:   table,
		alloc:   alloc,
		cfg:     cfg,
		brk:     vaBase,
		holeRNG: xrand.New(cfg.HoleSeed),
	}
}

// noteResident records pages joining chunk (huge-aligned VPN) and
// enforces the resident limit. It returns the reclaim cycles charged.
func (as *AddressSpace) noteResident(chunk addr.VPN, pages uint64) uint64 {
	if as.cfg.ResidentLimitFrames == 0 {
		return 0
	}
	as.residentPages += pages
	if !as.residentSet.Get(chunkKey(chunk)) {
		as.residentSet.Set(chunkKey(chunk))
		as.residentFIFO = append(as.residentFIFO, chunk)
	}
	cost := uint64(0)
	for as.residentPages > as.cfg.ResidentLimitFrames && as.fifoHead < len(as.residentFIFO) {
		victim := as.residentFIFO[as.fifoHead]
		as.fifoHead++
		if !as.residentSet.Get(chunkKey(victim)) || victim == chunk {
			continue // already gone, or the chunk being faulted in
		}
		cost += as.reclaimChunk(victim)
	}
	// Compact the consumed FIFO prefix occasionally.
	if as.fifoHead > 4096 && as.fifoHead > len(as.residentFIFO)/2 {
		as.residentFIFO = append(as.residentFIFO[:0], as.residentFIFO[as.fifoHead:]...)
		as.fifoHead = 0
	}
	return cost
}

// reclaimChunk unmaps every page of the chunk, returning the frames to
// the allocator and charging the reclaim cost.
func (as *AddressSpace) reclaimChunk(chunk addr.VPN) uint64 {
	as.residentSet.Clear(chunkKey(chunk))
	if as.cfg.IdentityMap {
		as.identity.Clear(chunkKey(chunk))
	}
	freed := uint64(0)
	for k := uint64(0); k < addr.EntriesPerTable; {
		e, ok := as.table.Unmap(chunk + addr.VPN(k))
		if !ok {
			k++
			continue
		}
		if e.Huge {
			as.alloc.Free(e.PFN)
			freed += addr.EntriesPerTable
			break
		}
		as.alloc.Free(e.PFN)
		freed++
		k++
	}
	as.residentPages -= freed
	as.stats.ReclaimedChunks++
	as.stats.ReclaimedPages += freed
	as.stats.ReclaimHits++
	return as.cfg.ReclaimCost
}

// Table returns the underlying page table.
func (as *AddressSpace) Table() pagetable.Table { return as.table }

// Stats returns a copy of the OS counters.
func (as *AddressSpace) Stats() Stats { return as.stats }

// ResetFaultStats zeroes the fault counters (measurement-window reset);
// structural counters (Populated, HugeFallbacks) are preserved.
func (as *AddressSpace) ResetFaultStats() {
	as.stats.Faults4K = 0
	as.stats.Faults2M = 0
	as.stats.FaultCycles = 0
	as.stats.ReclaimHits = 0
	as.stats.CompactionCycles = 0
}

// Alloc reserves size bytes (2 MB-aligned, 2 MB-granular) and populates
// them eagerly — dataset memory that exists before the measurement
// window. It implements the workload Mem interface. Under the
// DemandPaging sensitivity configuration nothing is populated.
func (as *AddressSpace) Alloc(size uint64, name string) addr.V {
	if as.cfg.DemandPaging {
		return as.reserve(size, name, true).Base
	}
	r := as.reserve(size, name, false)
	as.populate(r)
	return r.Base
}

// AllocLazy reserves size bytes without populating; pages fault on first
// touch inside the measurement window.
func (as *AddressSpace) AllocLazy(size uint64, name string) addr.V {
	return as.reserve(size, name, true).Base
}

// reserve bump-allocates a region and announces it to the table
// before any page of it is mapped, so the table's frame store holds
// the whole heap in its dense window.
func (as *AddressSpace) reserve(size uint64, name string, lazy bool) Region {
	if size == 0 {
		panic("osmm: zero-size allocation")
	}
	size = addr.AlignUp(size, addr.HugePageSize)
	r := Region{Base: as.brk, Size: size, Name: name, Lazy: lazy}
	as.regions = append(as.regions, r)
	as.brk += addr.V(size)
	as.table.Reserve(r.Base.Page(), size/addr.PageSize)
	return r
}

// populate maps the pages of r according to the policy, charging nothing
// (pre-window population). A HoleFraction of chunks is skipped and left
// to demand faulting.
func (as *AddressSpace) populate(r Region) {
	for v := r.Base; v < r.End(); v += addr.HugePageSize {
		if as.cfg.HoleFraction > 0 && as.holeRNG.Bool(as.cfg.HoleFraction) {
			as.stats.Holes++
			continue
		}
		as.populateChunk(v.Page())
	}
}

// populateChunk maps one 2 MB-aligned chunk starting at vpn.
func (as *AddressSpace) populateChunk(vpn addr.VPN) {
	as.noteResident(vpn, addr.EntriesPerTable)
	// Eager population establishes identity-segment coverage; every
	// path below maps the full chunk (or panics).
	if as.cfg.IdentityMap {
		as.identity.Set(chunkKey(vpn))
	}
	if as.cfg.Policy == Huge2M {
		if base, ok := as.alloc.AllocHuge(); ok {
			as.table.MapHuge(vpn, base)
			as.stats.Populated += addr.EntriesPerTable
			return
		}
		as.fallback4K.Set(chunkKey(vpn))
		as.stats.HugeFallbacks++
	}
	// 4 KB population; grab contiguity when available purely as a fast
	// path (one allocator call per chunk), else frame-by-frame. Under a
	// resident limit every frame must be individually freeable, so the
	// block fast path is skipped.
	if as.cfg.ResidentLimitFrames == 0 {
		if base, ok := as.alloc.AllocHuge(); ok {
			as.table.MapRange(vpn, addr.EntriesPerTable, base)
			as.stats.Populated += addr.EntriesPerTable
			return
		}
	}
	for k := uint64(0); k < addr.EntriesPerTable; k++ {
		pfn, ok := as.alloc.AllocFrame()
		if !ok {
			panic(fmt.Sprintf("osmm: out of physical memory populating %#x", uint64(vpn)))
		}
		as.table.Map(vpn+addr.VPN(k), pfn)
		as.stats.Populated++
	}
}

// Touch ensures the page containing v is mapped, returning the cycle cost
// charged to the faulting core (0 when already mapped — the common case).
// The check is Table.Present: one frame-store record read, no frame
// numbers.
func (as *AddressSpace) Touch(v addr.V) uint64 {
	if as.table.Present(v.Page()) {
		return 0
	}
	return as.fault(v)
}

// fault performs demand population for the page containing v.
func (as *AddressSpace) fault(v addr.V) uint64 {
	cost := uint64(0)
	if as.alloc.FreeFrames() < as.cfg.ReclaimWatermark {
		cost += as.cfg.ReclaimCost
		as.stats.ReclaimHits++
	}
	vpn := v.Page()
	chunk := v.HugePage()
	if as.cfg.Policy == Huge2M && !as.fallback4K.Get(chunkKey(chunk)) {
		// A fresh chunk triggers a huge allocation attempt. Under
		// contiguity pressure the fault stalls on direct compaction
		// whether or not a block is ultimately found.
		compact := uint64(float64(as.cfg.CompactionCost) * as.compactionPressure())
		cost += compact
		as.stats.CompactionCycles += compact
		if base, ok := as.alloc.AllocHuge(); ok {
			cost += as.noteResident(chunk, addr.EntriesPerTable)
			as.table.MapHuge(chunk, base)
			if as.cfg.IdentityMap && as.cfg.IdentityPromote {
				as.identity.Set(chunkKey(chunk))
			}
			as.stats.Faults2M++
			as.stats.Populated += addr.EntriesPerTable
			as.stats.FaultCycles += cost + as.cfg.FaultCost2M
			return cost + as.cfg.FaultCost2M
		}
		as.fallback4K.Set(chunkKey(chunk))
		as.stats.HugeFallbacks++
	}
	cost += as.noteResident(chunk, 1)
	pfn, ok := as.alloc.AllocFrame()
	if !ok {
		panic(fmt.Sprintf("osmm: out of physical memory at fault for %#x", uint64(v)))
	}
	as.table.Map(vpn, pfn)
	if as.cfg.IdentityMap && as.cfg.IdentityPromote {
		as.identity.Set(chunkKey(chunk))
	}
	as.stats.Faults4K++
	as.stats.Populated++
	as.stats.FaultCycles += cost + as.cfg.FaultCost4K
	return cost + as.cfg.FaultCost4K
}

// IdentityCovered reports whether v lies in an identity-mapped segment
// (the NMT range-check fast path): an O(1) bitmap probe, always false
// when Config.IdentityMap is off. Coverage is chunk-granular; under
// IdentityPromote a partially faulted chunk counts as covered, which is
// safe because the MMU still resolves the actual frame through the
// functional table and falls back to the walk when the page is absent.
func (as *AddressSpace) IdentityCovered(v addr.V) bool {
	if !as.cfg.IdentityMap || v < vaBase || v >= as.brk {
		return false
	}
	return as.identity.Get(chunkKey(v.HugePage()))
}

// Translate resolves v through the table (functional, no timing): the
// Ideal mechanism's oracle and the OS's own view.
func (as *AddressSpace) Translate(v addr.V) (addr.P, bool) {
	e, ok := as.table.Lookup(v.Page())
	if !ok {
		return 0, false
	}
	pfn := e.Translate(v.Page())
	return pfn.Addr() + addr.P(v.Offset()), true
}
