package sim

import (
	"ndpage/internal/access"
	"ndpage/internal/addr"
	"ndpage/internal/pagetable"
	"ndpage/internal/pwc"
	"ndpage/internal/stats"
	"ndpage/internal/walker"
)

// Result aggregates one measurement window across all cores: everything
// the paper's figures report.
type Result struct {
	Config Config

	// Cycles is the parallel completion time: the maximum per-core
	// measured cycle count. TotalCycles is the sum across cores (the
	// denominator for overhead fractions).
	Cycles      uint64
	TotalCycles uint64

	Instructions uint64
	Loads        uint64
	Stores       uint64

	// Cycle attribution (sums across cores).
	TranslationCycles uint64
	DataCycles        uint64
	ComputeCycles     uint64
	FaultCycles       uint64

	// Translation micro-metrics.
	Walks       uint64
	WalkCycles  uint64
	PTEAccesses uint64
	L1TLB       stats.HitMiss // DTLB, aggregated over cores
	L2TLB       stats.HitMiss
	PWC         map[addr.Level]stats.HitMiss

	// Walker concurrency metrics (aggregated over distinct walk units;
	// a shared walker is counted once).
	MSHRHits           uint64 // walk requests coalesced onto an in-flight walk
	OverlappedWalks    uint64 // walks that began with another in flight
	QueuedWalks        uint64 // walks that waited for a free walk slot
	WalkQueueCycles    uint64 // total cycles walks spent waiting for slots
	MaxConcurrentWalks int    // peak simultaneously active walks in one unit
	// WalkOverlapHist[k] counts performed walks that began with k walks
	// in flight in their walk unit, the walk itself included (index 0
	// unused). All mass sits at k=1 unless walks can overlap.
	WalkOverlapHist []uint64

	// InFlightHist[k] counts memory-op issues that brought their core's
	// MLP window to k in-flight ops, the op itself included (index 0
	// unused). With the blocking core (MLP=1) every issue is solo, so
	// the histogram is [0, Loads+Stores].
	InFlightHist []uint64

	// L1 data-cache behaviour (aggregated over cores).
	L1Data           stats.HitMiss
	L1PTE            stats.HitMiss
	L1Bypassed       uint64
	DataEvictedByPTE uint64

	// Mechanism-specific activity (zero unless the mechanism ran).

	// Victima translation-block store: walker probes/hits, predictor-
	// admitted fills, predictor-deferred fill offers, and data lines
	// displaced by translation blocks.
	VictimaProbes     uint64
	VictimaHits       uint64
	VictimaFills      uint64
	VictimaDeferred   uint64
	DataEvictedByXlat uint64
	// NMT identity-segment range checks (hits skip TLBs and walker).
	IdentityHits   uint64
	IdentityMisses uint64
	// PCAX PC-indexed table probes, aggregated over cores.
	PCX stats.HitMiss

	// Memory traffic by class.
	DRAM            [access.NumClasses]uint64
	DRAMMeanLatency float64
	DRAMMeanQueue   float64

	// Page-table structure (shared table).
	Occupancy   []pagetable.LevelOccupancy
	MappedPages uint64

	// OS events in the window.
	Faults4K         uint64
	Faults2M         uint64
	HugeFallbacks    uint64
	CompactionCycles uint64
	ReclaimedChunks  uint64
}

// collect gathers the Result after the measurement window.
func (m *Machine) collect() *Result {
	r := &Result{
		Config: m.cfg,
		PWC:    make(map[addr.Level]stats.HitMiss),
	}
	seenWalker := make(map[*walker.Walker]bool)
	seenPWC := make(map[*pwc.PWC]bool)
	for _, c := range m.cores {
		elapsed := c.clock - c.start
		if elapsed > r.Cycles {
			r.Cycles = elapsed
		}
		r.TotalCycles += elapsed
		r.Instructions += c.instructions
		r.Loads += c.loads
		r.Stores += c.stores
		r.TranslationCycles += c.translationCycles
		r.DataCycles += c.dataCycles
		r.ComputeCycles += c.computeCycles
		r.FaultCycles += c.faultCycles

		if wk := c.mmu.Walker(); !seenWalker[wk] {
			seenWalker[wk] = true
			ws := wk.Stats()
			r.Walks += ws.Walks.Value()
			r.WalkCycles += ws.WalkCycles.Value()
			r.PTEAccesses += ws.PTEAccesses.Value()
			r.MSHRHits += ws.MSHRHits.Value()
			r.OverlappedWalks += ws.OverlappedWalks.Value()
			r.QueuedWalks += ws.QueuedWalks.Value()
			r.WalkQueueCycles += ws.QueueCycles.Value()
			if ws.MaxInFlight > r.MaxConcurrentWalks {
				r.MaxConcurrentWalks = ws.MaxInFlight
			}
			r.WalkOverlapHist = mergeHist(r.WalkOverlapHist, ws.InFlightHist)
		}
		r.InFlightHist = mergeHist(r.InFlightHist, c.windowHist)
		r.L1TLB.Merge(*c.mmu.DTLB().Stats())
		r.L2TLB.Merge(*c.mmu.STLB().Stats())
		if pwcs := c.mmu.PWC(); pwcs != nil && !seenPWC[pwcs] {
			seenPWC[pwcs] = true
			for _, l := range pwcs.Levels() {
				hm := r.PWC[l]
				hm.Merge(*pwcs.Stats(l))
				r.PWC[l] = hm
			}
		}

		ms := c.mmu.Stats()
		r.IdentityHits += ms.IdentityHits.Value()
		r.IdentityMisses += ms.IdentityMisses.Value()
		if pcx := c.mmu.PCXTable(); pcx != nil {
			r.PCX.Merge(*pcx.Stats())
		}

		l1 := m.hier.L1D(c.id).Stats()
		r.L1Data.Merge(l1.PerClass[access.Data])
		r.L1PTE.Merge(l1.PerClass[access.PTE])
		r.L1Bypassed += l1.Bypassed.Value()
		r.DataEvictedByPTE += l1.DataEvictedByPTE.Value()
		r.DataEvictedByXlat += l1.DataEvictedByXlat.Value()
	}

	if v := m.hier.Victima(); v != nil {
		vs := v.Stats()
		r.VictimaProbes = vs.Probes.Value()
		r.VictimaHits = vs.Hits.Value()
		r.VictimaFills = vs.Fills.Value()
		r.VictimaDeferred = vs.Deferred.Value()
	}
	if l3 := m.hier.L3(); l3 != nil {
		// On CPU systems translation blocks live in the shared L3, so
		// that is where they displace data.
		r.DataEvictedByXlat += l3.Stats().DataEvictedByXlat.Value()
	}

	ds := m.hier.DRAM().Stats()
	for cls := 0; cls < access.NumClasses; cls++ {
		r.DRAM[cls] = ds.PerClass[cls].Value()
	}
	r.DRAMMeanLatency = ds.MeanLatency()
	r.DRAMMeanQueue = ds.MeanQueue()

	r.Occupancy = m.space.Table().Occupancy()
	r.MappedPages = m.space.Table().MappedPages()

	os := m.space.Stats()
	r.Faults4K = os.Faults4K
	r.Faults2M = os.Faults2M
	r.HugeFallbacks = os.HugeFallbacks
	r.CompactionCycles = os.CompactionCycles
	r.ReclaimedChunks = os.ReclaimedChunks

	// The serial path issues exactly one memory op at a time; its
	// window histogram is synthesized rather than tracked in the hot
	// loop.
	if m.serial && r.Loads+r.Stores > 0 {
		r.InFlightHist = []uint64{0, r.Loads + r.Stores}
	}
	return r
}

// mergeHist accumulates src into dst element-wise, growing dst.
func mergeHist(dst, src []uint64) []uint64 {
	for len(dst) < len(src) {
		dst = append(dst, 0)
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// histMean returns the count-weighted mean index of a histogram whose
// index 0 is unused.
func histMean(h []uint64) float64 {
	var n, sum uint64
	for k, v := range h {
		n += v
		sum += uint64(k) * v
	}
	return stats.Ratio(sum, n)
}

// MeanInFlight returns the average per-core window occupancy at memory-
// op issue (1 for the blocking core; up to Config.MLP for non-blocking
// front-ends saturating their window).
func (r *Result) MeanInFlight() float64 { return histMean(r.InFlightHist) }

// MeanWalkConcurrency returns the average number of walks in flight in
// a walk unit when a walk begins (1 unless walks overlap).
func (r *Result) MeanWalkConcurrency() float64 { return histMean(r.WalkOverlapHist) }

// MeanPTWLatency returns the average page-table-walk latency in cycles
// (Figure 4 / Figure 6a).
func (r *Result) MeanPTWLatency() float64 {
	return stats.Ratio(r.WalkCycles, r.Walks)
}

// TranslationOverhead returns the fraction of execution time spent on
// address translation (Figure 5 / Figure 6b).
func (r *Result) TranslationOverhead() float64 {
	return stats.Ratio(r.TranslationCycles, r.TotalCycles)
}

// MSHRHitRate returns the fraction of walk requests satisfied by
// coalescing onto an in-flight walk (0 unless walks can overlap, e.g.
// with a shared walker).
func (r *Result) MSHRHitRate() float64 {
	return stats.Ratio(r.MSHRHits, r.MSHRHits+r.Walks)
}

// WalkOverlapRate returns the fraction of performed walks that began
// while another walk was in flight.
func (r *Result) WalkOverlapRate() float64 {
	return stats.Ratio(r.OverlappedWalks, r.Walks)
}

// MeanWalkQueueCycles returns the average slot-wait delay per performed
// walk (contention for the walker's width).
func (r *Result) MeanWalkQueueCycles() float64 {
	return stats.Ratio(r.WalkQueueCycles, r.Walks)
}

// TLBMissRate returns the overall TLB miss rate: the fraction of
// translations that missed both TLB levels and walked (Section IV-A's
// 91.27%).
func (r *Result) TLBMissRate() float64 {
	return stats.Ratio(r.Walks, r.L1TLB.Total())
}

// PTEAccessShare returns the fraction of memory-system requests that
// carry PTEs (Section IV-A's 65.8%).
func (r *Result) PTEAccessShare() float64 {
	return stats.Ratio(r.PTEAccesses, r.PTEAccesses+r.Loads+r.Stores)
}

// L1DataMissRate returns the L1 miss rate of normal data (Figure 7).
func (r *Result) L1DataMissRate() float64 { return r.L1Data.MissRate() }

// L1PTEMissRate returns the L1 miss rate of metadata (Figure 7); 0 when
// PTEs bypass the L1.
func (r *Result) L1PTEMissRate() float64 { return r.L1PTE.MissRate() }

// PWCHitRate returns the hit rate of the level-l page-walk cache.
func (r *Result) PWCHitRate(l addr.Level) float64 {
	hm, ok := r.PWC[l]
	if !ok {
		return 0
	}
	return hm.HitRate()
}

// VictimaHitRate returns the fraction of walker probes of the Victima
// translation-block store that hit (0 unless Mechanism is Victima).
func (r *Result) VictimaHitRate() float64 {
	return stats.Ratio(r.VictimaHits, r.VictimaProbes)
}

// IdentityHitRate returns the fraction of NMT range checks that resolved
// by identity (0 unless Mechanism is NMT).
func (r *Result) IdentityHitRate() float64 {
	return stats.Ratio(r.IdentityHits, r.IdentityHits+r.IdentityMisses)
}

// PCXHitRate returns the PCAX table's hit rate on L1-TLB misses (0
// unless Mechanism is PCAX).
func (r *Result) PCXHitRate() float64 { return r.PCX.HitRate() }

// CPI returns cycles (parallel) per instruction (per core).
func (r *Result) CPI() float64 {
	return stats.Ratio(r.TotalCycles, r.Instructions)
}

// OccupancyRate returns the occupancy of the given table level (Figure 8).
func (r *Result) OccupancyRate(l addr.Level) float64 {
	for _, o := range r.Occupancy {
		if o.Level == l {
			return o.Rate()
		}
	}
	return 0
}
