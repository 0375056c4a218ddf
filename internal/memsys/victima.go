package memsys

import (
	"ndpage/internal/addr"
	"ndpage/internal/assoc"
	"ndpage/internal/cache"
	"ndpage/internal/stats"
)

// VictimaStats counts the translation-block store's activity.
type VictimaStats struct {
	// Probes and Hits cover walker probes of the store.
	Probes stats.Counter
	Hits   stats.Counter
	// Fills counts translation blocks the predictor admitted into the
	// cache; Deferred counts fill offers it rejected (walk count for the
	// block still below the gate).
	Fills    stats.Counter
	Deferred stats.Counter
}

// HitRate returns the fraction of probes that hit.
func (s *VictimaStats) HitRate() float64 {
	return stats.Ratio(s.Hits.Value(), s.Probes.Value())
}

// VictimaStore is Victima-style translation caching (Kanellopoulos et
// al., MICRO 2023): the last-level cache accepts leaf translation
// blocks alongside data lines, so PTE reach scales with cache capacity
// instead of with dedicated TLB entries. It adapts the hierarchy's
// shared last-level cache into the walker's translation-block cache
// (walker.Config.Xlat) — the walker probes it before walking, and a hit
// supplies the leaf PTE at cache latency with zero PTE traffic, while
// insertion is gated by a TLB-miss predictor so translation blocks
// displace data only where they will be reused. On CPU systems the
// target is the shared L3; the evaluated NDP organization has no
// shared level, so blocks live in the probing core's L1D — the
// underutilized data capacity nearest the walker.
type VictimaStore struct {
	h    *Hierarchy
	gate int
	pred *assoc.Table[uint8] // walks seen per block, keyed by block ordinal
	st   VictimaStats
}

// predictor geometry: 256 sets x 4 ways = 1024 tracked blocks.
const victimaPredSets, victimaPredWays = 256, 4

func newVictimaStore(h *Hierarchy, gate int) *VictimaStore {
	return &VictimaStore{h: h, gate: gate, pred: assoc.New[uint8](victimaPredSets, victimaPredWays)}
}

// Stats returns the live counters.
func (s *VictimaStore) Stats() *VictimaStats { return &s.st }

// target returns the cache holding translation blocks for core.
func (s *VictimaStore) target(core int) *cache.Cache {
	if s.h.l3 != nil {
		return s.h.l3
	}
	return s.h.l1d[core]
}

// Probe checks for the translation block covering v, starting at
// absolute time t, at the target cache's latency; it returns the probe's
// completion time either way.
func (s *VictimaStore) Probe(core int, t uint64, v addr.V) (uint64, bool) {
	s.st.Probes.Inc()
	c := s.target(core)
	t += c.Latency()
	if c.LookupXlat(v.Page()) {
		s.st.Hits.Inc()
		return t, true
	}
	return t, false
}

// Fill offers the block covering v after a walk completing at t. The
// predictor admits it only once gate walks have demanded the block; an
// admitted fill that displaces a dirty data line writes the victim back
// to memory.
func (s *VictimaStore) Fill(core int, t uint64, v addr.V) {
	key := uint64(v.Page()) / cache.XlatBlockPages
	n, _ := s.pred.Lookup(key)
	if int(n)+1 < s.gate {
		s.pred.Insert(key, n+1)
		s.st.Deferred.Inc()
		return
	}
	s.pred.Invalidate(key)
	s.st.Fills.Inc()
	if ev, evicted := s.target(core).FillXlat(v.Page()); evicted && ev.Dirty {
		s.h.asyncWrite(ev.Line, ev.Class, t)
	}
}

// ResetStats zeroes the counters (predictor and cache contents persist).
func (s *VictimaStore) ResetStats() { s.st = VictimaStats{} }
