// Package pwc models page-walk caches (Barr et al., "Translation caching:
// skip, don't walk"): small per-level caches of upper-level page-table
// entries that let the hardware walker skip the top of the radix tree.
//
// A hit in the level-L PWC means the walker already knows the base of the
// next table below L, so the walk starts there. Probes for all levels
// happen in parallel in one cycle; the deepest hit wins.
//
// The paper's Section V-C reports PL4/PL3 PWC hit rates near 100%/98.6%
// but only ~15.4% for the lower levels, which is why NDPage keeps the
// PL4/PL3 PWCs and folds the poorly-cached PL2/PL1 levels into one
// flattened access.
package pwc

import (
	"fmt"

	"ndpage/internal/addr"
	"ndpage/internal/assoc"
	"ndpage/internal/stats"
)

// Config describes a set of page-walk caches.
type Config struct {
	// Levels lists which page-table levels have a PWC, e.g.
	// [PL4, PL3, PL2] for a conventional radix walker or [PL4, PL3]
	// for NDPage.
	Levels  []addr.Level
	Entries int
	Ways    int
	Latency uint64 // one parallel probe of all levels
}

// Default returns the conventional three-PWC configuration (32 entries,
// 4-way each, 1-cycle probe).
func Default() Config {
	return Config{Levels: []addr.Level{addr.PL4, addr.PL3, addr.PL2}, Entries: 32, Ways: 4, Latency: 1}
}

// NDPage returns NDPage's PWC configuration: PL4 and PL3 only (Section
// V-C) — the flattened L2/L1 level is reached directly from a PL3 hit.
func NDPage() Config {
	return Config{Levels: []addr.Level{addr.PL4, addr.PL3}, Entries: 32, Ways: 4, Latency: 1}
}

// PWC is a set of per-level page-walk caches: the hardware walker
// probes all levels in parallel before a sequential walk (one probe
// costs Latency) and fills them after it resolves. The per-level tables
// and counters are dense arrays indexed by addr.Level — Probe runs
// before every sequential walk and Fill after it, so the per-level
// lookups must touch no map buckets. Not safe for concurrent use.
type PWC struct {
	cfg    Config
	tables [addr.L2L1 + 1]*assoc.Table[struct{}]
	stats  [addr.L2L1 + 1]*stats.HitMiss
}

// New builds the per-level caches.
func New(cfg Config) *PWC {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic(fmt.Sprintf("pwc: invalid geometry %+v", cfg))
	}
	p := &PWC{cfg: cfg}
	for _, l := range cfg.Levels {
		if l < 0 || l > addr.L2L1 {
			panic(fmt.Sprintf("pwc: invalid level %v", l))
		}
		p.tables[l] = assoc.New[struct{}](cfg.Entries/cfg.Ways, cfg.Ways)
		p.stats[l] = &stats.HitMiss{}
	}
	return p
}

// Latency returns the cost of one parallel probe of all levels.
func (p *PWC) Latency() uint64 { return p.cfg.Latency }

// Levels returns the levels that have a PWC, in configuration order.
func (p *PWC) Levels() []addr.Level { return p.cfg.Levels }

// Has reports whether level l has a PWC.
func (p *PWC) Has(l addr.Level) bool {
	return l >= 0 && l <= addr.L2L1 && p.tables[l] != nil
}

// Probe checks all per-level caches for the walk of v in one parallel
// access and returns the deepest level whose PWC hit (the level whose
// *child table* the walker can jump to). ok is false when every level
// missed and the walk must start at the root.
//
// Hit/miss statistics are recorded per level on every probe, which is how
// the paper reports per-level PWC hit rates.
func (p *PWC) Probe(v addr.V) (deepest addr.Level, ok bool) {
	for _, l := range p.cfg.Levels {
		_, hit := p.tables[l].Lookup(addr.Prefix(v, l))
		p.stats[l].Record(hit)
		if hit && (!ok || lower(l, deepest)) {
			deepest, ok = l, true
		}
	}
	return deepest, ok
}

// lower reports whether level a sits below level b in the tree (closer to
// the leaf), i.e. a hit at a skips more of the walk.
func lower(a, b addr.Level) bool {
	return addr.Depth(a) > addr.Depth(b)
}

// Fill records the upper-level entries discovered by a completed walk:
// for every cached level that the walk traversed, the entry mapping that
// level's prefix is inserted.
func (p *PWC) Fill(v addr.V, walked []addr.Level) {
	for _, l := range walked {
		if t := p.tables[l]; t != nil {
			t.Insert(addr.Prefix(v, l), struct{}{})
		}
	}
}

// HitRate returns the hit rate of level l's PWC (0 if the level has no
// PWC or saw no probes).
func (p *PWC) HitRate(l addr.Level) float64 {
	if !p.Has(l) {
		return 0
	}
	return p.stats[l].HitRate()
}

// Stats returns the live counters for level l (nil if no PWC at l).
func (p *PWC) Stats(l addr.Level) *stats.HitMiss {
	if l < 0 || l > addr.L2L1 {
		return nil
	}
	return p.stats[l]
}

// ResetStats zeroes all counters (contents preserved).
func (p *PWC) ResetStats() {
	for l := range p.stats {
		if p.stats[l] != nil {
			p.stats[l] = &stats.HitMiss{}
		}
	}
}

// Flush empties all per-level caches.
func (p *PWC) Flush() {
	for _, t := range p.tables {
		if t != nil {
			t.Flush()
		}
	}
}
