// Package cache models a set-associative, write-back, write-allocate
// hardware cache with per-class (data vs page-table metadata vs code)
// accounting.
//
// The per-class accounting is what lets the simulator reproduce the
// paper's key motivation figures: Figure 7's metadata miss rate (98.28% in
// the NDP L1) and the cache pollution that raises the normal-data miss
// rate from 26.16% (ideal) to 35.89% (with translation). The pollution
// counter records every normal-data line evicted by a PTE fill.
package cache

import (
	"fmt"

	"ndpage/internal/access"
	"ndpage/internal/addr"
	"ndpage/internal/assoc"
	"ndpage/internal/stats"
)

// Config describes one cache level.
type Config struct {
	Name    string // "L1D", "L2", ...
	Size    uint64 // total bytes; must be a multiple of LineSize*Ways
	Ways    int
	Latency uint64 // access latency in core cycles
}

// lineState is the per-line metadata tracked beyond the tag.
type lineState struct {
	dirty bool
	class access.Class
}

// Eviction describes a line displaced by a fill.
type Eviction struct {
	Line  uint64 // physical line number of the victim
	Dirty bool   // needs write-back
	Class access.Class
}

// Stats aggregates cache activity.
type Stats struct {
	// PerClass hit/miss, indexed by access.Class.
	PerClass [access.NumClasses]stats.HitMiss
	// Writebacks counts dirty evictions.
	Writebacks stats.Counter
	// DataEvictedByPTE counts normal-data victim lines displaced by a
	// PTE fill — the paper's cache-pollution effect.
	DataEvictedByPTE stats.Counter
	// DataEvictedByXlat counts normal-data victim lines displaced by a
	// Victima translation-block fill — the same pollution effect for
	// blocks the TLB-miss predictor admitted.
	DataEvictedByXlat stats.Counter
	// Bypassed counts requests routed around this cache entirely (the
	// memory system records them here so the L1 ledger stays complete).
	Bypassed stats.Counter
}

// Total returns the combined hit/miss counters across classes.
func (s *Stats) Total() stats.HitMiss {
	var t stats.HitMiss
	for i := range s.PerClass {
		t.Merge(s.PerClass[i])
	}
	return t
}

// Cache is one level of the hierarchy. Not safe for concurrent use.
type Cache struct {
	cfg   Config
	table *assoc.Table[lineState]
	stats Stats
}

// New builds a cache from cfg. Size, Ways and LineSize must describe a
// power-of-two number of sets.
func New(cfg Config) *Cache {
	if cfg.Size == 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache %q: invalid geometry %+v", cfg.Name, cfg))
	}
	lines := cfg.Size / addr.LineSize
	if lines%uint64(cfg.Ways) != 0 {
		panic(fmt.Sprintf("cache %q: %d lines not divisible by %d ways", cfg.Name, lines, cfg.Ways))
	}
	sets := int(lines) / cfg.Ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %q: %d sets is not a power of two", cfg.Name, sets))
	}
	return &Cache{cfg: cfg, table: assoc.New[lineState](sets, cfg.Ways)}
}

// Name returns the configured name.
func (c *Cache) Name() string { return c.cfg.Name }

// Latency returns the access latency in cycles.
func (c *Cache) Latency() uint64 { return c.cfg.Latency }

// Stats returns a pointer to the live counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// Lookup probes for the physical line without filling. On a write hit the
// line is marked dirty. Returns whether the line was present.
func (c *Cache) Lookup(line uint64, op access.Op, class access.Class) bool {
	st := c.table.Ref(line)
	ok := st != nil
	c.stats.PerClass[class].Record(ok)
	if ok && op == access.Write {
		st.dirty = true
	}
	return ok
}

// Fill inserts the line after a miss was serviced by the next level. The
// returned eviction (if any) is the displaced victim; the caller is
// responsible for charging its write-back to the next level.
func (c *Cache) Fill(line uint64, op access.Op, class access.Class) (Eviction, bool) {
	st := lineState{dirty: op == access.Write, class: class}
	vKey, vSt, evicted := c.table.Insert(line, st)
	if !evicted {
		return Eviction{}, false
	}
	if vSt.dirty {
		c.stats.Writebacks.Inc()
	}
	if class == access.PTE && vSt.class == access.Data {
		c.stats.DataEvictedByPTE.Inc()
	}
	if class == access.Xlat && vSt.class == access.Data {
		c.stats.DataEvictedByXlat.Inc()
	}
	return Eviction{Line: vKey, Dirty: vSt.dirty, Class: vSt.class}, true
}

// Translation blocks (the Victima mechanism) live in the same
// set-associative storage as data lines — competing for the same ways,
// which is the mechanism's whole point — but are keyed by virtual page
// block, not physical line. A tag bit keeps the two key spaces apart
// (physical line numbers occupy the low bits; bit 63 is never a line).

// XlatBlockPages is the number of 4K translations one cached
// translation block covers: a 64 B line holds eight 8 B PTEs.
const XlatBlockPages = 8

// xlatTag marks a translation-block key apart from physical line keys.
const xlatTag = uint64(1) << 63

func xlatKey(vpn addr.VPN) uint64 { return xlatTag | uint64(vpn)/XlatBlockPages }

// LookupXlat probes for the translation block covering vpn, recording
// the hit or miss under the Xlat class.
func (c *Cache) LookupXlat(vpn addr.VPN) bool {
	return c.Lookup(xlatKey(vpn), access.Read, access.Xlat)
}

// FillXlat inserts the translation block covering vpn. Translation
// blocks are never dirty (the walker rereads the table on eviction), so
// the returned eviction needs handling only when it displaced a dirty
// data line.
func (c *Cache) FillXlat(vpn addr.VPN) (Eviction, bool) {
	return c.Fill(xlatKey(vpn), access.Read, access.Xlat)
}

// Contains reports whether the line is present, without touching LRU state
// or statistics. For tests and introspection.
func (c *Cache) Contains(line uint64) bool {
	_, ok := c.table.Peek(line)
	return ok
}

// WritebackInto absorbs a dirty victim from an inner cache level: if the
// line is present here it is marked dirty (no statistics, no LRU change)
// and true is returned; otherwise the caller must push the write-back
// further out. This models an inclusive hierarchy's write-back path
// without a separate victim-fill traffic class.
func (c *Cache) WritebackInto(line uint64) bool {
	st, ok := c.table.Peek(line)
	if !ok {
		return false
	}
	if !st.dirty {
		st.dirty = true
		c.table.Update(line, st)
	}
	return true
}

// ResetStats zeroes the counters (contents preserved).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Invalidate drops the line if present, reporting whether it was dirty
// (caller decides whether to model the write-back).
func (c *Cache) Invalidate(line uint64) (wasDirty, wasPresent bool) {
	st, ok := c.table.Peek(line)
	if !ok {
		return false, false
	}
	c.table.Invalidate(line)
	return st.dirty, true
}
