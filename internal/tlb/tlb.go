// Package tlb models translation lookaside buffers: set-associative,
// LRU-replaced caches of virtual-to-physical page translations supporting
// mixed 4 KB and 2 MB entries (Table I: L1 ITLB 128-entry/4-way, L1 DTLB
// 64-entry/4-way, unified L2 TLB 1536-entry).
//
// A huge-page entry covers 512 base pages, which is how the Huge Page
// mechanism multiplies TLB reach. 2 MB entries live in a separate huge
// sub-array; a lookup probes the 4 KB array and the huge sub-array (in
// hardware they are probed in the same cycle, so a single latency is
// charged). Entries are the page table's own pagetable.Entry values.
package tlb

import (
	"fmt"

	"ndpage/internal/addr"
	"ndpage/internal/assoc"
	"ndpage/internal/pagetable"
	"ndpage/internal/stats"
)

// Config describes one TLB level. A TLB holds 2 MB entries only in a
// huge sub-array: with HugeEntries zero it caches 4 KB translations
// alone and drops huge ones.
type Config struct {
	Name    string
	Entries int
	Ways    int
	Latency uint64 // cycles
	// HugeEntries, when positive, gives 2 MB translations a sub-array of
	// this many entries (HugeWays-associative) — the usual x86
	// first-level organization (e.g. 32-entry 2M DTLBs on Haswell-class
	// cores).
	HugeEntries int
	HugeWays    int
}

// L1D returns the Table I L1 data TLB: 64-entry, 4-way, 1 cycle, with a
// separate 32-entry 2M sub-array.
func L1D() Config {
	return Config{Name: "L1-DTLB", Entries: 64, Ways: 4, Latency: 1, HugeEntries: 32, HugeWays: 4}
}

// L1I returns the Table I L1 instruction TLB: 128-entry, 4-way, 1 cycle,
// with a separate 8-entry 2M sub-array.
func L1I() Config {
	return Config{Name: "L1-ITLB", Entries: 128, Ways: 4, Latency: 1, HugeEntries: 8, HugeWays: 8}
}

// L2 returns the Table I unified L2 TLB: 1536-entry, 12-way, 12 cycles,
// 4 KB entries only.
func L2() Config {
	return Config{Name: "L2-TLB", Entries: 1536, Ways: 12, Latency: 12}
}

// key4 and keyHuge tag the 4 KB array and the huge sub-array. The
// page-size bit they embed is hashed with the rest of the key, so it
// takes part in set indexing: dropping it would move entries between
// sets and change every hit and eviction.
func key4(vpn addr.VPN) uint64    { return uint64(vpn) << 1 }
func keyHuge(vpn addr.VPN) uint64 { return uint64(vpn)>>addr.LevelBits<<1 | 1 }

// TLB is one translation cache level. Not safe for concurrent use.
type TLB struct {
	cfg   Config
	table *assoc.Table[pagetable.Entry]
	huge  *assoc.Table[pagetable.Entry] // 2M sub-array, nil when 4K-only
	stats stats.HitMiss
}

// New builds a TLB; Entries/Ways must give a power-of-two set count.
func New(cfg Config) *TLB {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic(fmt.Sprintf("tlb %q: invalid geometry %+v", cfg.Name, cfg))
	}
	t := &TLB{cfg: cfg, table: assoc.New[pagetable.Entry](cfg.Entries/cfg.Ways, cfg.Ways)}
	if cfg.HugeEntries > 0 {
		if cfg.HugeWays <= 0 || cfg.HugeEntries%cfg.HugeWays != 0 {
			panic(fmt.Sprintf("tlb %q: invalid huge sub-array geometry %+v", cfg.Name, cfg))
		}
		t.huge = assoc.New[pagetable.Entry](cfg.HugeEntries/cfg.HugeWays, cfg.HugeWays)
	}
	return t
}

// Name returns the configured name.
func (t *TLB) Name() string { return t.cfg.Name }

// Latency returns the probe latency in cycles.
func (t *TLB) Latency() uint64 { return t.cfg.Latency }

// Stats returns the live hit/miss counters.
func (t *TLB) Stats() *stats.HitMiss { return &t.stats }

// ResetStats zeroes the counters (array contents are preserved).
func (t *TLB) ResetStats() { t.stats = stats.HitMiss{} }

// Lookup probes for vpn at both page sizes, recording one hit or miss.
func (t *TLB) Lookup(vpn addr.VPN) (pagetable.Entry, bool) {
	if e, ok := t.table.Lookup(key4(vpn)); ok {
		t.stats.Hit()
		return e, true
	}
	if t.huge == nil {
		t.stats.Miss()
		return pagetable.Entry{}, false
	}
	// Hardware probes the huge sub-array in parallel: no added latency.
	e, ok := t.huge.Lookup(keyHuge(vpn))
	t.stats.Record(ok)
	return e, ok
}

// Insert caches a translation for the page containing vpn.
func (t *TLB) Insert(vpn addr.VPN, e pagetable.Entry) {
	if e.Huge {
		// A 2 MB entry is tagged by its region and lives only in the huge
		// sub-array. A TLB without one drops it, as many x86 second-level
		// TLBs do (e.g. Sandy-Bridge-class STLBs), which bounds the Huge
		// Page mechanism's reach to the small first-level arrays.
		if t.huge != nil {
			t.huge.Insert(keyHuge(vpn), e)
		}
		return
	}
	t.table.Insert(key4(vpn), e)
}

// Invalidate removes any entry covering vpn (both page sizes).
func (t *TLB) Invalidate(vpn addr.VPN) {
	t.table.Invalidate(key4(vpn))
	if t.huge != nil {
		t.huge.Invalidate(keyHuge(vpn))
	}
}

// Flush empties the TLB (counters preserved).
func (t *TLB) Flush() {
	t.table.Flush()
	if t.huge != nil {
		t.huge.Flush()
	}
}

// Len returns the number of valid entries across both arrays.
func (t *TLB) Len() int {
	n := t.table.Len()
	if t.huge != nil {
		n += t.huge.Len()
	}
	return n
}
