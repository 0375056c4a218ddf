package tlb

import (
	"fmt"

	"ndpage/internal/addr"
	"ndpage/internal/assoc"
	"ndpage/internal/pagetable"
	"ndpage/internal/stats"
)

// The PCX table is 4-way and probed in one cycle alongside the L2 TLB
// path; only its entry count varies (the evaluated PCAX table has 512).
const (
	pcxWays    = 4
	pcxLatency = 1 // cycles
)

// pcxEntry pairs the cached translation with the page it was learned
// for: a static instruction tends to keep touching the same page, and
// the stored VPN is how a probe tells reuse from a stride onto a new
// page.
type pcxEntry struct {
	vpn addr.VPN
	e   pagetable.Entry
}

// PCX is a PC-indexed translation table (the PCAX mechanism): entries
// are keyed by the issuing instruction's PC rather than the accessed
// page, exploiting the stability of the page each static memory
// instruction touches. Consulted on L1-TLB miss; filled on walk
// completion. Not safe for concurrent use.
type PCX struct {
	table *assoc.Table[pcxEntry]
	stats stats.HitMiss
}

// NewPCX builds a table of entries entries; entries/4 must be a power
// of two.
func NewPCX(entries int) *PCX {
	if entries <= 0 || entries%pcxWays != 0 {
		panic(fmt.Sprintf("tlb: invalid PCX size %d (must be a positive multiple of %d)", entries, pcxWays))
	}
	return &PCX{table: assoc.New[pcxEntry](entries/pcxWays, pcxWays)}
}

// Latency returns the probe latency in cycles.
func (p *PCX) Latency() uint64 { return pcxLatency }

// Stats returns the live hit/miss counters.
func (p *PCX) Stats() *stats.HitMiss { return &p.stats }

// ResetStats zeroes the counters (contents preserved).
func (p *PCX) ResetStats() { p.stats = stats.HitMiss{} }

// Lookup probes the entry for pc and returns its translation when it
// still covers vpn; a stored entry for a different page is a miss (the
// instruction moved on).
func (p *PCX) Lookup(pc uint64, vpn addr.VPN) (pagetable.Entry, bool) {
	ent, ok := p.table.Lookup(pc)
	if ok && ent.vpn == vpn {
		p.stats.Hit()
		return ent.e, true
	}
	p.stats.Miss()
	return pagetable.Entry{}, false
}

// Insert caches pc's latest translation.
func (p *PCX) Insert(pc uint64, vpn addr.VPN, e pagetable.Entry) {
	p.table.Insert(pc, pcxEntry{vpn: vpn, e: e})
}

// Len returns the number of valid entries.
func (p *PCX) Len() int { return p.table.Len() }
