package core

import (
	"fmt"

	"ndpage/internal/access"
	"ndpage/internal/addr"
	"ndpage/internal/memsys"
	"ndpage/internal/osmm"
	"ndpage/internal/pagetable"
	"ndpage/internal/pwc"
	"ndpage/internal/stats"
	"ndpage/internal/tlb"
	"ndpage/internal/walker"
)

// Stats counts one MMU's translations. Walk activity lives in the
// MMU's walker (Walker().Stats(), cluster-wide when the walker is
// shared), and translation cycles in the core's clock.
type Stats struct {
	Translations stats.Counter
	// IdentityHits and IdentityMisses count the NMT identity-segment
	// range check: hits resolve at identityCheckLat with no TLB or walk
	// activity; misses fall through to the conventional path. Zero
	// unless Options.Identity was set.
	IdentityHits   stats.Counter
	IdentityMisses stats.Counter
}

// identityCheckLat is the NMT range check's cost in cycles: a pair of
// bound registers compared in parallel with decode.
const identityCheckLat = 1

// NewWalkUnit assembles the hardware page-table walker for mech over
// table, with the page-walk caches it probes (Walker.Cache), issuing
// PTE traffic to mem. One walker normally serves one MMU; a shared one
// models a cluster-level walker serving every core's misses, which is
// where MSHR coalescing and slot contention appear.
func NewWalkUnit(mech Mechanism, table pagetable.Table, mem *memsys.Hierarchy, opts Options) *walker.Walker {
	wcfg := walker.Config{
		Width:         opts.WalkerWidth,
		WayPrediction: opts.ECHWayPrediction && mech == ECH,
	}
	if cfg, ok := mech.PWCConfig(); ok && !opts.DisablePWC {
		wcfg.Cache = pwc.New(cfg)
	}
	if mech == Victima && mem != nil {
		// The hierarchy owns the translation-block store (built when its
		// VictimaGate is set; nil otherwise).
		wcfg.Xlat = mem.Victima()
	}
	return walker.New(table, mem, wcfg)
}

// MMU is one core's memory-management unit: L1 D/I TLBs, a unified L2
// TLB, and a hardware walker (with its page-walk caches) over the
// mechanism's page table. The MMU itself is a thin TLB front-end;
// every miss is delegated to the walker. Not safe for concurrent use.
type MMU struct {
	mech   Mechanism
	coreID int
	dtlb   *tlb.TLB
	itlb   *tlb.TLB
	stlb   *tlb.TLB
	walker *walker.Walker
	table  pagetable.Table

	// identity is the NMT identity-segment range check (nil unless
	// Options.Identity was set); pcx is the PCAX PC-indexed table (nil
	// unless Options.PCXEntries was set).
	identity *osmm.AddressSpace
	pcx      *tlb.PCX

	// dtlbLat/stlbLat cache the constant probe latencies: probe runs
	// per simulated load/store and the TLB hit path should read MMU-local
	// fields, not chase each TLB's config.
	dtlbLat uint64
	stlbLat uint64
	pcxLat  uint64

	// xlatFree heads the free list of pooled async-translation records,
	// so a TLB miss in the event-scheduled path allocates nothing in
	// steady state.
	xlatFree *xlatReq

	stats Stats
}

// TranslationClient receives the completion of an asynchronous
// translation: the physical address and the absolute time it resolved.
// Implementations are caller-owned records (the simulator pools its
// in-flight memory ops), invoked exactly once per TranslateAsyncPC call.
type TranslationClient interface {
	OnTranslated(pa addr.P, at uint64)
}

// xlatReq is one in-flight asynchronous translation: the context the
// MMU needs to fill its TLBs and account latency when the walk's
// completion event fires. Records are pooled on the MMU's free list and
// registered with the walker as Waiters, so a miss allocates nothing.
type xlatReq struct {
	m      *MMU
	v      addr.V
	now    uint64
	pc     uint64
	client TranslationClient
	next   *xlatReq
}

var _ walker.Waiter = (*xlatReq)(nil)

// OnWalkDone implements walker.Waiter: fill the TLBs, account the
// translation latency, recycle the record, and hand the result to the
// client.
func (r *xlatReq) OnWalkDone(resp walker.Response) {
	m := r.m
	client, pa := r.client, m.fill(r.now, r.v, r.pc, resp)
	m.putXlat(r)
	client.OnTranslated(pa, resp.Done)
}

// getXlat takes a pooled translation record (or grows the pool).
func (m *MMU) getXlat(v addr.V, now uint64, pc uint64, client TranslationClient) *xlatReq {
	r := m.xlatFree
	if r == nil {
		r = &xlatReq{m: m}
	} else {
		m.xlatFree = r.next
	}
	r.v, r.now, r.pc, r.client, r.next = v, now, pc, client, nil
	return r
}

// putXlat returns a completed record to the free list.
func (m *MMU) putXlat(r *xlatReq) {
	r.client = nil
	r.next = m.xlatFree
	m.xlatFree = r
}

// Options tunes an MMU away from the Table I defaults, for sensitivity
// studies.
type Options struct {
	// DisablePWC removes the page-walk caches (DESIGN.md ablation 2).
	DisablePWC bool
	// ECHWayPrediction adds the ECH paper's cuckoo-walk cache: a small
	// cache predicting which way holds a region's translations, so most
	// hash walks probe one way instead of d. Off by default (the
	// NDPage paper's ECH baseline figures match plain d-probe ECH).
	ECHWayPrediction bool
	// WalkerWidth sets the walker's concurrent walk slots (0 = 1, the
	// conventional blocking walker — Table I's implied default).
	WalkerWidth int
	// SharedUnit, when non-nil, makes the MMU delegate its misses to a
	// pre-built (typically cluster-shared) walker from NewWalkUnit
	// instead of owning one; DisablePWC, ECHWayPrediction, and
	// WalkerWidth are then properties of that walker.
	SharedUnit *walker.Walker
	// Identity, when non-nil, enables the NMT identity-segment fast
	// path (Picorel et al., MEMSYS 2017): addresses the OS model keeps
	// identity-mapped (physical = virtual) translate in identityCheckLat
	// cycles with no TLB or walker activity.
	Identity *osmm.AddressSpace
	// PCXEntries, when > 0, builds a PC-indexed translation table of
	// that many entries (the PCAX mechanism), probed on L1-TLB miss.
	PCXEntries int
}

// NewMMUWithOptions assembles the MMU for mech on core coreID. The TLB
// geometry is Table I's; the PWC geometry follows the mechanism, and
// opts tunes it away from the defaults.
func NewMMUWithOptions(mech Mechanism, coreID int, table pagetable.Table, mem *memsys.Hierarchy, opts Options) *MMU {
	m := &MMU{
		mech:   mech,
		coreID: coreID,
		dtlb:   tlb.New(tlb.L1D()),
		itlb:   tlb.New(tlb.L1I()),
		stlb:   tlb.New(tlb.L2()),
		table:  table,
	}
	m.dtlbLat = m.dtlb.Latency()
	m.stlbLat = m.stlb.Latency()
	m.identity = opts.Identity
	if opts.PCXEntries > 0 {
		m.pcx = tlb.NewPCX(opts.PCXEntries)
		m.pcxLat = m.pcx.Latency()
	}
	if opts.SharedUnit != nil {
		m.walker = opts.SharedUnit
	} else {
		m.walker = NewWalkUnit(mech, table, mem, opts)
	}
	return m
}

// Mechanism returns the translation mechanism this MMU implements.
func (m *MMU) Mechanism() Mechanism { return m.mech }

// Stats returns the live translation counters.
func (m *MMU) Stats() *Stats { return &m.stats }

// Walker returns the hardware page-table walker serving this MMU's
// misses (shared across MMUs when Options.SharedUnit was used).
func (m *MMU) Walker() *walker.Walker { return m.walker }

// DTLB returns the L1 data TLB (for statistics).
func (m *MMU) DTLB() *tlb.TLB { return m.dtlb }

// ITLB returns the L1 instruction TLB.
func (m *MMU) ITLB() *tlb.TLB { return m.itlb }

// STLB returns the unified second-level TLB.
func (m *MMU) STLB() *tlb.TLB { return m.stlb }

// PWC returns the page-walk caches, or nil.
func (m *MMU) PWC() *pwc.PWC { return m.walker.Cache() }

// PCXTable returns the PC-indexed translation table, or nil when
// Options.PCXEntries was zero.
func (m *MMU) PCXTable() *tlb.PCX { return m.pcx }

// ResetStats zeroes all translation counters (TLB/PWC/MSHR contents
// persist).
func (m *MMU) ResetStats() {
	m.stats = Stats{}
	m.dtlb.ResetStats()
	m.itlb.ResetStats()
	m.stlb.ResetStats()
	m.walker.ResetStats()
	if p := m.walker.Cache(); p != nil {
		p.ResetStats()
	}
	if m.pcx != nil {
		m.pcx.ResetStats()
	}
}

// TranslatePC resolves the data-side virtual address v at absolute time
// now on the serial path (a blocking core on its private walker, through
// walker.Walk) and returns the physical address plus the absolute
// completion time. The page must already be mapped
// (the OS model faults before translation, as a real OS resolves the
// fault and restarts the access). pc is the issuing instruction's PC,
// zero when unknown: it feeds the PCAX table, and every other mechanism
// ignores it.
func (m *MMU) TranslatePC(now uint64, v addr.V, op access.Op, pc uint64) (addr.P, uint64) {
	pa, t, hit := m.probe(now, v, pc)
	if hit {
		return pa, t
	}
	resp := m.walker.Walk(walker.Request{Core: m.coreID, V: v, Time: t})
	return m.fill(now, v, pc, resp), resp.Done
}

// TranslateAsyncPC resolves v as a request/completion pair on the event
// schedule: client.OnTranslated is invoked exactly once with the
// physical address and the absolute completion time. It shares
// TranslatePC's TLB front end — hits resolve inline, since their
// few-cycle latency is known immediately — while misses go through the
// walker's event-scheduled path, so concurrent translations contend
// for real walk slots, coalesce in the MSHRs, and fill the TLBs only
// when their walk's completion event fires. The miss context rides a
// pooled record registered with the walker, so the path allocates
// nothing in steady state. Used by the simulator's staged front-end:
// non-blocking cores (sim.Config.MLP > 1) and any core on a shared
// walker.
func (m *MMU) TranslateAsyncPC(s walker.Scheduler, now uint64, v addr.V, op access.Op, pc uint64, client TranslationClient) {
	pa, t, hit := m.probe(now, v, pc)
	if hit {
		client.OnTranslated(pa, t)
		return
	}
	m.walker.WalkAsync(s, walker.Request{Core: m.coreID, V: v, Time: t}, m.getXlat(v, now, pc, client))
}

// probe runs the TLB front end both core models share: Ideal's
// zero-latency translation, the NMT identity check, the L1 TLB, the
// PCAX table, and the L2 TLB, charging a hit's latency. On a hit it
// returns the physical address and completion time; on a miss, hit is
// false and t is the time the walk starts.
func (m *MMU) probe(now uint64, v addr.V, pc uint64) (pa addr.P, t uint64, hit bool) {
	m.stats.Translations.Inc()
	if m.mech == Ideal {
		// Every request hits an L1 TLB of zero latency (Section VI).
		e, ok := m.table.Lookup(v.Page())
		if !ok {
			panic(unmapped(v))
		}
		return physical(e, v), now, true
	}
	if m.identity != nil {
		if pa, ok := m.identityTranslate(v); ok {
			return pa, now + identityCheckLat, true
		}
	}
	vpn := v.Page()
	t = now + m.dtlbLat
	if e, ok := m.dtlb.Lookup(vpn); ok {
		return physical(e, v), t, true
	}
	if m.pcx != nil && pc != 0 {
		t += m.pcxLat
		if e, ok := m.pcx.Lookup(pc, vpn); ok {
			m.dtlb.Insert(vpn, e)
			return physical(e, v), t, true
		}
	}
	t += m.stlbLat
	if e, ok := m.stlb.Lookup(vpn); ok {
		m.dtlb.Insert(vpn, e)
		return physical(e, v), t, true
	}
	return 0, t, false
}

// fill completes a translation that missed the TLBs and started at
// now: it installs the walk's leaf in the L1 and L2 TLBs (and the PCAX
// table when the access carried a PC), charges the latency, and
// returns v's physical address.
func (m *MMU) fill(now uint64, v addr.V, pc uint64, resp walker.Response) addr.P {
	if !resp.Found {
		panic(unmapped(v))
	}
	vpn := v.Page()
	m.dtlb.Insert(vpn, resp.Entry)
	m.stlb.Insert(vpn, resp.Entry)
	if m.pcx != nil && pc != 0 {
		m.pcx.Insert(pc, vpn, resp.Entry)
	}
	return physical(resp.Entry, v)
}

// identityTranslate runs the NMT range check: a covered address still
// consults the page table for the leaf entry (the model keeps one
// authoritative mapping), but charges only the check's latency — the
// lookup stands in for wiring physical = virtual through the datapath.
// An uncovered or unmapped address falls back to the conventional path.
func (m *MMU) identityTranslate(v addr.V) (addr.P, bool) {
	if m.identity.IdentityCovered(v) {
		if e, ok := m.table.Lookup(v.Page()); ok {
			m.stats.IdentityHits.Inc()
			return physical(e, v), true
		}
	}
	m.stats.IdentityMisses.Inc()
	return 0, false
}

// TranslateCode resolves an instruction-fetch address. Fetch translation
// runs ahead of the pipeline, so it contributes structure activity (ITLB,
// shared L2 TLB) but no cycles; code-side walks resolve functionally —
// the paper's workloads are data-bound and their code footprint is a few
// pages (see DESIGN.md substitutions).
func (m *MMU) TranslateCode(v addr.V) addr.P {
	vpn := v.Page()
	if m.mech != Ideal {
		if e, ok := m.itlb.Lookup(vpn); ok {
			return physical(e, v)
		}
		if e, ok := m.stlb.Lookup(vpn); ok {
			m.itlb.Insert(vpn, e)
			return physical(e, v)
		}
	}
	e, ok := m.table.Lookup(vpn)
	if !ok {
		panic(unmapped(v))
	}
	if m.mech != Ideal {
		m.itlb.Insert(vpn, e)
		m.stlb.Insert(vpn, e)
	}
	return physical(e, v)
}

// physical applies a leaf entry to v.
func physical(e pagetable.Entry, v addr.V) addr.P {
	return e.Translate(v.Page()).Addr() + addr.P(v.Offset())
}

func unmapped(v addr.V) string {
	return fmt.Sprintf("core: translation of unmapped address %#x (OS fault model must run first)", uint64(v))
}
