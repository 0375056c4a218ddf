// Package walker models the hardware page-table walker as a first-class,
// non-blocking unit, the way Victima and ChampSim's PTW do: walk requests
// tagged with (core, address, issue time) enter an MSHR table that
// coalesces duplicate in-flight walks for the same virtual page, a
// configurable number of walk slots bounds how many walks proceed
// concurrently, and the walker owns the two issue strategies the
// simulator's page tables require — the radix sequential walk shortened
// by page-walk-cache hits, and the hashed parallel probe with optional
// cuckoo-walk way prediction.
//
// The walker serves two execution models:
//
//   - Walk is the serial path, taken only by a blocking core
//     (sim.Config.MLP = 1) on its private walker: one requester whose
//     next miss never comes before its previous walk completed. Nothing
//     is ever in flight when a request arrives, so the walk starts at
//     req.Time with nothing to coalesce onto or queue behind; a request
//     timestamped before the previous walk's end breaks that contract
//     and panics.
//
//   - WalkAsync is the event-scheduled path for everything else: the
//     non-blocking core (sim.Config.MLP > 1) and any shared walker,
//     whose requests arrive in global time order from the engine. Slots
//     are really acquired and released: a busy counter gates admission,
//     blocked requests wait on a FIFO, a typed release event scheduled
//     at each walk's completion frees the slot and starts the next
//     queued walk, and duplicate requests attach to the in-flight walk's
//     waiter list. MSHR coalescing and slot queueing emerge from the
//     schedule — the concurrent-walk contention the NDPage paper
//     measures as its motivation. The path allocates nothing in steady
//     state: waiters are interface values over caller-owned request
//     records, in-flight walk records are pooled, and the release event
//     is a (kind, payload) pair whose payload is the walk's slot index.
package walker

import (
	"ndpage/internal/access"
	"ndpage/internal/addr"
	"ndpage/internal/assoc"
	"ndpage/internal/engine"
	"ndpage/internal/memsys"
	"ndpage/internal/pagetable"
	"ndpage/internal/pwc"
	"ndpage/internal/stats"
)

// Request is one page-walk demand: which core misses, for which address,
// at what absolute time.
type Request struct {
	Core int
	V    addr.V
	Time uint64
}

// Response is the outcome of a walk request.
type Response struct {
	// Entry is the resolved leaf translation; Found is false when the
	// page is unmapped (the caller decides how to fault).
	Entry pagetable.Entry
	Found bool
	// Done is the absolute completion time of the walk.
	Done uint64
}

// Stats counts the walker's activity.
type Stats struct {
	// Walks and WalkCycles cover walks actually performed (MSHR hits are
	// excluded, matching the blocking model's per-walk accounting).
	Walks         stats.Counter
	WalkCycles    stats.Counter
	MaxWalkCycles uint64
	// PTEAccesses counts PTE memory requests issued.
	PTEAccesses stats.Counter
	// MSHRHits counts requests coalesced onto an in-flight walk.
	MSHRHits stats.Counter
	// OverlappedWalks counts walks that began while at least one other
	// walk was still in flight (width > 1 only).
	OverlappedWalks stats.Counter
	// QueuedWalks and QueueCycles measure walks that waited for a free
	// walk slot, and for how long.
	QueuedWalks stats.Counter
	QueueCycles stats.Counter
	// XlatProbes and XlatHits count probes of the translation-block
	// cache (the Victima mechanism); a hit short-circuits the walk with
	// zero PTE traffic.
	XlatProbes stats.Counter
	XlatHits   stats.Counter
	// MaxInFlight is the largest number of simultaneously active walks
	// observed (including the one being started).
	MaxInFlight int
	// InFlightHist[k] counts walks that began with k walks in flight
	// (including themselves): index 1 is a solo walk, index 2 a pairwise
	// overlap, and so on. Index 0 is unused.
	InFlightHist []uint64
}

// noteStart records one walk beginning with n walks in flight (n >= 1,
// counting itself) into the overlap statistics.
func (s *Stats) noteStart(n int) {
	if n > 1 {
		s.OverlappedWalks.Inc()
	}
	if n > s.MaxInFlight {
		s.MaxInFlight = n
	}
	for len(s.InFlightHist) <= n {
		s.InFlightHist = append(s.InFlightHist, 0)
	}
	s.InFlightHist[n]++
}

// Memory is the walker's view of the memory hierarchy: issue one request
// at an absolute time and learn when it completes. *memsys.Hierarchy
// satisfies it.
type Memory interface {
	Access(core int, now uint64, pa addr.P, op access.Op, class access.Class) uint64
}

// Config tunes a walker.
type Config struct {
	// Width is the number of concurrent walk slots (Table-I-style knob).
	// 0 or 1 models the conventional blocking walker.
	Width int
	// Cache is the optional page-walk cache probed before sequential
	// walks and filled after them. nil disables.
	Cache *pwc.PWC
	// Xlat is the optional translation-block cache probed before
	// sequential walks (the Victima mechanism: leaf PTE blocks living in
	// the data caches). A hit resolves the walk at the probe's
	// completion time with zero PTE traffic; a completed walk offers its
	// block back, and the store's predictor decides admission. nil
	// disables.
	Xlat *memsys.VictimaStore
	// WayPrediction adds the ECH paper's cuckoo-walk cache for parallel
	// (hashed) walks: most walks probe one predicted way instead of d,
	// with a full second round on misprediction.
	WayPrediction bool
}

// Scheduler is the walker's view of the event engine: schedule a typed
// (kind, payload) event for a target actor at an absolute time, ordered
// under an actor id. *engine.Engine satisfies it; tests may substitute
// their own.
type Scheduler interface {
	Schedule(t uint64, actor int, target engine.Actor, kind uint8, payload uint64)
}

// Waiter receives the outcome of an event-scheduled walk. The walk's
// own requester and every coalesced duplicate register one Waiter each;
// OnWalkDone is invoked exactly once per Waiter, inside the walk's
// release event. Implementations are caller-owned records (the MMU
// pools its translation requests), so registering a Waiter allocates
// nothing.
type Waiter interface {
	OnWalkDone(Response)
}

// evRelease is the walker's only event kind: a walk slot release at a
// walk's completion time. The payload is the slot index.
const evRelease uint8 = 0

// liveWalk is one event-scheduled walk: its request, its result once
// issued, and the waiters registered on it (the walk's own requester
// first, coalesced duplicates after). The same pooled record serves a
// walk through both lifecycle phases — parked on the FIFO waiting for
// a slot (MSHRs allocate at request arrival, before a slot is won),
// then occupying a slot until the release event retires it.
type liveWalk struct {
	req     Request
	vpn     addr.VPN
	end     uint64
	entry   pagetable.Entry
	found   bool
	waiters []Waiter
}

// Walker is a hardware page-table walker over one page-table
// organization. Not safe for concurrent use; the simulator serializes
// requests in global time order.
type Walker struct {
	cfg   Config
	table pagetable.Table
	mem   Memory

	end      uint64              // completion time of the last Walk
	walk     pagetable.Walk      // scratch reused across walks
	fillBuf  []addr.Level        // scratch for PWC fills
	wayCache *assoc.Table[uint8] // ECH cuckoo-walk cache (optional)
	stats    Stats

	// Event-scheduled (WalkAsync) state: live walks hold real slots
	// (slots[i] != nil, counted by busy; len(slots) is the width), releases are typed engine
	// events whose payload is the slot index, blocked requests wait in
	// FIFO order, and retired records return to a free pool.
	sched   Scheduler
	busy    int
	slots   []*liveWalk
	pending []*liveWalk
	lwPool  []*liveWalk
}

var _ engine.Actor = (*Walker)(nil)

// New builds a walker over table, issuing PTE requests to mem.
func New(table pagetable.Table, mem Memory, cfg Config) *Walker {
	w := &Walker{cfg: cfg, table: table, mem: mem, slots: make([]*liveWalk, max(cfg.Width, 1))}
	if cfg.WayPrediction {
		// 64 entries x 4-way over 32 KB regions (8 pages per entry).
		w.wayCache = assoc.New[uint8](16, 4)
	}
	return w
}

// Cache returns the page-walk cache the walker probes, or nil.
func (w *Walker) Cache() *pwc.PWC { return w.cfg.Cache }

// Stats returns the live counters.
func (w *Walker) Stats() *Stats { return &w.stats }

// ResetStats zeroes the counters (in-flight walks and cache contents
// persist).
func (w *Walker) ResetStats() { w.stats = Stats{} }

// cwcRegion is the way-prediction granularity: one entry covers 8 pages.
func cwcRegion(v addr.V) uint64 { return uint64(v.Page()) >> 3 }

// Walk performs req's walk at req.Time and returns its outcome. It is
// the serial path (see the package doc): the caller is the walker's one
// requester and never asks again before the previous walk's Done, so no
// walk is in flight to coalesce onto or queue behind. A back-dated
// request is a caller bug; concurrent requesters use WalkAsync.
func (w *Walker) Walk(req Request) Response {
	if req.Time < w.end {
		panic("walker: Walk request predates the previous walk's end; Walk serves one serial requester (use WalkAsync)")
	}
	w.end = w.perform(req, req.Time, 1)
	return Response{Entry: w.walk.Entry, Found: w.walk.Found, Done: w.end}
}

// WalkAsync resolves one walk request on the event schedule: wt's
// OnWalkDone is invoked exactly once, inside an engine event at the
// walk's completion time. A duplicate in-flight walk coalesces the
// request onto its waiter list; a free slot starts the walk immediately
// and schedules its release; a saturated walker parks the request on
// the FIFO until a release event frees a slot. Callers must deliver
// requests in nondecreasing time order (the engine's dispatch order
// guarantees this), which is what lets slots be held by a simple busy
// counter.
func (w *Walker) WalkAsync(s Scheduler, req Request, wt Waiter) {
	// Release events for parked walks fire through w.sched, so
	// switching schedulers while walks are in flight would strand them
	// on the old one; rebinding is only legal when the walker is idle
	// (e.g. tests driving one walker with a fresh engine per phase).
	if w.sched != s {
		if w.busy > 0 || len(w.pending) > 0 {
			panic("walker: WalkAsync called with a different Scheduler while walks are in flight")
		}
		w.sched = s
	}
	vpn := req.V.Page()
	for _, lw := range w.slots {
		if lw != nil && lw.vpn == vpn {
			w.stats.MSHRHits.Inc()
			lw.waiters = append(lw.waiters, wt)
			return
		}
	}
	// A duplicate of a walk still waiting for a slot coalesces too: the
	// MSHR is allocated at request arrival, not at slot grant.
	for _, lw := range w.pending {
		if lw.vpn == vpn {
			w.stats.MSHRHits.Inc()
			lw.waiters = append(lw.waiters, wt)
			return
		}
	}
	lw := w.getWalkRecord(req, wt)
	// Park when saturated — or when earlier requests are already parked,
	// so a request arriving as a slot frees cannot jump the FIFO.
	if w.busy >= len(w.slots) || len(w.pending) > 0 {
		w.pending = append(w.pending, lw)
		return
	}
	w.startAsync(lw, req.Time)
}

// PendingWalks returns the number of event-scheduled requests waiting
// for a walk slot (tests and stats).
func (w *Walker) PendingWalks() int { return len(w.pending) }

// getWalkRecord takes a walk record from the pool (or grows it) and
// initializes it for req with wt as the first waiter.
func (w *Walker) getWalkRecord(req Request, wt Waiter) *liveWalk {
	var lw *liveWalk
	if n := len(w.lwPool); n > 0 {
		lw = w.lwPool[n-1]
		w.lwPool[n-1] = nil
		w.lwPool = w.lwPool[:n-1]
	} else {
		lw = &liveWalk{}
	}
	lw.req = req
	lw.vpn = req.V.Page()
	lw.waiters = append(lw.waiters, wt)
	return lw
}

// putWalkRecord returns a retired record to the pool, dropping its
// waiter references.
func (w *Walker) putWalkRecord(lw *liveWalk) {
	for i := range lw.waiters {
		lw.waiters[i] = nil
	}
	lw.waiters = lw.waiters[:0]
	w.lwPool = append(w.lwPool, lw)
}

// startAsync acquires a slot at time at and performs lw's walk,
// scheduling the release event at its completion.
func (w *Walker) startAsync(lw *liveWalk, at uint64) {
	// A slot can free before the request's own timestamp: requests are
	// issued at their event time but stamped after the TLB lookups, so a
	// parked request's walk cannot begin until the miss actually reaches
	// the walker.
	if at < lw.req.Time {
		at = lw.req.Time
	}
	w.busy++
	end := w.perform(lw.req, at, w.busy)
	lw.end = end
	lw.entry = w.walk.Entry
	lw.found = w.walk.Found

	slot := 0 // fewer than len(slots) walks held a slot, so one is free
	for w.slots[slot] != nil {
		slot++
	}
	w.slots[slot] = lw
	w.sched.Schedule(end, lw.req.Core, w, evRelease, uint64(slot))
}

// OnEvent implements engine.Actor: the walker's only event kind is the
// slot release at a walk's completion, with the slot index as payload.
func (w *Walker) OnEvent(now uint64, kind uint8, payload uint64) {
	switch kind {
	case evRelease:
		w.release(int(payload))
	default:
		panic("walker: unknown event kind")
	}
}

// release is the slot-release event at a walk's completion: retire the
// walk, wake every waiter, and hand the freed slot to the FIFO head.
func (w *Walker) release(slot int) {
	lw := w.slots[slot]
	w.slots[slot] = nil
	w.busy--
	for _, wt := range lw.waiters {
		wt.OnWalkDone(Response{Entry: lw.entry, Found: lw.found, Done: lw.end})
	}
	if len(w.pending) > 0 && w.busy < len(w.slots) {
		next := w.pending[0]
		copy(w.pending, w.pending[1:])
		w.pending[len(w.pending)-1] = nil
		w.pending = w.pending[:len(w.pending)-1]
		w.startAsync(next, lw.end)
	}
	w.putWalkRecord(lw)
}

// perform starts req's walk at start (at or after req.Time, with
// inFlight walks in flight counting itself) and records it: both the
// serial and the event-scheduled path begin every walk here. It
// returns the completion time, leaving the outcome in w.walk.
func (w *Walker) perform(req Request, start uint64, inFlight int) uint64 {
	if start > req.Time {
		w.stats.QueuedWalks.Inc()
		w.stats.QueueCycles.Add(start - req.Time)
	}
	w.stats.noteStart(inFlight)
	end := w.issue(start, req.Core, req.V)
	w.stats.Walks.Inc()
	// Walk latency is measured from the request, so slot-queue delay is
	// part of it — what the stalled requester actually experiences.
	lat := end - req.Time
	w.stats.WalkCycles.Add(lat)
	if lat > w.stats.MaxWalkCycles {
		w.stats.MaxWalkCycles = lat
	}
	return end
}

// issue performs the table's access sequence for v starting at t0 and
// returns the completion time, leaving the outcome in w.walk.
func (w *Walker) issue(t0 uint64, core int, v addr.V) uint64 {
	w.table.WalkInto(v, &w.walk)
	if w.walk.Kind() == pagetable.Parallel {
		return w.issueParallel(t0, core, v)
	}
	return w.issueSequential(t0, core, v)
}

// issueSequential is the radix-style dependent walk, shortened by the
// deepest page-walk-cache hit: a hit at level L supplies the child-table
// base below L, so only deeper entries are read from memory. A
// translation-block cache, when configured, is probed first: a hit
// supplies the leaf PTE directly and the walk ends at the probe.
func (w *Walker) issueSequential(t uint64, core int, v addr.V) uint64 {
	if w.cfg.Xlat != nil {
		w.stats.XlatProbes.Inc()
		done, hit := w.cfg.Xlat.Probe(core, t, v)
		if hit && w.walk.Found {
			w.stats.XlatHits.Inc()
			return done
		}
		t = done
	}
	skipDepth := -1
	if w.cfg.Cache != nil {
		t += w.cfg.Cache.Latency()
		if deepest, ok := w.cfg.Cache.Probe(v); ok {
			skipDepth = addr.Depth(deepest)
		}
	}
	for _, a := range w.walk.Accesses() {
		if addr.Depth(a.Level) <= skipDepth {
			continue
		}
		t = w.mem.Access(core, t, a.PA, access.Read, access.PTE)
		w.stats.PTEAccesses.Inc()
	}
	if w.cfg.Cache != nil {
		// Record the non-leaf entries this walk resolved.
		w.fillBuf = w.fillBuf[:0]
		for i, a := range w.walk.Seq {
			if i < len(w.walk.Seq)-1 {
				w.fillBuf = append(w.fillBuf, a.Level)
			}
		}
		w.cfg.Cache.Fill(v, w.fillBuf)
	}
	if w.cfg.Xlat != nil && w.walk.Found {
		w.cfg.Xlat.Fill(core, t, v)
	}
	return t
}

// issueParallel is the hash-table (ECH) walk: d parallel probes, or —
// with the cuckoo-walk cache — one predicted probe with a full second
// round on misprediction.
func (w *Walker) issueParallel(t uint64, core int, v addr.V) uint64 {
	probeAll := func(t uint64, skip int) uint64 {
		end := t
		for i, a := range w.walk.Accesses() {
			if i == skip {
				continue
			}
			done := w.mem.Access(core, t, a.PA, access.Read, access.PTE)
			w.stats.PTEAccesses.Inc()
			if done > end {
				end = done
			}
		}
		return end
	}

	if w.wayCache == nil {
		return probeAll(t, -1)
	}
	region := cwcRegion(v)
	t++ // CWC probe
	hint, ok := w.wayCache.Lookup(region)
	if ok && int(hint) < len(w.walk.Par) {
		a := w.walk.Par[hint]
		t = w.mem.Access(core, t, a.PA, access.Read, access.PTE)
		w.stats.PTEAccesses.Inc()
		if w.walk.FoundIdx != int(hint) {
			// Mispredict: fall back to a full round for the rest.
			t = probeAll(t, int(hint))
		}
	} else {
		t = probeAll(t, -1)
	}
	if w.walk.FoundIdx >= 0 {
		w.wayCache.Insert(region, uint8(w.walk.FoundIdx))
	}
	return t
}
