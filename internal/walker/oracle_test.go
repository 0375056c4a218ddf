package walker

import (
	"fmt"
	"reflect"
	"testing"

	"ndpage/internal/access"
	"ndpage/internal/addr"
	"ndpage/internal/osmm"
	"ndpage/internal/pagetable"
	"ndpage/internal/phys"
	"ndpage/internal/pwc"
	"ndpage/internal/xrand"
)

// refWalker is the three-scan synchronous walk — an MSHR loop, an
// interval slot search, and an in-flight count, each a full pass over
// the MSHR table — kept as the differential oracle for Walk's idle fast
// path and fused occupancy pass. It drives its own Walker's issue path
// and statistics, so only the MSHR and slot bookkeeping differ from the
// code under test.
type refWalker struct {
	w        *Walker
	inflight []mshr
}

func (r *refWalker) Walk(req Request) Response {
	w := r.w
	r.prune(req.Time)
	vpn := req.V.Page()
	for i := range r.inflight {
		f := &r.inflight[i]
		if f.vpn == vpn && f.start <= req.Time && f.end > req.Time {
			w.stats.MSHRHits.Inc()
			return Response{Entry: f.entry, Found: f.found, Done: f.end, Coalesced: true}
		}
	}
	start := r.slotFree(req.Time)
	if start > req.Time {
		w.stats.QueuedWalks.Inc()
		w.stats.QueueCycles.Add(start - req.Time)
	}
	w.stats.noteStart(r.inFlight(start) + 1)

	end := w.issue(start, req.Core, req.V)

	w.stats.Walks.Inc()
	lat := end - req.Time
	w.stats.WalkCycles.Add(lat)
	if lat > w.stats.MaxWalkCycles {
		w.stats.MaxWalkCycles = lat
	}
	r.inflight = append(r.inflight, mshr{
		vpn: vpn, start: start, end: end,
		entry: w.walk.Entry, found: w.walk.Found,
	})
	return Response{Entry: w.walk.Entry, Found: w.walk.Found, Done: end}
}

func (r *refWalker) inFlight(now uint64) int {
	n := 0
	for i := range r.inflight {
		if r.inflight[i].start <= now && r.inflight[i].end > now {
			n++
		}
	}
	return n
}

func (r *refWalker) prune(now uint64) {
	if len(r.inflight) <= retainedMSHRs {
		return
	}
	live := r.inflight[:0]
	for _, f := range r.inflight {
		if f.end > now {
			live = append(live, f)
		}
	}
	r.inflight = live
}

func (r *refWalker) slotFree(t uint64) uint64 {
	for {
		n := 0
		next := uint64(0)
		for i := range r.inflight {
			f := &r.inflight[i]
			if f.start <= t && f.end > t {
				n++
				if next == 0 || f.end < next {
					next = f.end
				}
			}
		}
		if n < r.w.width {
			return t
		}
		t = next
	}
}

// hashMem is a stateless memory whose latency varies with the address
// and issue time, so walk lengths differ without any shared state
// between the two walkers under comparison.
type hashMem struct{}

func (hashMem) Access(core int, now uint64, pa addr.P, op access.Op, class access.Class) uint64 {
	return now + 20 + (uint64(pa)^now)*0x9e3779b97f4a7c15>>58
}

// oracleRig maps a 64 MB region in a fresh radix table and returns a
// walker over it.
func oracleRig(tb testing.TB, width int, withPWC bool) (*Walker, addr.V) {
	tb.Helper()
	alloc := phys.New(1 << 30)
	table := pagetable.NewRadix(alloc)
	as := osmm.New(table, alloc, osmm.DefaultConfig(osmm.Base4K, alloc.TotalFrames()))
	base := as.Alloc(64<<20, "data")
	cfg := Config{Width: width}
	if withPWC {
		cfg.Cache = pwc.New(pwc.Default())
	}
	return New(table, hashMem{}, cfg), base
}

// streamCoverage counts the cases a request stream must exercise for
// the differential run to mean anything.
type streamCoverage struct {
	coalesced, queued, behind, retiredHits int
	idle                                   int // requests at or past every recorded walk's end
}

// skewedStream issues requests from a global clock with random gaps,
// plus back-dated requests (up to a few walk lengths behind the clock,
// so they land on retired-but-retained MSHRs) and far-future ones (a
// fault-delayed core), over a hot page pool for duplicate VPNs and a
// sprinkling of unmapped pages.
func skewedStream(rng *xrand.RNG, base addr.V, n int) []Request {
	hot := make([]addr.V, 16)
	for i := range hot {
		hot[i] = base + addr.V(rng.Uint64n(16<<8)*addr.PageSize)
	}
	reqs := make([]Request, n)
	now := uint64(1000)
	for i := range reqs {
		now += rng.Uint64n(150)
		t := now
		switch r := rng.Uint64n(100); {
		case r < 15:
			t -= rng.Uint64n(1000)
		case r < 18:
			t += 10_000 + rng.Uint64n(40_000)
		}
		var v addr.V
		switch r := rng.Uint64n(100); {
		case r < 55:
			v = hot[rng.Uint64n(uint64(len(hot)))]
		case r < 97:
			v = base + addr.V(rng.Uint64n(64<<20))
		default:
			v = base + 128<<20 + addr.V(rng.Uint64n(1<<20))
		}
		reqs[i] = Request{Core: int(rng.Uint64n(4)), V: v, Time: t}
	}
	return reqs
}

// TestWalkMatchesThreeScanOracle drives Walk and the three-scan oracle
// through identical seeded request streams at widths 1-4, with and
// without a PWC, and requires identical responses and identical Stats,
// histograms included. Two stream shapes: skewed (out-of-order and
// future timestamps, duplicate VPNs, hits on retained MSHRs) and
// min-clock (blocking cores, each requesting when its last walk is
// done, with occasional fault delays — the simulator's own schedule,
// where the idle fast path carries almost every walk).
func TestWalkMatchesThreeScanOracle(t *testing.T) {
	const n = 5000
	for width := 1; width <= 4; width++ {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, withPWC := range []bool{false, true} {
				name := fmt.Sprintf("w%d/seed%d/pwc=%v", width, seed, withPWC)
				t.Run("skewed/"+name, func(t *testing.T) {
					got, base := oracleRig(t, width, withPWC)
					ref, _ := oracleRig(t, width, withPWC)
					reqs := skewedStream(xrand.New(seed*7919+uint64(width)), base, n)
					i := 0
					gen := func() Request { i++; return reqs[i-1] }
					cov := diffWalks(t, got, &refWalker{w: ref}, gen, func(Request, Response) {}, n)
					if cov.coalesced == 0 || cov.behind == 0 || cov.retiredHits == 0 ||
						(width < 4 && cov.queued == 0) || cov.idle == 0 {
						t.Errorf("stream missed a case: %+v", cov)
					}
				})
				t.Run("minclock/"+name, func(t *testing.T) {
					got, base := oracleRig(t, width, withPWC)
					ref, _ := oracleRig(t, width, withPWC)
					rng := xrand.New(seed*104729 + uint64(width))
					var clock [4]uint64
					gen := func() Request {
						c := 0
						for k := range clock {
							if clock[k] < clock[c] {
								c = k
							}
						}
						v := base + addr.V(rng.Uint64n(64<<20))
						if rng.Uint64n(100) < 10 {
							v = base + addr.V(rng.Uint64n(8)*addr.PageSize)
						}
						return Request{Core: c, V: v, Time: clock[c]}
					}
					done := func(req Request, resp Response) {
						clock[req.Core] = resp.Done + rng.Uint64n(200)
						if rng.Uint64n(100) < 2 {
							clock[req.Core] += 20_000 // page fault
						}
					}
					cov := diffWalks(t, got, &refWalker{w: ref}, gen, done, n)
					if cov.idle == 0 || cov.idle == n || cov.queued == 0 && width < 4 {
						t.Errorf("stream missed a case: %+v", cov)
					}
				})
			}
		}
	}
}

// diffWalks issues n requests from gen to both walkers, comparing every
// response and the full Stats after each one; done sees each request's
// response before the next is generated.
func diffWalks(t *testing.T, got *Walker, ref *refWalker, gen func() Request, done func(Request, Response), n int) streamCoverage {
	t.Helper()
	var cov streamCoverage
	var latest uint64
	for i := 0; i < n; i++ {
		req := gen()
		if req.Time >= got.maxEnd {
			cov.idle++
		}
		g, w := got.Walk(req), ref.Walk(req)
		if g != w {
			t.Fatalf("request %d %+v: Walk = %+v, oracle %+v", i, req, g, w)
		}
		if !reflect.DeepEqual(got.stats, ref.w.stats) {
			t.Fatalf("request %d %+v: stats diverged:\n  got    %+v\n  oracle %+v", i, req, got.stats, ref.w.stats)
		}
		done(req, g)
		if req.Time < latest {
			cov.behind++
			if g.Coalesced && g.Done <= latest {
				cov.retiredHits++
			}
		}
		if req.Time > latest {
			latest = req.Time
		}
		if g.Coalesced {
			cov.coalesced++
		}
	}
	cov.queued = int(got.stats.QueuedWalks.Value())
	return cov
}
