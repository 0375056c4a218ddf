package walker_test

import (
	"reflect"
	"testing"

	"ndpage/internal/addr"
	"ndpage/internal/engine"
	"ndpage/internal/pwc"
	"ndpage/internal/walker"
	"ndpage/internal/xrand"
)

// asyncResp collects one WalkAsync outcome plus the engine time the
// waiter was woken at. It implements walker.Waiter.
type asyncResp struct {
	walker.Response
	eng     *engine.Engine
	firedAt uint64
	done    bool
}

func (r *asyncResp) OnWalkDone(resp walker.Response) {
	r.Response = resp
	r.firedAt = r.eng.Now()
	r.done = true
}

// walkIssuer is a test actor that injects WalkAsync requests (and
// arbitrary checks) as engine events, the way the MMU's miss path does.
type walkIssuer struct {
	eng *engine.Engine
	w   *walker.Walker
	fns []func()
}

func (wi *walkIssuer) OnEvent(now uint64, kind uint8, payload uint64) {
	wi.fns[payload]()
}

func (wi *walkIssuer) at(t uint64, core int, fn func()) {
	wi.fns = append(wi.fns, fn)
	wi.eng.Schedule(t, core, wi, 0, uint64(len(wi.fns)-1))
}

func newIssuer(eng *engine.Engine, w *walker.Walker) *walkIssuer {
	return &walkIssuer{eng: eng, w: w}
}

func (wi *walkIssuer) walkAt(t uint64, core int, v addr.V, out *asyncResp) {
	out.eng = wi.eng
	wi.at(t, core, func() {
		wi.w.WalkAsync(wi.eng, walker.Request{Core: core, V: v, Time: t}, out)
	})
}

func TestAsyncMatchesBlockingTiming(t *testing.T) {
	w, base := radixRig(t, walker.Config{})
	eng := engine.New()
	wi := newIssuer(eng, w)
	var r asyncResp
	wi.walkAt(1000, 0, base, &r)
	eng.Run()
	if !r.done || !r.Found {
		t.Fatal("async walk did not complete with a mapping")
	}
	// Same cold radix timing as the synchronous path: 4 dependent
	// accesses of 100 cycles, waiter woken inside the completion event.
	if r.Done != 1400 || r.firedAt != 1400 {
		t.Errorf("walk done=%d fired=%d, want 1400/1400", r.Done, r.firedAt)
	}
	s := w.Stats()
	if s.Walks.Value() != 1 || s.PTEAccesses.Value() != 4 || s.MSHRHits != 0 || s.QueuedWalks != 0 {
		t.Errorf("stats walks=%d pte=%d mshr=%d queued=%d, want 1/4/0/0",
			s.Walks.Value(), s.PTEAccesses.Value(), s.MSHRHits.Value(), s.QueuedWalks.Value())
	}
}

func TestAsyncWidthOneQueuesOnReleaseEvent(t *testing.T) {
	w, base := radixRig(t, walker.Config{Width: 1})
	eng := engine.New()
	wi := newIssuer(eng, w)
	var a, b asyncResp
	wi.walkAt(0, 0, base, &a)
	wi.walkAt(100, 1, base+addr.PageSize, &b)
	wi.at(100, 2, func() {
		if got := w.PendingWalks(); got != 1 {
			t.Errorf("at t=100: %d pending walks, want 1 (slot held until release)", got)
		}
	})
	eng.Run()
	if a.Done != 400 {
		t.Fatalf("first walk done at %d, want 400", a.Done)
	}
	// The release event at 400 hands the slot to the queued walk.
	if b.Done != 800 || b.firedAt != 800 {
		t.Errorf("queued walk done=%d fired=%d, want 800/800", b.Done, b.firedAt)
	}
	s := w.Stats()
	if s.QueuedWalks.Value() != 1 || s.QueueCycles.Value() != 300 {
		t.Errorf("queued=%d cycles=%d, want 1/300", s.QueuedWalks.Value(), s.QueueCycles.Value())
	}
	if s.OverlappedWalks != 0 {
		t.Error("width-1 walker overlapped walks")
	}
}

func TestAsyncCoalescesOntoLiveWalk(t *testing.T) {
	w, base := radixRig(t, walker.Config{Width: 4})
	eng := engine.New()
	wi := newIssuer(eng, w)
	var a, b asyncResp
	wi.walkAt(0, 0, base, &a)
	wi.walkAt(50, 1, base+64, &b) // same page, in flight
	eng.Run()
	if b.Done != a.Done || b.firedAt != a.Done || b.Entry != a.Entry {
		t.Errorf("coalesced response done=%d fired=%d entry=%+v, want walk's %d/%+v",
			b.Done, b.firedAt, b.Entry, a.Done, a.Entry)
	}
	s := w.Stats()
	if s.Walks.Value() != 1 || s.MSHRHits.Value() != 1 || s.PTEAccesses.Value() != 4 {
		t.Errorf("walks=%d mshr=%d pte=%d, want 1/1/4", s.Walks.Value(), s.MSHRHits.Value(), s.PTEAccesses.Value())
	}

	// After the release event the walk no longer coalesces: the
	// request performs a walk of its own.
	var c asyncResp
	wi.walkAt(a.Done+10, 0, base, &c)
	eng.Run()
	s = w.Stats()
	if s.MSHRHits.Value() != 1 || c.Done <= a.Done+10 {
		t.Errorf("retired walk still coalescing: mshr=%d done=%d", s.MSHRHits.Value(), c.Done)
	}
	if s.Walks.Value() != 2 {
		t.Errorf("walks = %d, want 2", s.Walks.Value())
	}
}

func TestAsyncOverlapAndHistogram(t *testing.T) {
	w, base := radixRig(t, walker.Config{Width: 2})
	eng := engine.New()
	wi := newIssuer(eng, w)
	var a, b, c asyncResp
	wi.walkAt(0, 0, base, &a)
	wi.walkAt(100, 1, base+addr.PageSize, &b)
	wi.walkAt(150, 2, base+2*addr.PageSize, &c)
	eng.Run()
	if a.Done != 400 || b.Done != 500 {
		t.Errorf("overlapped walks done at %d/%d, want 400/500", a.Done, b.Done)
	}
	// The third walk queues until a's release at 400 and walks [400, 800].
	if c.Done != 800 {
		t.Errorf("third walk done at %d, want 800", c.Done)
	}
	s := w.Stats()
	if s.OverlappedWalks.Value() != 2 || s.MaxInFlight != 2 {
		t.Errorf("overlapped=%d max=%d, want 2/2", s.OverlappedWalks.Value(), s.MaxInFlight)
	}
	// Histogram: a started solo; b overlapped a; c started while b was
	// still in flight.
	if len(s.InFlightHist) != 3 || s.InFlightHist[1] != 1 || s.InFlightHist[2] != 2 {
		t.Errorf("InFlightHist = %v, want [_ 1 2]", s.InFlightHist)
	}
}

// TestWalkAndWalkAsyncRecordEqualStats: both paths start every walk
// through one routine, so on a serial schedule — each request at or
// after the previous walk's end, the only one Walk accepts — Walk and
// WalkAsync on twin rigs must record the same Stats field for field.
// Schedules whose walks overlap or queue run on WalkAsync alone, against
// hand-computed counts.
func TestWalkAndWalkAsyncRecordEqualStats(t *testing.T) {
	for _, tc := range []struct {
		name  string
		width int
		pwc   bool
		// reqs are (time, page offset) pairs in nondecreasing time order,
		// one core each.
		reqs [][2]uint64
		// serial schedules also run through Walk.
		serial bool
		check  func(t *testing.T, s *walker.Stats)
	}{
		{
			name:   "serial",
			width:  1,
			pwc:    true,
			serial: true,
			reqs:   [][2]uint64{{0, 0}, {500, 1}, {1000, 0}, {2000, 2}},
			check: func(t *testing.T, s *walker.Stats) {
				// A cold walk (1-cycle PWC probe + 4 accesses) ends at 401;
				// the other three hit the PL2 entry it filled and read only
				// the leaf. Nothing overlaps or queues.
				if s.PTEAccesses.Value() != 4+3 || s.WalkCycles.Value() != 401+3*101 || s.MaxWalkCycles != 401 {
					t.Errorf("pte=%d cycles=%d max=%d, want 7/704/401",
						s.PTEAccesses.Value(), s.WalkCycles.Value(), s.MaxWalkCycles)
				}
				if s.QueuedWalks != 0 || s.OverlappedWalks != 0 || s.MSHRHits != 0 || s.MaxInFlight != 1 {
					t.Errorf("queued=%d overlapped=%d mshr=%d max=%d, want 0/0/0/1",
						s.QueuedWalks.Value(), s.OverlappedWalks.Value(), s.MSHRHits.Value(), s.MaxInFlight)
				}
			},
		},
		{
			name:  "width1-queued",
			width: 1,
			reqs:  [][2]uint64{{0, 0}, {100, 1}},
			check: func(t *testing.T, s *walker.Stats) {
				// The second walk waits [100, 400) for the slot, then walks
				// [400, 800].
				if s.QueuedWalks.Value() != 1 || s.QueueCycles.Value() != 300 || s.MaxWalkCycles != 700 {
					t.Errorf("queued=%d cycles=%d max=%d, want 1/300/700",
						s.QueuedWalks.Value(), s.QueueCycles.Value(), s.MaxWalkCycles)
				}
			},
		},
		{
			name:  "width2-overlap",
			width: 2,
			pwc:   true,
			reqs:  [][2]uint64{{0, 0}, {100, 1}, {150, 2}},
			check: func(t *testing.T, s *walker.Stats) {
				// The second walk overlaps the first; the third queues for
				// the first's slot and overlaps the second.
				if s.OverlappedWalks.Value() != 2 || s.MaxInFlight != 2 || s.QueuedWalks.Value() != 1 {
					t.Errorf("overlapped=%d max=%d queued=%d, want 2/2/1",
						s.OverlappedWalks.Value(), s.MaxInFlight, s.QueuedWalks.Value())
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := func() walker.Config {
				c := walker.Config{Width: tc.width}
				if tc.pwc {
					c.Cache = pwc.New(pwc.Default())
				}
				return c
			}
			evented, base := radixRig(t, cfg())
			eng := engine.New()
			wi := newIssuer(eng, evented)
			outs := make([]asyncResp, len(tc.reqs))
			for i, r := range tc.reqs {
				wi.walkAt(r[0], i, base+addr.V(r[1]*addr.PageSize), &outs[i])
			}
			eng.Run()
			for i := range outs {
				if !outs[i].done || !outs[i].Found {
					t.Fatalf("async walk %d did not complete with a mapping", i)
				}
			}
			as := evented.Stats()
			if as.Walks.Value() != uint64(len(tc.reqs)) {
				t.Errorf("walks = %d, want %d", as.Walks.Value(), len(tc.reqs))
			}
			tc.check(t, as)
			if !tc.serial {
				return
			}
			serial, _ := radixRig(t, cfg())
			for i, r := range tc.reqs {
				resp := serial.Walk(walker.Request{Core: i, V: base + addr.V(r[1]*addr.PageSize), Time: r[0]})
				if resp != outs[i].Response {
					t.Errorf("request %d: Walk %+v, WalkAsync %+v", i, resp, outs[i].Response)
				}
			}
			if ss := serial.Stats(); !reflect.DeepEqual(ss, as) {
				t.Errorf("Walk stats %+v\nWalkAsync stats %+v", *ss, *as)
			}
		})
	}
}

// TestAsyncDequeuedWalkWaitsForItsRequestTime: requests are stamped
// after the TLB lookups (req.Time > arrival event time), so a slot that
// frees in that gap must not start the walk early — and the latency
// accounting must never wrap (the walk could otherwise "complete"
// before its own request).
func TestAsyncDequeuedWalkWaitsForItsRequestTime(t *testing.T) {
	w, base := radixRig(t, walker.Config{Width: 1})
	eng := engine.New()
	wi := newIssuer(eng, w)
	var a, b asyncResp
	wi.walkAt(0, 0, base, &a) // [0, 400]
	// Arrives (event) at 397 but carries a post-TLB timestamp of 410:
	// the slot frees at 400, before the request time.
	b.eng = eng
	wi.at(397, 1, func() {
		w.WalkAsync(eng, walker.Request{Core: 1, V: base + addr.PageSize, Time: 410}, &b)
	})
	eng.Run()
	if !b.done {
		t.Fatal("parked walk never completed")
	}
	if b.Done != 410+400 {
		t.Errorf("walk done at %d, want 810 (started at its request time, not the release)", b.Done)
	}
	s := w.Stats()
	if s.QueuedWalks.Value() != 0 {
		t.Errorf("queued = %d, want 0 (slot freed before the request time)", s.QueuedWalks.Value())
	}
	if s.MaxWalkCycles > 1000 {
		t.Errorf("MaxWalkCycles = %d — latency accounting wrapped", s.MaxWalkCycles)
	}
}

// TestAsyncPendingDuplicateCoalesces: a duplicate of a walk still
// waiting for a slot coalesces at request arrival (MSHRs allocate on
// arrival, not on slot grant) instead of performing a redundant walk.
func TestAsyncPendingDuplicateCoalesces(t *testing.T) {
	w, base := radixRig(t, walker.Config{Width: 1})
	eng := engine.New()
	wi := newIssuer(eng, w)
	var a, b, c asyncResp
	wi.walkAt(0, 0, base, &a)                   // [0, 400]
	wi.walkAt(50, 1, base+addr.PageSize, &b)    // parked
	wi.walkAt(60, 2, base+addr.PageSize+64, &c) // duplicate of parked b
	eng.Run()
	if c.Done != b.Done || c.Entry != b.Entry {
		t.Errorf("coalesced completion (%d, %+v) differs from walk (%d, %+v)",
			c.Done, c.Entry, b.Done, b.Entry)
	}
	s := w.Stats()
	if s.Walks.Value() != 2 || s.MSHRHits.Value() != 1 {
		t.Errorf("walks=%d mshr=%d, want 2/1", s.Walks.Value(), s.MSHRHits.Value())
	}
}

func TestAsyncFIFONoQueueJumping(t *testing.T) {
	// Width 1; two walks parked; a third arriving exactly when the slot
	// frees must line up behind them.
	w, base := radixRig(t, walker.Config{Width: 1})
	eng := engine.New()
	wi := newIssuer(eng, w)
	var a, b, c, d asyncResp
	wi.walkAt(0, 0, base, &a)                  // [0, 400]
	wi.walkAt(10, 1, base+addr.PageSize, &b)   // parked
	wi.walkAt(20, 2, base+2*addr.PageSize, &c) // parked
	// Arrives at the release instant; actor id 3 orders it after the
	// release event's work at t=400.
	wi.walkAt(400, 3, base+3*addr.PageSize, &d)
	eng.Run()
	if b.Done != 800 || c.Done != 1200 || d.Done != 1600 {
		t.Errorf("FIFO order violated: b=%d c=%d d=%d, want 800/1200/1600", b.Done, c.Done, d.Done)
	}
}

// TestAsyncSteadyStateDoesNotAllocate pins the pooled walk records:
// after warmup, a stream of misses, coalesces, and queued walks
// performs no heap allocation inside the walker.
func TestAsyncSteadyStateDoesNotAllocate(t *testing.T) {
	w, base := radixRig(t, walker.Config{Width: 2})
	eng := engine.New()
	out := make([]asyncResp, 8)
	var start uint64
	round := func() {
		for i := range out {
			out[i] = asyncResp{eng: eng}
			v := base + addr.V(i/2)*addr.PageSize // pairs share a page: coalesce
			req := walker.Request{Core: i % 4, V: v, Time: start + uint64(10*i)}
			w.WalkAsync(eng, req, &out[i])
		}
		eng.Run()
		start = eng.Now() + 1
	}
	round() // warm the pools
	allocs := testing.AllocsPerRun(50, round)
	if allocs > 0 {
		t.Errorf("steady-state WalkAsync allocated %.1f times per round, want 0", allocs)
	}
}

// walkCore is BenchmarkWalkAsync's issuing core: each event issues one
// walk at the current time, and the walk's completion schedules the
// core's next issue 50 cycles later, until the shared budget is spent.
type walkCore struct {
	eng    *engine.Engine
	w      *walker.Walker
	id     int
	pages  []addr.V
	budget *int
}

func (c *walkCore) OnEvent(now uint64, kind uint8, payload uint64) {
	if *c.budget <= 0 {
		return
	}
	*c.budget--
	v := c.pages[*c.budget&(len(c.pages)-1)]
	c.w.WalkAsync(c.eng, walker.Request{Core: c.id, V: v, Time: now}, c)
}

func (c *walkCore) OnWalkDone(resp walker.Response) {
	c.eng.Schedule(resp.Done+50, c.id, c, 0, 0)
}

// BenchmarkWalkAsync is BenchmarkWalk on the event schedule: one walk
// per op over the same populated 64 MB radix table with a PWC. The
// private case is one core on a width-1 walker; the shared case is
// four cores on one width-2 walker, whose walks overlap, queue and
// coalesce in the MSHRs.
func BenchmarkWalkAsync(b *testing.B) {
	for _, bc := range []struct {
		name         string
		cores, width int
	}{{"private-w1", 1, 1}, {"shared-w2", 4, 2}} {
		b.Run(bc.name, func(b *testing.B) {
			w, base := radixRig(b, walker.Config{Width: bc.width, Cache: pwc.New(pwc.Default())})
			rng := xrand.New(5)
			pages := make([]addr.V, 1<<12)
			for i := range pages {
				pages[i] = base + addr.V(rng.Uint64n(64<<20/addr.PageSize)*addr.PageSize)
			}
			eng := engine.New()
			budget := b.N
			cores := make([]walkCore, bc.cores)
			b.ReportAllocs()
			b.ResetTimer()
			for i := range cores {
				cores[i] = walkCore{eng: eng, w: w, id: i, pages: pages, budget: &budget}
				eng.Schedule(0, i, &cores[i], 0, 0)
			}
			eng.Run()
		})
	}
}
