package engine

import "testing"

// The differential property tests pin the calendar queue to the binary
// heap it replaced (heapQueue, heap_test.go): any randomized
// schedule/dispatch sequence must produce an identical dispatch order
// through both queues. The heap is the oracle — it is the
// implementation whose order the pinned goldens were recorded under.

// queue is the scheduling surface Engine and heapQueue share.
type queue interface {
	Schedule(t uint64, actor int, target Actor, kind uint8, payload uint64)
	Run()
	Rewind()
}

// xorshift is the tests' deterministic PRNG.
type xorshift uint64

func (s *xorshift) next() uint64 {
	x := uint64(*s)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = xorshift(x)
	return x
}

// diffRecorder logs dispatches and, via react, schedules follow-on
// events. Both engines run the same deterministic reaction policy, so
// as long as the dispatch orders match, the generated schedules match
// step for step — any divergence is caught at the first differing
// dispatch.
type diffRecorder struct {
	e     queue
	rng   xorshift
	got   []delivered
	react bool
}

func (r *diffRecorder) OnEvent(now uint64, kind uint8, payload uint64) {
	r.got = append(r.got, delivered{now, kind, payload})
	if !r.react {
		return
	}
	// A third of dispatches schedule one or two follow-on events, at
	// deltas that heavily collide on the current time (exercising
	// same-tick inserts during dispatch) and occasionally jump far
	// ahead (exercising the overflow list and rebase).
	switch r.rng.next() % 3 {
	case 0:
		n := 1 + int(r.rng.next()%2)
		for i := 0; i < n; i++ {
			var delta uint64
			switch r.rng.next() % 4 {
			case 0:
				delta = 0 // same tick as the event being dispatched
			case 1:
				delta = r.rng.next() % 8
			case 2:
				delta = r.rng.next() % 512
			case 3:
				delta = r.rng.next() % 100_000 // far beyond the window
			}
			r.e.Schedule(now+delta, int(r.rng.next()%8), r, uint8(r.rng.next()), r.rng.next())
		}
	}
}

// runDiffScenario drives one engine through a deterministic randomized
// scenario: 1-300 initial events, then Run with reactive scheduling.
func runDiffScenario(e queue, seed uint64, react bool) []delivered {
	rng := xorshift(seed * 0x9E3779B97F4A7C15)
	return runDiffEvents(e, seed, &rng, int(rng.next()%300)+1, react)
}

// runDiffEvents schedules n initial events drawn from rng, then Runs e
// with a recorder whose reactions draw from seed.
func runDiffEvents(e queue, seed uint64, rng *xorshift, n int, react bool) []delivered {
	r := &diffRecorder{e: e, rng: xorshift(seed), react: react}
	for i := 0; i < n; i++ {
		// Small time/actor ranges force heavy same-(time, actor)
		// collisions so every tie-break tier is exercised.
		e.Schedule(rng.next()%64, int(rng.next()%6), r, uint8(rng.next()), rng.next())
	}
	e.Run()
	return r.got
}

// TestDifferentialCalendarVsHeap runs randomized schedule/dispatch
// sequences — with and without reactive scheduling during dispatch —
// through the calendar queue and the heap oracle and requires
// byte-identical dispatch sequences.
func TestDifferentialCalendarVsHeap(t *testing.T) {
	for _, react := range []bool{false, true} {
		for round := 0; round < 40; round++ {
			seed := uint64(round)*0x5DEECE66D + 11
			cal := runDiffScenario(New(), seed, react)
			hp := runDiffScenario(&heapQueue{}, seed, react)
			if len(cal) != len(hp) {
				t.Fatalf("react=%v round %d: calendar dispatched %d events, heap %d",
					react, round, len(cal), len(hp))
			}
			for i := range cal {
				if cal[i] != hp[i] {
					t.Fatalf("react=%v round %d: dispatch %d diverged: calendar %+v, heap %+v",
						react, round, i, cal[i], hp[i])
				}
			}
		}
	}
}

// TestDifferentialMultiPhase pins the queues to each other across
// Rewind boundaries: drain, rewind, re-seed below the previous horizon
// — the simulator's warmup/measurement phase structure.
func TestDifferentialMultiPhase(t *testing.T) {
	run := func(e queue) []delivered {
		var all []delivered
		rng := xorshift(0xABCDEF12345)
		for phase := 0; phase < 5; phase++ {
			r := &diffRecorder{e: e, rng: xorshift(uint64(phase) + 7), react: true}
			for i := 0; i < 40; i++ {
				e.Schedule(rng.next()%32, int(rng.next()%4), r, uint8(rng.next()), rng.next())
			}
			e.Run()
			all = append(all, r.got...)
			e.Rewind()
		}
		return all
	}
	cal := run(New())
	hp := run(&heapQueue{})
	if len(cal) != len(hp) {
		t.Fatalf("calendar dispatched %d events, heap %d", len(cal), len(hp))
	}
	for i := range cal {
		if cal[i] != hp[i] {
			t.Fatalf("dispatch %d diverged: calendar %+v, heap %+v", i, cal[i], hp[i])
		}
	}
}

// TestDifferentialFullPendingSet pins the queues to each other at the
// largest pending set the simulator's Validate accepts: 64 cores × MLP
// 64 = 4,096 initial events, half inside the first 64 cycles (eight
// 8-cycle buckets of ~256 events each) and half spread over 100k cycles
// (a far list of ~2,000 that every rebase rescans), then Run with
// reactive scheduling.
func TestDifferentialFullPendingSet(t *testing.T) {
	const cores, mlp = 64, 64
	for round := uint64(1); round <= 3; round++ {
		run := func(q queue) []delivered {
			rng := xorshift(round * 0x9E3779B97F4A7C15)
			r := &diffRecorder{e: q, rng: xorshift(round), react: true}
			for i := 0; i < cores*mlp; i++ {
				at := rng.next() % 64
				if i%2 == 1 {
					at = rng.next() % 100_000
				}
				q.Schedule(at, i%cores, r, uint8(rng.next()), rng.next())
			}
			q.Run()
			return r.got
		}
		cal, hp := run(New()), run(&heapQueue{})
		if len(cal) != len(hp) {
			t.Fatalf("round %d: calendar dispatched %d events, heap %d", round, len(cal), len(hp))
		}
		for i := range cal {
			if cal[i] != hp[i] {
				t.Fatalf("round %d: dispatch %d diverged: calendar %+v, heap %+v", round, i, cal[i], hp[i])
			}
		}
	}
}

// FuzzEngineVsHeap runs fuzzed multi-phase scenarios through the
// calendar queue and the heap oracle: each phase seeds a fuzzed number
// of events, runs them with reactive scheduling, and Rewinds. The two
// dispatch sequences must be identical.
func FuzzEngineVsHeap(f *testing.F) {
	f.Add(uint64(11), uint16(300), uint8(1))
	f.Add(uint64(0x5DEECE66D), uint16(1), uint8(3))
	f.Add(uint64(7), uint16(1000), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, events uint16, phases uint8) {
		if seed == 0 {
			t.Skip("xorshift is stuck at zero: every reaction would reschedule forever")
		}
		n := int(events%1024) + 1
		run := func(q queue) []delivered {
			var all []delivered
			phaseSeeds := xorshift(seed) // never yields zero from a nonzero state
			for p := 0; p <= int(phases%4); p++ {
				s := phaseSeeds.next()
				rng := xorshift(s * 0x9E3779B97F4A7C15)
				all = append(all, runDiffEvents(q, s, &rng, n, true)...)
				q.Rewind()
			}
			return all
		}
		cal, hp := run(New()), run(&heapQueue{})
		if len(cal) != len(hp) {
			t.Fatalf("calendar dispatched %d events, heap %d", len(cal), len(hp))
		}
		for i := range cal {
			if cal[i] != hp[i] {
				t.Fatalf("dispatch %d diverged: calendar %+v, heap %+v", i, cal[i], hp[i])
			}
		}
	})
}
