package engine

import (
	"sort"
	"testing"
)

// recorder is a test actor that logs every delivered event and can run
// a per-kind hook to schedule follow-on events.
type recorder struct {
	got  []delivered
	hook func(now uint64, kind uint8, payload uint64)
}

type delivered struct {
	now     uint64
	kind    uint8
	payload uint64
}

func (r *recorder) OnEvent(now uint64, kind uint8, payload uint64) {
	r.got = append(r.got, delivered{now, kind, payload})
	if r.hook != nil {
		r.hook(now, kind, payload)
	}
}

func TestDispatchOrderByTimeActorSeq(t *testing.T) {
	e := New()
	r := &recorder{}

	// Shuffled inserts covering every tie-break tier; the payload is the
	// expected dispatch position:
	//   time 10 actor 2 (first scheduled at that slot) -> 3
	//   time 10 actor 2 (second scheduled)             -> 4
	//   time 10 actor 0                                -> 2
	//   time  5 actor 7                                -> 1
	//   time  0 actor 9                                -> 0
	//   time 20 actor 1                                -> 5
	e.Schedule(10, 2, r, 0, 3)
	e.Schedule(20, 1, r, 0, 5)
	e.Schedule(0, 9, r, 0, 0)
	e.Schedule(10, 2, r, 0, 4)
	e.Schedule(5, 7, r, 0, 1)
	e.Schedule(10, 0, r, 0, 2)

	e.Run()
	if len(r.got) != 6 {
		t.Fatalf("dispatched %d events, want 6", len(r.got))
	}
	for i, d := range r.got {
		if d.payload != uint64(i) {
			t.Fatalf("dispatch %d delivered payload %d (order wrong)", i, d.payload)
		}
	}
	if e.Now() != 20 {
		t.Errorf("Now = %d, want 20", e.Now())
	}
	if e.Dispatched() != 6 {
		t.Errorf("Dispatched = %d, want 6", e.Dispatched())
	}
}

func TestKindAndPayloadDeliveredVerbatim(t *testing.T) {
	e := New()
	r := &recorder{}
	e.Schedule(7, 0, r, 42, 0xDEADBEEF)
	e.Run()
	if len(r.got) != 1 {
		t.Fatalf("dispatched %d events, want 1", len(r.got))
	}
	d := r.got[0]
	if d.now != 7 || d.kind != 42 || d.payload != 0xDEADBEEF {
		t.Errorf("delivered (now=%d kind=%d payload=%#x), want (7, 42, 0xDEADBEEF)",
			d.now, d.kind, d.payload)
	}
}

func TestEventsScheduledDuringRunAreDispatched(t *testing.T) {
	e := New()
	r := &recorder{}
	r.hook = func(now uint64, kind uint8, payload uint64) {
		if kind == 1 {
			e.Schedule(3, 0, r, 0, 0)
		}
	}
	e.Schedule(1, 0, r, 1, 0)
	e.Schedule(2, 0, r, 0, 0)
	e.Run()
	if len(r.got) != 3 || r.got[0].now != 1 || r.got[1].now != 2 || r.got[2].now != 3 {
		t.Errorf("trace = %v, want events at times 1, 2, 3", r.got)
	}
}

func TestSameTimeRescheduleRunsAfterOtherActors(t *testing.T) {
	// An actor rescheduling at the current time yields to other actors'
	// events at that time with lower ids (seq breaks the final tie).
	// Payload tags: 1 = b1, 2 = a, 3 = b2.
	e := New()
	r := &recorder{}
	r.hook = func(now uint64, kind uint8, payload uint64) {
		if payload == 1 {
			e.Schedule(5, 0, r, 0, 2)
			e.Schedule(5, 1, r, 0, 3)
		}
	}
	e.Schedule(5, 1, r, 0, 1)
	e.Run()
	if len(r.got) != 3 || r.got[0].payload != 1 || r.got[1].payload != 2 || r.got[2].payload != 3 {
		t.Errorf("order = %v, want payloads [1 2 3]", r.got)
	}
}

func TestSchedulingIntoThePastPanics(t *testing.T) {
	e := New()
	r := &recorder{}
	e.Schedule(10, 0, r, 0, 0)
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling before Now did not panic")
		}
	}()
	e.Schedule(9, 0, r, 0, 0)
}

func TestRewindBetweenPhases(t *testing.T) {
	e := New()
	r := &recorder{}
	e.Schedule(100, 0, r, 0, 0)
	e.Run()
	e.Rewind()
	if e.Now() != 0 {
		t.Errorf("Now after Rewind = %d, want 0", e.Now())
	}
	e.Schedule(5, 0, r, 0, 1) // before the old horizon
	e.Run()
	if len(r.got) != 2 || r.got[1].now != 5 {
		t.Error("post-Rewind event did not fire")
	}
}

// TestRewindWithPendingTypedEventsPanics pins the typed-event queue's
// phase-boundary invariant: Rewind with any typed event still pending
// would reorder it against the next phase's re-seeded events and must
// panic.
func TestRewindWithPendingTypedEventsPanics(t *testing.T) {
	e := New()
	r := &recorder{}
	e.Schedule(10, 3, r, 7, 99)
	defer func() {
		if recover() == nil {
			t.Error("Rewind with pending typed events did not panic")
		}
	}()
	e.Rewind()
}

func TestStepAndLen(t *testing.T) {
	e := New()
	r := &recorder{}
	if e.Step() {
		t.Error("Step on empty engine reported work")
	}
	e.Schedule(1, 0, r, 0, 0)
	e.Schedule(2, 0, r, 0, 0)
	if e.Len() != 2 {
		t.Errorf("Len = %d, want 2", e.Len())
	}
	if !e.Step() || e.Len() != 1 {
		t.Errorf("after one Step: Len = %d, want 1", e.Len())
	}
	e.Run()
	if e.Len() != 0 {
		t.Errorf("after Run: Len = %d, want 0", e.Len())
	}
}

// TestTypedDispatchOrderProperty is a randomized property test: any
// batch of typed events, scheduled in any order, dispatches exactly in
// the documented (time, actor, seq) order. The expected order is
// computed independently with a stable sort over the schedule log.
func TestTypedDispatchOrderProperty(t *testing.T) {
	state := uint64(0x243F6A8885A308D3) // deterministic xorshift seed
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}

	type scheduled struct {
		time  uint64
		actor int
		seq   int // scheduling order
	}

	for round := 0; round < 50; round++ {
		e := New()
		r := &recorder{}
		n := int(next()%200) + 1
		log := make([]scheduled, n)
		for i := 0; i < n; i++ {
			// Small ranges force heavy time and actor collisions so all
			// three tie-break tiers are exercised.
			log[i] = scheduled{time: next() % 16, actor: int(next() % 4), seq: i}
			// The payload carries the schedule-log index so dispatches
			// can be matched back to their insertion.
			e.Schedule(log[i].time, log[i].actor, r, 0, uint64(i))
		}

		want := make([]scheduled, n)
		copy(want, log)
		sort.SliceStable(want, func(a, b int) bool {
			if want[a].time != want[b].time {
				return want[a].time < want[b].time
			}
			if want[a].actor != want[b].actor {
				return want[a].actor < want[b].actor
			}
			return want[a].seq < want[b].seq
		})

		e.Run()
		if len(r.got) != n {
			t.Fatalf("round %d: dispatched %d of %d events", round, len(r.got), n)
		}
		for i, d := range r.got {
			if int(d.payload) != want[i].seq {
				t.Fatalf("round %d: dispatch %d was schedule #%d, want #%d (time=%d actor=%d)",
					round, i, d.payload, want[i].seq, want[i].time, want[i].actor)
			}
			if d.now != want[i].time {
				t.Fatalf("round %d: dispatch %d at time %d, want %d", round, i, d.now, want[i].time)
			}
		}
		r.got = r.got[:0]
	}
}

// TestHeapOrderLargeShuffle drives the heap through a large
// pseudo-random insert/dispatch mix and checks times never regress.
type shuffler struct {
	t          *testing.T
	e          *Engine
	next       func() uint64
	last       uint64
	dispatched int
}

func (s *shuffler) OnEvent(now uint64, kind uint8, payload uint64) {
	if now < s.last {
		s.t.Fatalf("time regressed: %d after %d", now, s.last)
	}
	s.last = now
	s.dispatched++
	if s.dispatched < 5000 {
		s.schedule(2)
	}
}

func (s *shuffler) schedule(count int) {
	for i := 0; i < count; i++ {
		at := s.e.Now() + s.next()%1000
		s.e.Schedule(at, int(s.next()%16), s, 0, 0)
	}
}

func TestHeapOrderLargeShuffle(t *testing.T) {
	state := uint64(0x9E3779B97F4A7C15)
	s := &shuffler{t: t, e: New(), next: func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}}
	s.schedule(2)
	s.e.Run()
	if s.dispatched < 5000 {
		t.Errorf("dispatched %d events, want >= 5000", s.dispatched)
	}
}

// TestScheduleDoesNotAllocate pins the zero-allocation property of the
// hot path: scheduling and dispatching typed events performs no heap
// allocation once the event heap has reached its high-water capacity.
func TestScheduleDoesNotAllocate(t *testing.T) {
	e := New()
	r := &recorder{}
	r.got = make([]delivered, 0, 4096)
	// The measured pattern: 32 consecutive ticks, which puts 8 events
	// in each of four 8-cycle buckets, above the seed capacity.
	pattern := func() {
		base := e.Now()
		for i := 0; i < 32; i++ {
			e.Schedule(base+uint64(i), i, r, 0, uint64(i))
		}
		e.Run()
		r.got = r.got[:0]
	}
	// Reach steady-state capacity first: run the pattern until the base
	// has swept the wheel several times, so every bucket has grown to
	// hold it.
	for round := 0; round < 3*nBuckets; round++ {
		pattern()
	}

	allocs := testing.AllocsPerRun(100, pattern)
	if allocs != 0 {
		t.Errorf("schedule+dispatch allocated %.1f times per run, want 0", allocs)
	}
}
