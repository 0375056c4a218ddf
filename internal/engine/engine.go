// Package engine is the simulator's event-scheduled execution core: a
// deterministic discrete-event queue that replaces the per-step
// min-clock scan over all cores. Actors (cores, walkers) implement the
// Actor interface once; events are typed — a (kind, payload) pair
// delivered to a target actor at an absolute time — and are stored
// inline as value structs, so scheduling an event performs no heap
// allocation. Dispatch follows the strict (time, actor, seq) order, so
// ties between actors resolve by actor id (matching the old scan's
// lowest-index-first choice) and ties within an actor resolve by
// scheduling order.
//
// The queue is a hierarchical calendar queue (a bucketed timing wheel
// with an overflow far list), the classic discrete-event-simulation
// structure for schedules whose event-time deltas are small and
// regular — exactly the simulator's regime, where deltas are cache,
// DRAM, and mesh latencies of tens to hundreds of cycles:
//
//   - nBuckets buckets of one fixed width, 2^bucketShift = 8 cycles,
//     cover the sliding window [base, base + nBuckets<<bucketShift).
//     Scheduling is O(1): index the bucket, append, set an occupancy
//     bit.
//   - Events beyond the window land in an unsorted far list. When the
//     wheel drains, the window rebases onto the earliest far event and
//     the far list redistributes — the far list is bounded by the
//     pending-event count (O(cores × MLP)), so the occasional scan is
//     cheap. Fault-sized deltas (thousands to hundreds of thousands of
//     cycles) take this path.
//   - The width is fixed. It decides how many events a dispatch scans,
//     never the dispatch order (see the next bullet), so a crowded
//     bucket costs a longer scan, not a wrong one.
//   - Dispatch scans the earliest non-empty bucket for its (time,
//     actor, seq) minimum and swap-removes it. Buckets are unordered,
//     so the scan is the whole ordering rule, and an event scheduled
//     at the current tick is just another bucket entry.
//
// The binary min-heap the wheel replaced lives on in the package's
// tests (heap_test.go) as the oracle for differential tests: randomized
// schedules must dispatch identically through both queues.
//
// The engine is single-threaded and allocation-free on the hot path:
// events are value structs in reused bucket slices, no closures, no
// goroutines, no channels. A simulation owns exactly one engine;
// separate simulations (the sweep Runner fans runs out across
// goroutines) own separate engines and share nothing.
package engine

import (
	"fmt"
	"math/bits"
)

// Actor receives dispatched events. Cores and walkers implement it once
// and interpret (kind, payload) themselves: kind namespaces are private
// to each actor type, and payload carries whatever one word of context
// the event needs (a slot index, a completion time — or nothing).
type Actor interface {
	OnEvent(now uint64, kind uint8, payload uint64)
}

// event is one scheduled typed event, stored inline in a bucket.
type event struct {
	time    uint64
	seq     uint64
	payload uint64
	target  Actor
	actor   int32
	kind    uint8
}

const (
	// nBuckets is the wheel size. 256 buckets of 8 cycles span 2,048
	// cycles, several cache, DRAM and mesh latencies, so rebases are
	// rare relative to dispatches.
	nBuckets = 256
	occWords = nBuckets / 64
	// bucketShift is the log2 bucket width: 8-cycle buckets hold about
	// one event each at the simulator's cache and DRAM latency deltas.
	bucketShift = 3
)

// Engine is a deterministic discrete-event scheduler. Not safe for
// concurrent use; one simulation drives one engine from one goroutine.
type Engine struct {
	// Calendar wheel: buckets[i] holds events with time in
	// [base + i<<bucketShift, base + (i+1)<<bucketShift), unordered;
	// occ is the non-empty-bucket bitmap; wheelN counts wheel-resident
	// events.
	buckets [nBuckets][]event
	occ     [occWords]uint64
	wheelN  int
	base    uint64
	// far holds events at or beyond the window's horizon, unordered.
	far []event

	seq uint64
	now uint64
	// dispatched counts events executed over the engine's lifetime.
	dispatched uint64
}

// bucketSeedCap is the per-bucket capacity carved from the construction
// arena; buckets that outgrow it fall back to ordinary append growth
// (and keep the grown capacity for the engine's lifetime).
const bucketSeedCap = 4

// New returns an empty engine at time zero. Every bucket's initial
// backing storage is carved from one arena allocation, so the wheel
// reaches its steady no-allocation state without 256 first-touch
// growths.
func New() *Engine {
	e := &Engine{}
	arena := make([]event, nBuckets*bucketSeedCap)
	for i := range e.buckets {
		e.buckets[i] = arena[i*bucketSeedCap : i*bucketSeedCap : (i+1)*bucketSeedCap]
	}
	return e
}

// Now returns the time of the most recently dispatched event. Time never
// moves backwards.
func (e *Engine) Now() uint64 { return e.now }

// Len returns the number of pending events.
func (e *Engine) Len() int { return e.wheelN + len(e.far) }

// Dispatched returns the number of events executed so far.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// Rewind moves the clock back to zero between event horizons: the
// simulator's warmup and measurement phases each drain the queue, and
// the next phase re-seeds it from per-actor clocks that may lie before
// the previous phase's final event. Rewinding resets the calendar
// queue's window too: the bucket base returns to zero alongside the
// clock. Rewinding with events still pending would reorder them and
// panics.
func (e *Engine) Rewind() {
	if e.Len() != 0 {
		panic("engine: Rewind with pending events")
	}
	e.now = 0
	e.base = 0
}

// Schedule enqueues a (kind, payload) event for target at absolute time
// t, ordered on behalf of actor. The actor id is purely an ordering
// key: a walker schedules its release events under the requesting
// core's id so that ties at equal times resolve exactly as they did
// when the core itself did the work. Events fire in (time, actor, seq)
// order; seq is the global scheduling order, so two events at the same
// (time, actor) fire in the order they were scheduled. Scheduling into
// the past is a model bug and panics.
func (e *Engine) Schedule(t uint64, actor int, target Actor, kind uint8, payload uint64) {
	if t < e.now {
		panic(fmt.Sprintf("engine: event scheduled at %d, before current time %d", t, e.now))
	}
	ev := event{time: t, seq: e.seq, payload: payload, target: target, actor: int32(actor), kind: kind}
	e.seq++
	e.enqueue(ev)
}

// enqueue places ev in its wheel bucket, or in the far list when it
// lies beyond the window's horizon. Callers guarantee ev.time >= base.
func (e *Engine) enqueue(ev event) {
	if d := (ev.time - e.base) >> bucketShift; d < nBuckets {
		b := int(d)
		e.buckets[b] = append(e.buckets[b], ev)
		e.occ[b>>6] |= 1 << (uint(b) & 63)
		e.wheelN++
		return
	}
	e.far = append(e.far, ev)
}

// Step dispatches the earliest pending event. It returns false when the
// queue is empty.
func (e *Engine) Step() bool {
	// The call to next must stay 14 lines below Step's func line.
	// Profile-guided optimization finds a hot call site by its caller,
	// its callee and its line offset inside the caller, and the
	// committed profile (cmd/ndpsim/default.pgo) recorded this call at
	// offset 14, from an older Step with a second dispatch path above
	// it. At that offset the profile marks the call hot, next (too
	// large for the default budget) inlines into Step, and Step inlines
	// into Run; at any other offset next stays an out-of-line call, and
	// the ndpage-bfs benchmark measured slower for it. Regenerating
	// default.pgo from this code lifts the constraint: then close up
	// this comment. Check the inline decisions with
	//   go build -pgo=cmd/ndpsim/default.pgo \
	//     -gcflags='ndpage/internal/engine=-m -d=pgodebug=1' ./cmd/ndpsim
	ev, ok := e.next()
	if !ok {
		return false
	}
	e.dispatched++
	ev.target.OnEvent(ev.time, ev.kind, ev.payload)
	return true
}

// Run dispatches events in order until none remain. Events scheduled
// during dispatch are folded into the same run.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// next removes and returns the earliest pending event in (time, actor,
// seq) order and advances the clock to its time, rebasing the window
// from the far list when the wheel is empty. The second result is
// false when no events remain anywhere.
func (e *Engine) next() (event, bool) {
	if e.wheelN == 0 {
		if len(e.far) == 0 {
			return event{}, false
		}
		e.rebase()
	}
	b := e.nextBucket()
	bkt := e.buckets[b]
	// The earliest bucket holds the earliest event; bucket order is
	// arbitrary, so scan it for the (time, actor, seq) minimum and
	// swap-remove that.
	m := 0
	for i := 1; i < len(bkt); i++ {
		a, best := &bkt[i], &bkt[m]
		if a.time < best.time || a.time == best.time && (a.actor < best.actor || a.actor == best.actor && a.seq < best.seq) {
			m = i
		}
	}
	ev := bkt[m]
	last := len(bkt) - 1
	bkt[m] = bkt[last]
	bkt[last] = event{} // drop the vacated slot's Actor reference
	e.buckets[b] = bkt[:last]
	e.wheelN--
	if last == 0 {
		e.occ[b>>6] &^= 1 << (uint(b) & 63)
	}
	e.now = ev.time
	return ev, true
}

// nextBucket returns the lowest non-empty bucket index at or after the
// current time's bucket. Buckets below the current time are empty by
// construction (events cannot be scheduled into the past, and dispatch
// always drains the earliest bucket first).
func (e *Engine) nextBucket() int {
	cur := 0
	if e.now > e.base {
		if d := (e.now - e.base) >> bucketShift; d < nBuckets {
			cur = int(d)
		} else {
			cur = nBuckets - 1
		}
	}
	i := cur >> 6
	w := e.occ[i] & (^uint64(0) << (uint(cur) & 63))
	for {
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
		i++
		if i >= occWords {
			panic("engine: occupancy bitmap inconsistent with wheel population")
		}
		w = e.occ[i]
	}
}

// rebase slides the window onto the earliest far event and re-enqueues
// the far list: base moves to the far minimum, so at least one event
// lands in the wheel, and events still beyond the horizon stay far.
func (e *Engine) rebase() {
	far := e.far
	minT := far[0].time
	for i := 1; i < len(far); i++ {
		minT = min(minT, far[i].time)
	}
	e.base = minT
	// Survivors are appended in place: the write index never passes the
	// read index, and the capacity is already there.
	e.far = far[:0]
	for _, ev := range far {
		e.enqueue(ev)
	}
	clear(far[len(e.far):]) // drop the vacated slots' Actor references
}
