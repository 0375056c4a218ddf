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
//   - nBuckets buckets of power-of-two width cover the sliding window
//     [base, base + nBuckets<<shift). Scheduling is O(1): index the
//     bucket, append, set an occupancy bit.
//   - Events beyond the window land in an unsorted far list. When the
//     wheel drains, the window rebases onto the earliest far event and
//     the far list redistributes — the far list is bounded by the
//     pending-event count (O(cores × MLP)), so the occasional scan is
//     cheap.
//   - The bucket width adapts: observed schedule deltas are averaged
//     and each rebase re-picks the width so a typical delta spans
//     about an eighth of the window (see pickShift), keeping buckets at
//     O(1) occupancy without overflowing everything to the far list.
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
	// nBuckets is the wheel size. 256 buckets at the adaptive width
	// cover several typical event-time spans, so rebases are rare
	// relative to dispatches.
	nBuckets = 256
	occWords = nBuckets / 64
	// initShift is the pre-adaptation bucket width (2^6 = 64 cycles),
	// sized for the simulator's cache/DRAM latency deltas.
	initShift = 6
	// maxShift caps the adaptive width so the window arithmetic stays
	// comfortably inside uint64.
	maxShift = 48
	// crowdLimit triggers a re-bucketing when one bucket accumulates
	// this many events: the width is too coarse for the observed
	// deltas, and rebases alone would not shrink it (a huge window
	// never drains to the far list).
	crowdLimit = 64
)

// Engine is a deterministic discrete-event scheduler. Not safe for
// concurrent use; one simulation drives one engine from one goroutine.
type Engine struct {
	// Calendar wheel: buckets[i] holds events with
	// time in [base + i<<shift, base + (i+1)<<shift), unordered; occ is
	// the non-empty-bucket bitmap; wheelN counts wheel-resident events.
	buckets [nBuckets][]event
	occ     [occWords]uint64
	wheelN  int
	base    uint64
	shift   uint
	// far holds events at or beyond the window's horizon, unordered.
	far []event

	// Observed schedule deltas (time - now), for width adaptation.
	deltaSum uint64
	deltaCnt uint64

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
	e := &Engine{shift: initShift}
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
// queue's window too — the bucket base returns to zero alongside the
// clock, while the adaptively learned bucket width carries over to the
// next phase (the deltas that tuned it are a property of the machine,
// not the phase). Rewinding with events still pending would reorder
// them and panics.
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
	e.deltaSum += t - e.now
	e.deltaCnt++
	if e.deltaCnt == 1<<20 { // decay: recent deltas dominate the average
		e.deltaSum >>= 1
		e.deltaCnt >>= 1
	}
	e.enqueue(ev)
}

// enqueue places ev in its wheel bucket, or in the far list when it
// lies beyond the window's horizon. Callers guarantee ev.time >= base.
func (e *Engine) enqueue(ev event) {
	if d := (ev.time - e.base) >> e.shift; d < nBuckets {
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
	if len(bkt) >= crowdLimit {
		// The bucket width is too coarse for the observed deltas (and
		// a too-wide window may never rebase on its own): re-pick the
		// width now and re-spread the wheel.
		if s := e.pickShift(); s < e.shift {
			e.rebucket(s)
			b = e.nextBucket()
			bkt = e.buckets[b]
		}
	}
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
		if d := (e.now - e.base) >> e.shift; d < nBuckets {
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

// rebase slides the window onto the earliest far event: the width
// re-adapts to the deltas observed since the last rebase, base moves to
// the far minimum (guaranteeing at least one event lands in the wheel),
// and the far list redistributes.
func (e *Engine) rebase() {
	minT := e.far[0].time
	for i := 1; i < len(e.far); i++ {
		if e.far[i].time < minT {
			minT = e.far[i].time
		}
	}
	e.shift = e.pickShift()
	e.base = minT
	e.spreadFar()
}

// spreadFar moves every far event inside the current window into its
// bucket, keeping the remainder in the far list.
func (e *Engine) spreadFar() {
	keep := e.far[:0]
	for _, ev := range e.far {
		if d := (ev.time - e.base) >> e.shift; d < nBuckets {
			b := int(d)
			e.buckets[b] = append(e.buckets[b], ev)
			e.occ[b>>6] |= 1 << (uint(b) & 63)
			e.wheelN++
		} else {
			keep = append(keep, ev)
		}
	}
	for i := len(keep); i < len(e.far); i++ {
		e.far[i] = event{}
	}
	e.far = keep
}

// rebucket re-spreads the whole wheel at a new bucket width, keeping
// base (which is at or below every pending event's time).
func (e *Engine) rebucket(shift uint) {
	for b := 0; b < nBuckets && e.wheelN > 0; b++ {
		bkt := e.buckets[b]
		if len(bkt) == 0 {
			continue
		}
		e.far = append(e.far, bkt...)
		for i := range bkt {
			bkt[i] = event{}
		}
		e.buckets[b] = bkt[:0]
		e.wheelN -= len(bkt)
	}
	e.occ = [occWords]uint64{}
	e.wheelN = 0
	e.shift = shift
	e.spreadFar()
}

// pickShift chooses the bucket width from the observed mean schedule
// delta: the smallest power-of-two width at which the mean delta spans
// no more than an eighth of the window. Small regular deltas get
// fine-grained buckets (O(1) occupancy); rare huge deltas (fault
// penalties) widen the window instead of overflowing every event to
// the far list.
func (e *Engine) pickShift() uint {
	if e.deltaCnt == 0 {
		return e.shift
	}
	avg := e.deltaSum / e.deltaCnt
	var s uint
	for avg>>s > nBuckets/8 && s < maxShift {
		s++
	}
	return s
}
