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
//     about an eighth of the window (see adapt), keeping buckets at
//     O(1) occupancy without overflowing everything to the far list.
//   - Dispatch extracts the earliest bucket's full batch of
//     same-timestamp events at once, sorted by (actor, seq), and
//     drains the batch without re-probing the wheel; events scheduled
//     mid-batch at the batch's own timestamp merge into the remaining
//     batch in sorted position, reproducing the heap's semantics
//     exactly.
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

	// batch is the current same-timestamp dispatch batch, sorted by
	// (actor, seq) from batchPos on; everything before batchPos has
	// been dispatched.
	batch    []event
	batchPos int

	// Observed schedule deltas (time - now), for width adaptation.
	deltaSum uint64
	deltaCnt uint64

	seq uint64
	now uint64
	// dispatched counts events executed over the engine's lifetime;
	// batched counts the subset delivered from an already-extracted
	// batch, i.e. without re-probing the wheel.
	dispatched uint64
	batched    uint64
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
func (e *Engine) Len() int {
	return e.wheelN + len(e.far) + (len(e.batch) - e.batchPos)
}

// Dispatched returns the number of events executed so far.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// Batched returns how many dispatches were served from an
// already-extracted same-timestamp batch — that is, without probing the
// wheel at all. The ratio Batched/Dispatched is the same-tick batching
// rate.
func (e *Engine) Batched() uint64 { return e.batched }

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
	e.batch = e.batch[:0]
	e.batchPos = 0
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
	if t == e.now && e.batchPos < len(e.batch) {
		// The event joins the in-flight batch at its own timestamp: it
		// must dispatch in (actor, seq) order against the batch's
		// remaining events, exactly as a heap insert at the current
		// time would.
		e.batchInsert(ev)
		return
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

// batchInsert merges ev into the remaining (undispatched) batch, which
// is sorted by (actor, seq). ev carries the largest seq issued, so its
// slot is immediately before the first remaining event with a greater
// actor id.
func (e *Engine) batchInsert(ev event) {
	i := e.batchPos
	for i < len(e.batch) && e.batch[i].actor <= ev.actor {
		i++
	}
	e.batch = append(e.batch, event{})
	copy(e.batch[i+1:], e.batch[i:len(e.batch)-1])
	e.batch[i] = ev
}

// Step dispatches the earliest pending event. It returns false when the
// queue is empty.
func (e *Engine) Step() bool {
	// Drain the extracted same-timestamp batch first: its events are
	// already sorted by (actor, seq), so they need no wheel probe. Only
	// an exhausted batch falls through to the wheel (next).
	if e.batchPos < len(e.batch) {
		e.batched++ // same-tick continuation: no wheel probe
		i := e.batchPos
		ev := e.batch[i]
		e.batch[i] = event{} // drop the vacated slot's Actor reference
		e.batchPos++
		e.dispatched++
		ev.target.OnEvent(ev.time, ev.kind, ev.payload)
		return true
	}
	ev, ok := e.next()
	if !ok {
		return false
	}
	e.dispatched++
	ev.target.OnEvent(ev.time, ev.kind, ev.payload)
	return true
}

// Run dispatches events in order until none remain. Events scheduled
// during dispatch are folded into the same run; runs of events at one
// timestamp drain from a single extracted batch.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// next advances the clock to the earliest pending timestamp and
// returns its first event, rebasing the window from the far list when
// the wheel is empty. A timestamp with a single event — the common
// case — dispatches straight out of its bucket; ties extract the whole
// same-timestamp batch at once, sorted by (actor, seq), which Step then
// drains without re-probing the wheel. The second result is false when
// no events remain anywhere.
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
	tmin, argmin, ties := bkt[0].time, 0, 1
	for i := 1; i < len(bkt); i++ {
		switch t := bkt[i].time; {
		case t < tmin:
			tmin, argmin, ties = t, i, 1
		case t == tmin:
			ties++
		}
	}
	e.now = tmin
	if ties == 1 {
		// Singleton fast path: no batch round-trip. Bucket order is
		// not semantically meaningful (ties sort at extraction), so a
		// swap-remove suffices.
		ev := bkt[argmin]
		last := len(bkt) - 1
		bkt[argmin] = bkt[last]
		bkt[last] = event{} // drop the vacated slot's Actor reference
		e.buckets[b] = bkt[:last]
		e.wheelN--
		if last == 0 {
			e.occ[b>>6] &^= 1 << (uint(b) & 63)
		}
		return ev, true
	}
	// Extract the full batch at tmin, compacting the bucket in place.
	e.batch = e.batch[:0]
	e.batchPos = 0
	w := 0
	for i := range bkt {
		if bkt[i].time == tmin {
			e.batch = append(e.batch, bkt[i])
		} else {
			bkt[w] = bkt[i]
			w++
		}
	}
	for i := w; i < len(bkt); i++ {
		bkt[i] = event{} // drop vacated slots' Actor references
	}
	e.buckets[b] = bkt[:w]
	e.wheelN -= len(e.batch)
	if w == 0 {
		e.occ[b>>6] &^= 1 << (uint(b) & 63)
	}
	sortBatch(e.batch)
	ev := e.batch[0]
	e.batch[0] = event{}
	e.batchPos = 1
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

// sortBatch insertion-sorts a same-timestamp batch by (actor, seq).
// Batches are a handful of events, and bucket extraction preserves
// per-actor seq order, so the sort is near-linear in practice.
func sortBatch(b []event) {
	for i := 1; i < len(b); i++ {
		ev := b[i]
		j := i
		for j > 0 && (ev.actor < b[j-1].actor || (ev.actor == b[j-1].actor && ev.seq < b[j-1].seq)) {
			b[j] = b[j-1]
			j--
		}
		b[j] = ev
	}
}
