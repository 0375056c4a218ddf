package engine

import "fmt"

// heapQueue is the binary min-heap event queue the calendar wheel
// replaced, kept as the oracle for the differential tests: randomized
// schedules must dispatch identically through it and through Engine.
// It implements the same (time, actor, seq) order with O(log n) sift
// operations per dispatch.
type heapQueue struct {
	heap []event
	seq  uint64
	now  uint64
}

// before is the strict (time, actor, seq) dispatch order.
func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	if e.actor != o.actor {
		return e.actor < o.actor
	}
	return e.seq < o.seq
}

// Schedule mirrors Engine.Schedule.
func (q *heapQueue) Schedule(t uint64, actor int, target Actor, kind uint8, payload uint64) {
	if t < q.now {
		panic(fmt.Sprintf("heapQueue: event scheduled at %d, before current time %d", t, q.now))
	}
	q.heap = append(q.heap, event{time: t, seq: q.seq, payload: payload, target: target, actor: int32(actor), kind: kind})
	q.seq++
	q.up(len(q.heap) - 1)
}

// Step dispatches the earliest pending event. It returns false when the
// queue is empty.
func (q *heapQueue) Step() bool {
	if len(q.heap) == 0 {
		return false
	}
	ev := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap[last] = event{}
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	q.now = ev.time
	ev.target.OnEvent(ev.time, ev.kind, ev.payload)
	return true
}

// Run dispatches events in order until none remain.
func (q *heapQueue) Run() {
	for q.Step() {
	}
}

// Rewind mirrors Engine.Rewind.
func (q *heapQueue) Rewind() {
	if len(q.heap) != 0 {
		panic("heapQueue: Rewind with pending events")
	}
	q.now = 0
}

// up restores the heap property from leaf i toward the root.
func (q *heapQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.heap[i].before(&q.heap[parent]) {
			return
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

// down restores the heap property from node i toward the leaves.
func (q *heapQueue) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && q.heap[l].before(&q.heap[least]) {
			least = l
		}
		if r < n && q.heap[r].before(&q.heap[least]) {
			least = r
		}
		if least == i {
			return
		}
		q.heap[i], q.heap[least] = q.heap[least], q.heap[i]
		i = least
	}
}
