// Package resource provides busy-interval tracking for shared hardware
// resources (DRAM banks, channel buses, mesh links) under the simulator's
// blocking-core interleaving.
//
// The engine steps the core with the smallest local clock, but one step
// executes a whole dependent access chain (translate, then load), pushing
// that core's clock far ahead. The next core then issues requests with
// *earlier* timestamps. A naive single free-at timestamp would serialize
// those earlier requests behind the first core's entire chain, collapsing
// all parallelism (measured: 4-core runtime exactly 4x 1-core). A Slots
// tracker instead remembers a sliding window of recent busy intervals and
// places each request in the earliest gap at or after its arrival, so
// out-of-order-in-wall-time requests overlap exactly as the hardware
// would have overlapped them.
//
// Reserve is the simulator's single hottest function (every DRAM bank,
// channel bus, and mesh link access books through it), so the book is
// engineered for the steady state while returning placements that are
// bit-identical to the straightforward scan-and-shift implementation
// (pinned by a differential test — placements feed simulated timing and
// the golden tests pin that timing exactly):
//
//   - The intervals live in a ring buffer, so evicting the oldest-ending
//     interval — always the logically first, see below — is a head bump,
//     not a 47-slot shift, and out-of-order inserts shift whichever side is
//     shorter (requests arrive near the frontier, so usually a slot or
//     two at the tail).
//   - Requests arriving at or past every remembered end (idle banks, the
//     common case across the 16 banks) append in O(1) with no scan.
//   - Remembered intervals are disjoint: a placement lands in a gap of
//     the remembered intervals and at or above the floor, past every
//     forgotten one. Disjoint intervals in start order have monotone
//     ends, so the eviction victim (the smallest end) is always the
//     front interval, and the placement scan skips the prefix of
//     intervals whose ends cannot constrain the request via binary
//     search, leaving only the short out-of-order frontier to walk.
package resource

// window is the number of busy intervals remembered. It bounds how far
// out-of-order request timestamps may interleave: with blocking cores,
// at most one chain per core is in flight, so a window a few times the
// maximum core count is ample.
const window = 48

// ringCap is the ring-buffer capacity: the smallest power of two at or
// above window, so logical indexes wrap with a mask.
const ringCap = 64

type interval struct {
	start, end uint64
}

// Slots is one resource's reservation book. The zero value is ready to
// use (fully idle). Not safe for concurrent use.
type Slots struct {
	// buf is a ring of busy intervals, sorted by start time in logical
	// order; head is the physical index of logical position 0.
	buf  [ringCap]interval
	head int
	n    int
	// floor is the highest end time among evicted (forgotten)
	// intervals: placement never dips below it, so forgetting an old
	// interval can never resurrect an already-spent gap.
	floor uint64
	// maxEnd is the highest end time booked (monotone until Reset:
	// eviction removes a minimum end, never the maximum). A request
	// arriving at or past maxEnd cannot be constrained by any
	// remembered interval, so Reserve appends with no scan.
	maxEnd uint64
}

// at returns the interval at logical position i.
func (s *Slots) at(i int) *interval {
	return &s.buf[(s.head+i)&(ringCap-1)]
}

// Reserve books the earliest interval of length dur starting at or after
// `now`, records it, and returns its start time. dur must be positive.
func (s *Slots) Reserve(now, dur uint64) uint64 {
	if dur == 0 {
		panic("resource: zero-duration reservation")
	}
	// Placement never dips below the floor.
	candidate := now
	if s.floor > candidate {
		candidate = s.floor
	}

	if candidate >= s.maxEnd {
		// Fast path: every remembered interval ends at or before the
		// candidate, so none can delay it and none starts after it —
		// the placement is the candidate itself, appended in order.
		if s.n == window {
			s.evict()
		}
		*s.at(s.n) = interval{candidate, candidate + dur}
		s.n++
		s.maxEnd = candidate + dur
		return candidate
	}

	// Find the earliest gap >= candidate that fits dur: walk intervals
	// in start order, bumping the candidate over the ends of intervals
	// it cannot clear, until one starts late enough to leave a gap.
	// Intervals with end <= candidate can neither bump the candidate
	// nor host a gap before it (their starts precede their ends), so
	// the scan begins past them.
	idx := s.n // insertion position
	for i := s.firstEndAfter(candidate); i < s.n; i++ {
		iv := s.at(i)
		if candidate+dur <= iv.start {
			idx = i
			break
		}
		if iv.end > candidate {
			candidate = iv.end
		}
	}

	iv := interval{candidate, candidate + dur}
	if s.n == window {
		s.evict()
		if idx > 0 {
			idx--
		}
	}
	s.insertAt(idx, iv)
	if iv.end > s.maxEnd {
		s.maxEnd = iv.end
	}
	return candidate
}

// firstEndAfter returns the logical position of the first interval
// ending after t: ends are monotone in logical order, so a binary
// search finds it.
func (s *Slots) firstEndAfter(t uint64) int {
	lo, hi := 0, s.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.at(mid).end > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// evict removes the interval with the smallest end — logical 0, since
// ends are monotone — and raises the floor to its end.
func (s *Slots) evict() {
	if end := s.at(0).end; end > s.floor {
		s.floor = end
	}
	s.head = (s.head + 1) & (ringCap - 1)
	s.n--
}

// insertAt places iv at logical position idx, shifting whichever side
// is shorter.
func (s *Slots) insertAt(idx int, iv interval) {
	if idx <= s.n-idx {
		s.head = (s.head - 1) & (ringCap - 1)
		for i := 0; i < idx; i++ {
			*s.at(i) = *s.at(i + 1)
		}
	} else {
		for i := s.n; i > idx; i-- {
			*s.at(i) = *s.at(i - 1)
		}
	}
	*s.at(idx) = iv
	s.n++
}

// Reset clears all reservations and the eviction floor.
func (s *Slots) Reset() {
	s.head = 0
	s.n = 0
	s.floor = 0
	s.maxEnd = 0
}
