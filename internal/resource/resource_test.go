package resource

import (
	"testing"
	"testing/quick"

	"ndpage/internal/xrand"
)

func TestReserveIdle(t *testing.T) {
	var s Slots
	if got := s.Reserve(100, 10); got != 100 {
		t.Fatalf("idle reserve = %d, want 100", got)
	}
}

func TestReserveQueuesBehindConflict(t *testing.T) {
	var s Slots
	s.Reserve(100, 50) // [100,150)
	if got := s.Reserve(120, 10); got != 150 {
		t.Fatalf("conflicting reserve = %d, want 150", got)
	}
}

// TestEarlierRequestUsesIdleGap is the engine-correctness property: a
// request with an *earlier* timestamp than an existing future booking
// must be served in the idle gap before it, not behind it.
func TestEarlierRequestUsesIdleGap(t *testing.T) {
	var s Slots
	s.Reserve(1000, 100) // a far-future chain from another core
	if got := s.Reserve(10, 50); got != 10 {
		t.Fatalf("earlier request served at %d, want 10 (idle gap)", got)
	}
	// A third request that does not fit the remaining gap goes after.
	if got := s.Reserve(990, 50); got != 1100 {
		t.Fatalf("gap-overflow request served at %d, want 1100", got)
	}
}

func TestExactFitGap(t *testing.T) {
	var s Slots
	s.Reserve(0, 10)  // [0,10)
	s.Reserve(20, 10) // [20,30)
	if got := s.Reserve(0, 10); got != 10 {
		t.Fatalf("exact-fit gap = %d, want 10", got)
	}
}

// NextFree returns the earliest time at or after now at which the
// resource could begin a reservation of length dur, without booking it:
// Reserve's placement scan, kept for the tests that probe placements.
func (s *Slots) NextFree(now, dur uint64) uint64 {
	candidate := max(now, s.floor)
	if candidate >= s.maxEnd {
		return candidate
	}
	for i := s.firstEndAfter(candidate); i < s.n; i++ {
		iv := s.at(i)
		if candidate+dur <= iv.start {
			return candidate
		}
		if iv.end > candidate {
			candidate = iv.end
		}
	}
	return candidate
}

func TestNextFreeDoesNotBook(t *testing.T) {
	var s Slots
	s.Reserve(0, 10)
	if got := s.NextFree(0, 5); got != 10 {
		t.Fatalf("NextFree = %d, want 10", got)
	}
	// Not booked: the same reservation is still available.
	if got := s.Reserve(0, 5); got != 10 {
		t.Fatalf("Reserve after NextFree = %d, want 10", got)
	}
}

func TestZeroDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-duration Reserve did not panic")
		}
	}()
	var s Slots
	s.Reserve(0, 0)
}

func TestWindowEviction(t *testing.T) {
	var s Slots
	// Far more reservations than the window; must not panic and must
	// remain consistent (monotone service for in-order arrivals).
	last := uint64(0)
	for i := 0; i < 10*window; i++ {
		got := s.Reserve(uint64(i), 3)
		if got < uint64(i) {
			t.Fatalf("reservation %d starts before arrival", i)
		}
		if got < last {
			t.Fatalf("in-order arrivals served out of order: %d after %d", got, last)
		}
		last = got
	}
}

// Property: reservations never overlap (within the remembered window).
func TestNoOverlapProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var s Slots
		type iv struct{ a, b uint64 }
		var placed []iv
		for _, r := range raw {
			now := uint64(r % 1000)
			dur := uint64(r%7 + 1)
			start := s.Reserve(now, dur)
			if start < now {
				return false
			}
			placed = append(placed, iv{start, start + dur})
			if len(placed) > window {
				placed = placed[1:] // only the window is guaranteed
			}
			for i := 0; i < len(placed); i++ {
				for j := i + 1; j < len(placed); j++ {
					a, b := placed[i], placed[j]
					if a.a < b.b && b.a < a.b {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestParallelStreamsOverlap: two independent "cores" issuing at the same
// times onto two different Slots never interfere; onto one Slots they
// serialize only by the occupancy, not by each other's chains.
func TestSerializationIsBoundedByOccupancy(t *testing.T) {
	var s Slots
	rng := xrand.New(1)
	// Core A books a long chain of short slots into the future.
	tA := uint64(0)
	for i := 0; i < 10; i++ {
		start := s.Reserve(tA, 4)
		tA = start + 4 + 100 // dependent chain with gaps
	}
	// Core B arrives at t=2 with short requests: they must fit the gaps,
	// finishing far before core A's horizon.
	tB := uint64(2)
	for i := 0; i < 10; i++ {
		start := s.Reserve(tB, 4)
		if start > tB+20 {
			t.Fatalf("request at %d served at %d: fake serialization", tB, start)
		}
		tB = start + 4 + uint64(rng.Intn(3))
	}
}

func TestReset(t *testing.T) {
	var s Slots
	s.Reserve(0, 100)
	s.Reset()
	if got := s.Reserve(0, 10); got != 0 {
		t.Fatalf("post-Reset reserve = %d, want 0", got)
	}
}

func BenchmarkReserve(b *testing.B) {
	var s Slots
	now := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = s.Reserve(now, 4) + 20
	}
}

// refSlots is the pre-optimization reference implementation (linear
// scan, single eviction, no fast path), kept verbatim for differential
// testing: the fast-path Slots must return identical placements for any
// request sequence, since placements feed simulated timing and the
// golden tests pin that timing bit for bit.
type refSlots struct {
	busy  [window]interval
	n     int
	floor uint64
}

func (s *refSlots) Reserve(now, dur uint64) uint64 {
	candidate := now
	if s.floor > candidate {
		candidate = s.floor
	}
	idx := s.n
	for i := 0; i < s.n; i++ {
		iv := s.busy[i]
		if candidate+dur <= iv.start {
			idx = i
			break
		}
		if iv.end > candidate {
			candidate = iv.end
		}
	}
	s.insert(idx, interval{candidate, candidate + dur})
	return candidate
}

func (s *refSlots) insert(idx int, iv interval) {
	if s.n == window {
		ev := 0
		for i := 1; i < s.n; i++ {
			if s.busy[i].end < s.busy[ev].end {
				ev = i
			}
		}
		if s.busy[ev].end > s.floor {
			s.floor = s.busy[ev].end
		}
		copy(s.busy[ev:], s.busy[ev+1:s.n])
		s.n--
		if ev < idx {
			idx--
		}
	}
	copy(s.busy[idx+1:s.n+1], s.busy[idx:s.n])
	s.busy[idx] = iv
	s.n++
}

func (s *refSlots) NextFree(now, dur uint64) uint64 {
	candidate := now
	if s.floor > candidate {
		candidate = s.floor
	}
	for i := 0; i < s.n; i++ {
		iv := s.busy[i]
		if candidate+dur <= iv.start {
			return candidate
		}
		if iv.end > candidate {
			candidate = iv.end
		}
	}
	return candidate
}

// TestReserveMatchesReferenceImplementation drives the optimized Slots
// and the reference through long pseudo-random request mixes — in-order
// arrivals, out-of-order arrivals, bursts far past the window — and
// requires every Reserve and NextFree result to agree exactly.
func TestReserveMatchesReferenceImplementation(t *testing.T) {
	state := uint64(0xB5297A4D2F8B0E31)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for round := 0; round < 20; round++ {
		var got Slots
		var want refSlots
		var clock uint64
		for i := 0; i < 2000; i++ {
			// Arrival pattern mixes: mostly near the moving clock, some
			// far behind (out-of-order blocking-core chains), some far
			// ahead (post-fault bursts).
			var now uint64
			switch next() % 8 {
			case 0:
				if back := next() % 500; back < clock {
					now = clock - back
				}
			case 1:
				now = clock + next()%5000
			default:
				now = clock + next()%100
			}
			dur := 1 + next()%120
			if next()%4 == 0 {
				g, w := got.NextFree(now, dur), want.NextFree(now, dur)
				if g != w {
					t.Fatalf("round %d op %d: NextFree(%d, %d) = %d, reference %d", round, i, now, dur, g, w)
				}
			}
			g, w := got.Reserve(now, dur), want.Reserve(now, dur)
			if g != w {
				t.Fatalf("round %d op %d: Reserve(%d, %d) = %d, reference %d", round, i, now, dur, g, w)
			}
			if g > clock {
				clock = g
			}
		}
	}
}
