package engine

import "testing"

// Calendar-queue-specific behavior: same-tick runs, window rebase
// through the far list, crowded buckets, and the Rewind bucket reset.

// TestSameTickBatchDrainsWithoutReprobe pins a run of events at one
// timestamp: they share a bucket with a later event and dispatch in
// actor order before it. (The name predates the engine's single
// dispatch path, when such a run drained as one extracted batch.)
func TestSameTickBatchDrainsWithoutReprobe(t *testing.T) {
	e := New()
	r := &recorder{}
	for i := 0; i < 8; i++ {
		e.Schedule(42, i, r, 0, uint64(i))
	}
	e.Schedule(50, 0, r, 0, 99)
	e.Run()
	if len(r.got) != 9 {
		t.Fatalf("dispatched %d events, want 9", len(r.got))
	}
	for i := 0; i < 8; i++ {
		if r.got[i].now != 42 || r.got[i].payload != uint64(i) {
			t.Fatalf("dispatch %d = %+v, want time 42 payload %d", i, r.got[i], i)
		}
	}
	if r.got[8].now != 50 || r.got[8].payload != 99 {
		t.Fatalf("dispatch 8 = %+v, want time 50 payload 99", r.got[8])
	}
	if e.Dispatched() != 9 {
		t.Errorf("Dispatched = %d, want 9", e.Dispatched())
	}
}

// TestFarEventsRebaseIntoWindow schedules events far beyond the wheel's
// horizon and checks they dispatch in order after the window rebases.
func TestFarEventsRebaseIntoWindow(t *testing.T) {
	e := New()
	r := &recorder{}
	horizon := uint64(nBuckets) << bucketShift
	times := []uint64{1, horizon * 3, horizon * 3, horizon*10 + 5, horizon * 42}
	for i, at := range times {
		e.Schedule(at, i, r, 0, uint64(i))
	}
	if len(e.far) == 0 {
		t.Fatal("no events landed in the far list; horizon math changed?")
	}
	e.Run()
	if len(r.got) != len(times) {
		t.Fatalf("dispatched %d events, want %d", len(r.got), len(times))
	}
	for i, d := range r.got {
		if d.now != times[i] || d.payload != uint64(i) {
			t.Fatalf("dispatch %d = %+v, want time %d payload %d", i, d, times[i], i)
		}
	}
}

// TestCrowdedBucketDispatchesInOrder piles 128 events into one bucket,
// far past its seed capacity, at every tick the bucket spans and in
// reverse of dispatch order, and checks they dispatch in (time, actor)
// order: the in-bucket scan alone orders a crowded bucket.
func TestCrowdedBucketDispatchesInOrder(t *testing.T) {
	e := New()
	r := &recorder{}
	const n = 128
	for i := n - 1; i >= 0; i-- {
		e.Schedule(uint64(i>>4), i&15, r, 0, uint64(i)) // ticks 0-7, one bucket
	}
	if got := len(e.buckets[0]); got != n {
		t.Fatalf("bucket 0 holds %d events, want %d; bucket width changed?", got, n)
	}
	e.Run()
	if len(r.got) != n {
		t.Fatalf("dispatched %d events, want %d", len(r.got), n)
	}
	for i, d := range r.got {
		if d.now != uint64(i>>4) || d.payload != uint64(i) {
			t.Fatalf("dispatch %d = %+v, want time %d payload %d", i, d, i>>4, i)
		}
	}
}

// TestRewindAfterBatchedRun pins Rewind after a run of same-tick events
// (including one scheduled mid-dispatch at the current tick): the
// engine rewinds cleanly — clock and window base return to zero and a
// new phase scheduled below the old horizon runs in order.
func TestRewindAfterBatchedRun(t *testing.T) {
	e := New()
	r := &recorder{}
	r.hook = func(now uint64, kind uint8, payload uint64) {
		if kind == 1 {
			// Mid-dispatch same-tick insert: actor 5 sorts after the
			// tick's remaining actors 1-3.
			e.Schedule(now, 5, r, 0, 1000)
		}
	}
	for i := 0; i < 4; i++ {
		e.Schedule(700, i, r, 0, uint64(i))
	}
	e.Schedule(700, 0, r, 1, 100) // triggers the mid-batch insert
	e.Run()
	if got := len(r.got); got != 6 {
		t.Fatalf("phase 1 dispatched %d events, want 6", got)
	}
	for i, want := range []uint64{0, 100, 1, 2, 3, 1000} {
		if r.got[i].now != 700 || r.got[i].payload != want {
			t.Fatalf("phase 1 dispatch %d = %+v, want time 700 payload %d", i, r.got[i], want)
		}
	}

	e.Rewind()
	if e.Now() != 0 || e.base != 0 {
		t.Fatalf("Rewind left now=%d base=%d, want 0/0", e.Now(), e.base)
	}
	if e.Len() != 0 {
		t.Fatal("Rewind left pending events")
	}

	// The next phase re-seeds below the previous horizon and must
	// dispatch in order, including a fresh same-tick pair.
	r.hook = nil
	r.got = r.got[:0]
	e.Schedule(5, 1, r, 0, 1)
	e.Schedule(5, 0, r, 0, 0)
	e.Schedule(3, 2, r, 0, 2)
	e.Run()
	if len(r.got) != 3 || r.got[0].payload != 2 || r.got[1].payload != 0 || r.got[2].payload != 1 {
		t.Fatalf("post-Rewind order wrong: %+v", r.got)
	}
}

// TestLenCountsAllRegions checks Len across the wheel and the far list,
// including a partially drained tick.
func TestLenCountsAllRegions(t *testing.T) {
	e := New()
	r := &recorder{}
	e.Schedule(1, 0, r, 0, 0)
	e.Schedule(1, 1, r, 0, 0)
	e.Schedule(2, 0, r, 0, 0)
	e.Schedule(uint64(nBuckets)<<bucketShift+12345, 0, r, 0, 0) // far
	if e.Len() != 4 {
		t.Fatalf("Len = %d, want 4", e.Len())
	}
	if !e.Step() { // dispatches one of the two t=1 events
		t.Fatal("Step found no work")
	}
	if e.Len() != 3 {
		t.Fatalf("Len after one Step = %d, want 3 (one t=1 event pending)", e.Len())
	}
	e.Run()
	if e.Len() != 0 {
		t.Fatalf("Len after Run = %d, want 0", e.Len())
	}
}
