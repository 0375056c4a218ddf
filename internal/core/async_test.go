package core

import (
	"testing"

	"ndpage/internal/access"
	"ndpage/internal/addr"
	"ndpage/internal/engine"
)

// xlatOut records one TranslateAsyncPC completion. It implements
// TranslationClient.
type xlatOut struct {
	pa addr.P
	at uint64
}

func (o *xlatOut) OnTranslated(pa addr.P, at uint64) { o.pa, o.at = pa, at }

// xlatIssuer injects TranslateAsyncPC requests as engine events, the way
// the non-blocking front-end does.
type xlatIssuer struct {
	eng *engine.Engine
	m   *MMU
	fns []func()
}

func (xi *xlatIssuer) OnEvent(now uint64, kind uint8, payload uint64) {
	xi.fns[payload]()
}

// translateAt schedules one TranslateAsyncPC request at time t and
// returns the record its completion will fill.
func (xi *xlatIssuer) translateAt(t uint64, v addr.V) *xlatOut {
	out := &xlatOut{}
	xi.fns = append(xi.fns, func() {
		xi.m.TranslateAsyncPC(xi.eng, t, v, access.Read, 0, out)
	})
	xi.eng.Schedule(t, 0, xi, 0, uint64(len(xi.fns)-1))
	return out
}

// TestTranslateAsyncMatchesSynchronousTiming: a lone async translation
// (hit or walk) completes at the same time and with the same physical
// address as the synchronous path on an identically warmed MMU.
func TestTranslateAsyncMatchesSynchronousTiming(t *testing.T) {
	for _, mech := range []Mechanism{Radix, NDPage, ECH, Ideal} {
		syncMMU, base := rig(t, mech)
		asyncMMU, base2 := rig(t, mech)
		if base != base2 {
			t.Fatalf("%v: rigs disagree on base", mech)
		}
		for i, v := range []addr.V{base, base + 64, base + 5*addr.PageSize} {
			now := uint64(1000 * (i + 1))
			wantPA, wantDone := syncMMU.TranslatePC(now, v, access.Read, 0)

			eng := engine.New()
			xi := &xlatIssuer{eng: eng, m: asyncMMU}
			got := xi.translateAt(now, v)
			eng.Run()
			if got.pa != wantPA || got.at != wantDone {
				t.Errorf("%v access %d: async (%#x, %d) != sync (%#x, %d)",
					mech, i, uint64(got.pa), got.at, uint64(wantPA), wantDone)
			}
		}
	}
}

// TestTranslateAsyncCoalescesConcurrentMisses: two in-flight misses for
// one page perform a single walk, and the TLB fill lands at the walk's
// completion event — a third request after completion hits the TLB.
func TestTranslateAsyncCoalescesConcurrentMisses(t *testing.T) {
	mmu, base := rig(t, Radix)
	eng := engine.New()
	xi := &xlatIssuer{eng: eng, m: mmu}
	a := xi.translateAt(0, base)
	b := xi.translateAt(10, base+64)
	eng.Run()
	ws := mmu.Walker().Stats()
	if ws.Walks.Value() != 1 || ws.MSHRHits.Value() != 1 {
		t.Fatalf("walks=%d mshr=%d, want 1 walk + 1 coalesce", ws.Walks.Value(), ws.MSHRHits.Value())
	}
	if a.at != b.at {
		t.Errorf("coalesced translations complete at %d/%d, want equal", a.at, b.at)
	}

	// After completion the page is in the DTLB: a hit resolves in the
	// L1 TLB latency with no further walk.
	c := xi.translateAt(a.at+100, base+128)
	eng.Run()
	if got := mmu.Walker().Stats().Walks.Value(); got != 1 {
		t.Errorf("TLB-filled page walked again (%d walks)", got)
	}
	if want := a.at + 100 + mmu.DTLB().Latency(); c.at != want {
		t.Errorf("post-fill hit completed at %d, want %d", c.at, want)
	}
}

// TestTranslateAsyncWindowContention: a private width-1 walker serializes
// a core's concurrent misses to different pages via the pending queue.
func TestTranslateAsyncWindowContention(t *testing.T) {
	mmu, base := rig(t, Radix)
	eng := engine.New()
	xi := &xlatIssuer{eng: eng, m: mmu}
	a := xi.translateAt(0, base)
	b := xi.translateAt(0, base+addr.PageSize)
	eng.Run()
	ws := mmu.Walker().Stats()
	if ws.Walks.Value() != 2 {
		t.Fatalf("walks = %d, want 2", ws.Walks.Value())
	}
	if ws.QueuedWalks.Value() != 1 {
		t.Errorf("queued = %d, want 1 (width-1 slot held)", ws.QueuedWalks.Value())
	}
	if !(b.at > a.at) {
		t.Errorf("second miss (%d) did not queue behind the first (%d)", b.at, a.at)
	}
}
