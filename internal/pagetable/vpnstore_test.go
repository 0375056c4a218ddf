package pagetable

import (
	"testing"

	"ndpage/internal/addr"
	"ndpage/internal/xrand"
)

// TestVPNStoreMatchesMap drives the store and a Go map through runs of
// ascending, descending and every-other pages, scattered 40-bit keys,
// remaps and removals, and requires identical answers, a consistent
// window/map split, and memory proportional to the entries held.
func TestVPNStoreMatchesMap(t *testing.T) {
	var s vpnStore
	model := map[addr.VPN]addr.PFN{}
	rng := xrand.New(3)
	set := func(vpn addr.VPN, pfn addr.PFN) {
		_, want := model[vpn]
		if got := s.set(vpn, pfn); got != want {
			t.Fatalf("set(%#x) existed = %v, want %v", uint64(vpn), got, want)
		}
		model[vpn] = pfn
	}
	for round := 0; round < 200; round++ {
		base := addr.VPN(1<<27 + rng.Uint64n(1<<16))
		n := rng.Uint64n(2048) + 1
		switch rng.Uint64n(5) {
		case 0: // ascending run
			for k := uint64(0); k < n; k++ {
				set(base+addr.VPN(k), addr.PFN(rng.Uint64n(1<<30)))
			}
		case 1: // descending run
			for k := uint64(0); k < n; k++ {
				set(base-addr.VPN(k), addr.PFN(rng.Uint64n(1<<30)))
			}
		case 2: // every other page
			for k := uint64(0); k < n; k++ {
				set(base+addr.VPN(2*k), addr.PFN(rng.Uint64n(1<<30)))
			}
		case 3: // scattered keys
			for k := uint64(0); k < n/16+1; k++ {
				set(addr.VPN(rng.Uint64n(1<<40)), addr.PFN(rng.Uint64n(1<<30)))
			}
		default: // removals
			for k := uint64(0); k < n; k++ {
				vpn := base + addr.VPN(k)
				want, wok := model[vpn]
				if got, ok := s.remove(vpn); ok != wok || got != want {
					t.Fatalf("remove(%#x) = %d,%v want %d,%v", uint64(vpn), got, ok, want, wok)
				}
				delete(model, vpn)
			}
		}
		if s.n != uint64(len(model)) {
			t.Fatalf("round %d: store counts %d entries, model has %d", round, s.n, len(model))
		}
		for vpn, want := range model {
			if got, ok := s.get(vpn); !ok || got != want {
				t.Fatalf("round %d: get(%#x) = %d,%v want %d", round, uint64(vpn), got, ok, want)
			}
		}
		for v := range s.sparse {
			if uint64(v-s.base) < uint64(len(s.dense)) {
				t.Fatalf("round %d: map key %#x lies inside the window", round, uint64(v))
			}
		}
	}
	if _, ok := s.get(addr.VPN(1) << 45); ok {
		t.Error("get of an unmapped far key hit")
	}
	if per := float64(s.bytes()) / float64(s.n); per > 64 {
		t.Errorf("store holds %.1f B per entry, want <= 64", per)
	}
}
