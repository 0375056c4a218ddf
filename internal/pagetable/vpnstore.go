package pagetable

import "ndpage/internal/addr"

// vpnStore maps VPN -> PFN for the cuckoo table, whose slots hold only
// VPN tags. Mapped pages cluster: the OS model bump-allocates every
// heap upward from one base, 2 MB at a time. So one window of VPNs
// lives in a flat array indexed by vpn - base, where a read is a bounds
// check and one load. A VPN the window could only take by becoming
// less than half full goes to a Go map instead, so memory stays
// proportional to the mapped pages for any key distribution. No map
// key ever lies inside the window: growing the window moves the keys it
// newly spans into the array.
type vpnStore struct {
	base   addr.VPN
	dense  []addr.PFN // PFN+1 of page base+i; 0 when unmapped
	sparse map[addr.VPN]addr.PFN
	n      uint64 // entries, dense and sparse
}

// storeSlack is how far past twice its entry count the window may
// span: one 2 MB chunk of pages, so holes between chunks stay dense.
const storeSlack = addr.EntriesPerTable

// sparseEntryBytes estimates a Go map entry's resident cost: the
// 16-byte key/value pair plus control bytes and load-factor headroom.
const sparseEntryBytes = 32

// get returns vpn's frame.
func (s *vpnStore) get(vpn addr.VPN) (addr.PFN, bool) {
	if i := uint64(vpn - s.base); i < uint64(len(s.dense)) {
		if p := s.dense[i]; p != 0 {
			return p - 1, true
		}
		return 0, false
	}
	p, ok := s.sparse[vpn]
	return p, ok
}

// set maps vpn to pfn, reporting whether vpn was already mapped.
func (s *vpnStore) set(vpn addr.VPN, pfn addr.PFN) (existed bool) {
	if i := uint64(vpn - s.base); i < uint64(len(s.dense)) {
		existed = s.dense[i] != 0
		if !existed {
			s.n++
		}
		s.dense[i] = pfn + 1
		return existed
	}
	if _, existed = s.sparse[vpn]; !existed {
		s.n++
		if s.cover(vpn) {
			s.dense[vpn-s.base] = pfn + 1
			return false
		}
		if s.sparse == nil {
			s.sparse = make(map[addr.VPN]addr.PFN)
		}
	}
	s.sparse[vpn] = pfn
	return existed
}

// remove unmaps vpn, returning the frame it had.
func (s *vpnStore) remove(vpn addr.VPN) (addr.PFN, bool) {
	if i := uint64(vpn - s.base); i < uint64(len(s.dense)) {
		p := s.dense[i]
		if p == 0 {
			return 0, false
		}
		s.dense[i] = 0
		s.n--
		return p - 1, true
	}
	p, ok := s.sparse[vpn]
	if ok {
		delete(s.sparse, vpn)
		s.n--
	}
	return p, ok
}

// cover grows the window to take vpn, which lies outside it, unless the
// window would then span more than 2n + storeSlack pages. It grows by
// half again toward vpn, so a run of ascending or descending VPNs
// regrows it only logarithmically often. Growth leaves the window at
// most 1.5 x (2n + storeSlack) pages.
func (s *vpnStore) cover(vpn addr.VPN) bool {
	lo, hi := vpn, vpn+1
	if len(s.dense) > 0 {
		lo, hi = min(lo, s.base), max(hi, s.base+addr.VPN(len(s.dense)))
	}
	span := uint64(hi - lo)
	if span > 2*s.n+storeSlack {
		return false
	}
	extra := span / 2
	if vpn < s.base || len(s.dense) == 0 {
		lo -= addr.VPN(min(extra, uint64(lo)))
	} else {
		hi += addr.VPN(extra)
	}
	d := make([]addr.PFN, hi-lo)
	if len(s.dense) > 0 {
		copy(d[s.base-lo:], s.dense)
	}
	s.base, s.dense = lo, d
	for v, p := range s.sparse {
		if i := uint64(v - lo); i < uint64(len(d)) {
			d[i] = p + 1
			delete(s.sparse, v)
		}
	}
	return true
}

// bytes is the store's resident size.
func (s *vpnStore) bytes() uint64 {
	return uint64(cap(s.dense))*8 + uint64(len(s.sparse))*sparseEntryBytes
}
