// Package bitset provides a paged bitmap over uint64 keys: a directory
// of fixed-size bit pages allocated on first touch. It backs the OS
// model's per-chunk state (huge-page fallback marks, residency tracking)
// that used to live in map[addr.VPN]bool sets — a Get is two array
// indexes and a mask instead of a map-bucket probe, which matters
// because the residency and fallback checks sit on the demand-paging
// path of every simulated load and store.
//
// Keys are expected to be dense-ish (the simulator's address spaces
// bump-allocate virtual chunks from a fixed base, so chunk ordinals are
// a short dense run); sparse keys still work, paying one page per
// occupied key range. The zero value is an empty set ready to use.
package bitset

import (
	"math/bits"
	"slices"
)

// pageBits is log2 of the bits per directory page. 1<<15 bits = 4 KB of
// words per page, so a 16 GB address space's 2 MB-chunk ordinals (8192
// chunks) fit in a single page.
const (
	pageBits = 15
	pageSize = 1 << pageBits // bits per page
	words    = pageSize / 64
)

// Paged is a paged bitmap. Not safe for concurrent use.
type Paged struct {
	pages [][]uint64
	count uint64
}

// Get reports whether key is in the set.
func (p *Paged) Get(key uint64) bool {
	pi := key >> pageBits
	if pi >= uint64(len(p.pages)) || p.pages[pi] == nil {
		return false
	}
	bit := key & (pageSize - 1)
	return p.pages[pi][bit>>6]&(1<<(bit&63)) != 0
}

// Set adds key to the set, allocating its page on first touch.
func (p *Paged) Set(key uint64) {
	pi := key >> pageBits
	if n := int(pi) + 1 - len(p.pages); n > 0 {
		p.pages = slices.Grow(p.pages, n)[:pi+1]
	}
	if p.pages[pi] == nil {
		p.pages[pi] = make([]uint64, words)
	}
	bit := key & (pageSize - 1)
	w, m := bit>>6, uint64(1)<<(bit&63)
	if p.pages[pi][w]&m == 0 {
		p.pages[pi][w] |= m
		p.count++
	}
}

// Clear removes key from the set.
func (p *Paged) Clear(key uint64) {
	pi := key >> pageBits
	if pi >= uint64(len(p.pages)) || p.pages[pi] == nil {
		return
	}
	bit := key & (pageSize - 1)
	w, m := bit>>6, uint64(1)<<(bit&63)
	if p.pages[pi][w]&m != 0 {
		p.pages[pi][w] &^= m
		p.count--
	}
}

// Len returns the number of keys in the set.
func (p *Paged) Len() uint64 { return p.count }

// Word-bitmap helpers: operations on caller-owned []uint64 bitmaps, for
// structures that know their capacity up front and want the bits inline
// (page-table present sets, per-way occupancy maps). All helpers index
// bit i at words[i>>6] bit i&63 and assume i is in range; they are small
// enough to inline into the lookup paths that motivate them.

// WordsFor returns the number of uint64 words covering n bits.
func WordsFor(n uint64) int { return int((n + 63) / 64) }

// TestBit reports whether bit i is set.
func TestBit(words []uint64, i uint64) bool {
	return words[i>>6]&(1<<(i&63)) != 0
}

// SetBit sets bit i, reporting whether it was previously clear.
func SetBit(words []uint64, i uint64) bool {
	w, m := i>>6, uint64(1)<<(i&63)
	if words[w]&m != 0 {
		return false
	}
	words[w] |= m
	return true
}

// ClearBit clears bit i, reporting whether it was previously set.
func ClearBit(words []uint64, i uint64) bool {
	w, m := i>>6, uint64(1)<<(i&63)
	if words[w]&m == 0 {
		return false
	}
	words[w] &^= m
	return true
}

// SetRun sets bits [i, i+n), returning how many were previously clear
// (popcount of the freshly set bits, word at a time) — bulk-population
// paths use the return value to maintain used counts without a
// per-entry test.
func SetRun(words []uint64, i, n uint64) uint64 {
	fresh := uint64(0)
	for n > 0 {
		w, off := i>>6, i&63
		span := 64 - off
		if span > n {
			span = n
		}
		mask := (^uint64(0) >> (64 - span)) << off
		fresh += uint64(bits.OnesCount64(mask &^ words[w]))
		words[w] |= mask
		i += span
		n -= span
	}
	return fresh
}

// Count returns the population count of the bitmap.
func Count(words []uint64) uint64 {
	total := uint64(0)
	for _, w := range words {
		total += uint64(bits.OnesCount64(w))
	}
	return total
}

// NextSet returns the index of the first set bit at or after i, and
// false if there is none.
func NextSet(words []uint64, i uint64) (uint64, bool) {
	w := i >> 6
	if w >= uint64(len(words)) {
		return 0, false
	}
	if word := words[w] >> (i & 63); word != 0 {
		return i + uint64(bits.TrailingZeros64(word)), true
	}
	for w++; w < uint64(len(words)); w++ {
		if words[w] != 0 {
			return w<<6 + uint64(bits.TrailingZeros64(words[w])), true
		}
	}
	return 0, false
}
