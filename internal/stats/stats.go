// Package stats provides the lightweight metric plumbing shared by the
// simulator: hit/miss counters, running means, geometric means, and a small
// table type used by the experiment harness to render paper figures as
// aligned text and CSV.
package stats

import "math"

// Counter is a monotonically increasing event count. The zero value is
// ready to use. Counters are not safe for concurrent use; the simulator is
// single-threaded by design (conservative min-clock interleaving).
type Counter uint64

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { *c += Counter(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { *c++ }

// Value returns the current count.
func (c Counter) Value() uint64 { return uint64(c) }

// HitMiss tracks accesses that either hit or miss in some structure.
// The zero value is ready to use.
type HitMiss struct {
	Hits   Counter
	Misses Counter
}

// Hit records a hit.
func (h *HitMiss) Hit() { h.Hits.Inc() }

// Miss records a miss.
func (h *HitMiss) Miss() { h.Misses.Inc() }

// Record records a hit when hit is true and a miss otherwise.
func (h *HitMiss) Record(hit bool) {
	if hit {
		h.Hits.Inc()
	} else {
		h.Misses.Inc()
	}
}

// Total returns hits + misses.
func (h HitMiss) Total() uint64 { return uint64(h.Hits) + uint64(h.Misses) }

// HitRate returns hits / (hits + misses), or 0 when there were no accesses.
func (h HitMiss) HitRate() float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	return float64(h.Hits) / float64(t)
}

// MissRate returns misses / (hits + misses), or 0 when there were no
// accesses.
func (h HitMiss) MissRate() float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	return float64(h.Misses) / float64(t)
}

// Merge adds other's counts into h.
func (h *HitMiss) Merge(other HitMiss) {
	h.Hits += other.Hits
	h.Misses += other.Misses
}

// Mean is a running arithmetic mean with sum and count exposed.
// The zero value is ready to use.
type Mean struct {
	Sum   float64
	Count uint64
}

// Add folds one observation into the mean.
func (m *Mean) Add(x float64) {
	m.Sum += x
	m.Count++
}

// Value returns the arithmetic mean, or 0 when no observations were added.
func (m Mean) Value() float64 {
	if m.Count == 0 {
		return 0
	}
	return m.Sum / float64(m.Count)
}

// Merge folds other into m.
func (m *Mean) Merge(other Mean) {
	m.Sum += other.Sum
	m.Count += other.Count
}

// Ratio returns a/b, or 0 when b is zero. It exists because nearly every
// reported metric is a quotient of two counters and the zero-denominator
// guard must be uniform.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// GeoMean returns the geometric mean of xs, ignoring non-positive entries
// (a speedup of 0 means "run did not execute" and must not zero the mean).
// It returns 0 if no positive entries exist.
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// ArithMean returns the arithmetic mean of xs, or 0 for an empty slice.
func ArithMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
