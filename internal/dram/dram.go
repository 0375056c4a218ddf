// Package dram models main-memory timing at channel/bank granularity with
// open-row buffers and busy-until occupancy tracking.
//
// The model is deliberately simple but captures the two effects the paper
// depends on:
//
//  1. Row-buffer locality: sequential lines hit the open row (cheap);
//     irregular PTE and pointer-chase accesses close/open rows
//     (expensive).
//  2. Queueing under multi-core load: each bank and each channel data bus
//     is a resource with a free-at timestamp, so concurrent cores see
//     growing wait times — the mechanism behind Figure 6(a), where NDP
//     page-table-walk latency climbs from 242.85 cycles (1 core) to
//     551.83 cycles (8 cores) while the CPU's stays flat.
//
// Latencies are in core cycles (2.6 GHz, Table I).
package dram

import (
	"fmt"
	"math/bits"

	"ndpage/internal/access"
	"ndpage/internal/addr"
	"ndpage/internal/resource"
	"ndpage/internal/stats"
)

// Config describes one memory device (DDR4 or HBM2 stack partition).
type Config struct {
	Name     string
	Channels int    // power of two
	Banks    int    // per channel, power of two
	RowBytes uint64 // row-buffer size per bank, power of two
	RowHit   uint64 // cycles for an open-row access
	RowMiss  uint64 // cycles for a row activate + access
	Transfer uint64 // channel data-bus occupancy per 64 B line
}

// DDR4 returns the CPU-side DDR4-2400 configuration from Table I:
// dual-channel, 8 banks, timings in 2.6 GHz core cycles
// (tCL ~ 16 ns -> ~42 cycles; row miss ~ tRP+tRCD+tCL ~ 44 ns -> ~114).
func DDR4() Config {
	return Config{
		Name:     "DDR4-2400",
		Channels: 2,
		Banks:    8,
		RowBytes: 8 << 10,
		RowHit:   42,
		RowMiss:  114,
		Transfer: 14, // 64 B over a 64-bit 2400 MT/s channel ~ 5.3 ns
	}
}

// HBM2 returns the NDP-side HBM2 configuration. Logic-layer cores reach
// the vaults of their own stack partition: two pseudo-channels with eight
// banks each are visible to the simulated core cluster, with a wide bus
// (low transfer occupancy) but DRAM-class device timings — HBM's
// advantage for NDP is proximity and bandwidth per pin, not latency.
// The narrow channel partition is what lets concurrent page-table-walk
// storms queue up at 4 and 8 cores (Figure 6a).
func HBM2() Config {
	return Config{
		Name:     "HBM2",
		Channels: 2,
		Banks:    8,
		RowBytes: 2 << 10,
		RowHit:   42,
		RowMiss:  110,
		Transfer: 4, // 64 B over a 128-bit 2.4 GT/s pseudo-channel
	}
}

// Stats aggregates device activity.
type Stats struct {
	PerClass  [access.NumClasses]stats.Counter // accesses by class
	RowHits   stats.Counter
	RowMisses stats.Counter
	// QueueCycles accumulates time spent waiting for a busy bank or bus;
	// QueueMean reports it per access.
	QueueCycles stats.Counter
	// ServiceCycles accumulates total latency (completion - arrival).
	ServiceCycles stats.Counter
	Accesses      stats.Counter
}

// MeanLatency returns the average access latency in cycles.
func (s *Stats) MeanLatency() float64 {
	return stats.Ratio(s.ServiceCycles.Value(), s.Accesses.Value())
}

// MeanQueue returns the average queueing delay in cycles.
func (s *Stats) MeanQueue() float64 {
	return stats.Ratio(s.QueueCycles.Value(), s.Accesses.Value())
}

type bank struct {
	slots   resource.Slots
	openRow uint64
	hasOpen bool
}

// Memory is one memory device shared by all cores of a system.
// Not safe for concurrent use.
type Memory struct {
	cfg      Config
	banks    []bank
	buses    []resource.Slots // per channel
	chanMask uint64
	bankMask uint64
	chanBits uint
	bankBits uint
	colBits  uint
	stats    Stats
}

// New builds a memory device from cfg.
func New(cfg Config) *Memory {
	if cfg.Channels <= 0 || cfg.Channels&(cfg.Channels-1) != 0 {
		panic(fmt.Sprintf("dram %q: channels must be a positive power of two", cfg.Name))
	}
	if cfg.Banks <= 0 || cfg.Banks&(cfg.Banks-1) != 0 {
		panic(fmt.Sprintf("dram %q: banks must be a positive power of two", cfg.Name))
	}
	if cfg.RowBytes < addr.LineSize || cfg.RowBytes&(cfg.RowBytes-1) != 0 {
		panic(fmt.Sprintf("dram %q: invalid row size %d", cfg.Name, cfg.RowBytes))
	}
	return &Memory{
		cfg:      cfg,
		banks:    make([]bank, cfg.Channels*cfg.Banks),
		buses:    make([]resource.Slots, cfg.Channels),
		chanMask: uint64(cfg.Channels - 1),
		bankMask: uint64(cfg.Banks - 1),
		chanBits: uint(bits.TrailingZeros(uint(cfg.Channels))),
		bankBits: uint(bits.TrailingZeros(uint(cfg.Banks))),
		colBits:  uint(bits.TrailingZeros(uint(cfg.RowBytes / addr.LineSize))),
	}
}

// Config returns the device configuration.
func (m *Memory) Config() Config { return m.cfg }

// Stats returns the live counters.
func (m *Memory) Stats() *Stats { return &m.stats }

// route decomposes a physical address into channel, bank index (global),
// and row, using line-interleaved channel mapping.
func (m *Memory) route(pa addr.P) (ch uint64, bankIdx uint64, row uint64) {
	x := pa.Line()
	ch = x & m.chanMask
	x >>= m.chanBits
	b := x & m.bankMask
	x >>= m.bankBits
	row = x >> m.colBits
	return ch, ch*uint64(m.cfg.Banks) + b, row
}

// Access performs one 64 B access arriving at time `now` and returns its
// absolute completion time. op is currently immaterial to timing (reads
// and writes occupy the bank identically in this model) but is kept for
// symmetry and future write-queue modelling.
//
// Requests may arrive out of order in wall time (the blocking-core engine
// advances one core's chain before stepping the next): banks and buses
// are busy-interval trackers, so an earlier-timestamped request overlaps
// the way the hardware would, instead of queueing behind a future chain.
func (m *Memory) Access(now uint64, pa addr.P, op access.Op, class access.Class) uint64 {
	ch, bi, row := m.route(pa)
	b := &m.banks[bi]

	service := m.cfg.RowMiss
	if b.hasOpen && b.openRow == row {
		service = m.cfg.RowHit
		m.stats.RowHits.Inc()
	} else {
		m.stats.RowMisses.Inc()
	}
	b.hasOpen = true
	b.openRow = row

	start := b.slots.Reserve(now, service)
	dataReady := start + service
	busStart := m.buses[ch].Reserve(dataReady, m.cfg.Transfer)
	done := busStart + m.cfg.Transfer

	m.stats.Accesses.Inc()
	m.stats.PerClass[class].Inc()
	m.stats.QueueCycles.Add((start - now) + (busStart - dataReady))
	m.stats.ServiceCycles.Add(done - now)
	return done
}
