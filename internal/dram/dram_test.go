package dram

import (
	"testing"

	"ndpage/internal/access"
	"ndpage/internal/addr"
	"ndpage/internal/xrand"
)

func testCfg() Config {
	return Config{
		Name:     "test",
		Channels: 2,
		Banks:    2,
		RowBytes: 1 << 10,
		RowHit:   40,
		RowMiss:  110,
		Transfer: 8,
	}
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Channels: 0, Banks: 2, RowBytes: 1024},
		{Channels: 3, Banks: 2, RowBytes: 1024},
		{Channels: 2, Banks: 0, RowBytes: 1024},
		{Channels: 2, Banks: 2, RowBytes: 100},
		{Channels: 2, Banks: 2, RowBytes: 32},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New(%+v) did not panic", i, cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestUncontendedLatency(t *testing.T) {
	m := New(testCfg())
	done := m.Access(1000, addr.P(0), access.Read, access.Data)
	// Cold access: row miss + transfer.
	if want := uint64(1000 + 110 + 8); done != want {
		t.Errorf("cold access done = %d, want %d", done, want)
	}
	if m.Stats().RowMisses != 1 {
		t.Error("cold access must be a row miss")
	}
}

func TestRowBufferHit(t *testing.T) {
	m := New(testCfg())
	end1 := m.Access(0, addr.P(0), access.Read, access.Data)
	// Same row (same bank, adjacent column): channel interleaving means
	// addr 0 and addr 64 are on different channels; stride by
	// lines*channels to stay in the same bank and row.
	sameRow := addr.P(uint64(addr.LineSize) * uint64(testCfg().Channels) * uint64(testCfg().Banks))
	done := m.Access(end1, sameRow, access.Read, access.Data)
	if lat := done - end1; lat != 40+8 {
		t.Errorf("row-hit latency = %d, want 48", lat)
	}
	if m.Stats().RowHits != 1 {
		t.Errorf("RowHits = %d, want 1", m.Stats().RowHits.Value())
	}
}

func TestRowConflict(t *testing.T) {
	m := New(testCfg())
	cfg := testCfg()
	end1 := m.Access(0, addr.P(0), access.Read, access.Data)
	// Same bank, different row: offset by a full row span of that bank.
	rowSpan := cfg.RowBytes * uint64(cfg.Channels) * uint64(cfg.Banks)
	done := m.Access(end1, addr.P(rowSpan), access.Read, access.Data)
	if lat := done - end1; lat != 110+8 {
		t.Errorf("row-conflict latency = %d, want 118", lat)
	}
}

func TestBankQueueing(t *testing.T) {
	m := New(testCfg())
	// Two simultaneous requests to the same bank: the second waits.
	d1 := m.Access(0, addr.P(0), access.Read, access.Data)
	cfg := testCfg()
	rowSpan := cfg.RowBytes * uint64(cfg.Channels) * uint64(cfg.Banks)
	d2 := m.Access(0, addr.P(rowSpan), access.Read, access.Data)
	if d2 <= d1 {
		t.Errorf("second request to busy bank finished at %d, first at %d", d2, d1)
	}
	if m.Stats().MeanQueue() == 0 {
		t.Error("queueing not recorded")
	}
}

func TestChannelParallelism(t *testing.T) {
	m := New(testCfg())
	// Lines 0 and 1 map to different channels: both complete with no
	// queueing when issued at the same instant.
	d1 := m.Access(0, addr.P(0), access.Read, access.Data)
	d2 := m.Access(0, addr.P(addr.LineSize), access.Read, access.Data)
	if d1 != d2 {
		t.Errorf("parallel channels should give equal completion: %d vs %d", d1, d2)
	}
	if q := m.Stats().QueueCycles.Value(); q != 0 {
		t.Errorf("cross-channel accesses queued %d cycles", q)
	}
}

func TestBusSerializationWithinChannel(t *testing.T) {
	cfg := testCfg()
	m := New(cfg)
	// Same channel, different banks, same instant: banks overlap their
	// service but the shared data bus serializes the transfers.
	lineStride := uint64(addr.LineSize) * uint64(cfg.Channels) // next bank, same channel
	d1 := m.Access(0, addr.P(0), access.Read, access.Data)
	d2 := m.Access(0, addr.P(lineStride), access.Read, access.Data)
	if d2 != d1+cfg.Transfer {
		t.Errorf("bus serialization: d1=%d d2=%d, want d2 = d1+%d", d1, d2, cfg.Transfer)
	}
}

func TestPerClassCounting(t *testing.T) {
	m := New(testCfg())
	m.Access(0, addr.P(0), access.Read, access.Data)
	m.Access(0, addr.P(64), access.Read, access.PTE)
	m.Access(0, addr.P(128), access.Read, access.PTE)
	s := m.Stats()
	if s.PerClass[access.Data].Value() != 1 || s.PerClass[access.PTE].Value() != 2 {
		t.Errorf("per-class = %v", s.PerClass)
	}
	if s.Accesses.Value() != 3 {
		t.Errorf("Accesses = %d", s.Accesses.Value())
	}
	if s.MeanLatency() <= 0 {
		t.Error("MeanLatency not recorded")
	}
}

// TestLoadLatencyGrowth is the Fig 6(a) mechanism in miniature: mean
// latency under 8 concurrent random-access streams must exceed mean
// latency under 1 stream.
func TestLoadLatencyGrowth(t *testing.T) {
	latencyUnderLoad := func(streams int) float64 {
		m := New(HBM2())
		rng := xrand.New(99)
		clocks := make([]uint64, streams)
		for i := 0; i < 20000; i++ {
			// Advance the earliest stream, issuing a random access.
			c := 0
			for j := 1; j < streams; j++ {
				if clocks[j] < clocks[c] {
					c = j
				}
			}
			pa := addr.P(rng.Uint64n(1 << 30))
			done := m.Access(clocks[c], pa, access.Read, access.Data)
			clocks[c] = done + 20 // small compute gap
		}
		return m.Stats().MeanLatency()
	}
	l1 := latencyUnderLoad(1)
	l8 := latencyUnderLoad(8)
	if l8 <= l1*1.05 {
		t.Errorf("no queueing growth: 1-stream %.1f vs 8-stream %.1f cycles", l1, l8)
	}
}

func TestPresetConfigs(t *testing.T) {
	for _, cfg := range []Config{DDR4(), HBM2()} {
		m := New(cfg) // must not panic
		if m.Config().Name == "" {
			t.Error("preset missing name")
		}
		if cfg.RowMiss <= cfg.RowHit {
			t.Errorf("%s: row miss (%d) must cost more than row hit (%d)",
				cfg.Name, cfg.RowMiss, cfg.RowHit)
		}
	}
	if DDR4().Transfer <= HBM2().Transfer {
		t.Error("HBM2 must have lower transfer occupancy than DDR4 (wider bus)")
	}
}

func BenchmarkDRAMAccess(b *testing.B) {
	m := New(HBM2())
	rng := xrand.New(3)
	now := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = m.Access(now, addr.P(rng.Uint64n(1<<30)), access.Read, access.Data)
	}
}
