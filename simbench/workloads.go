package main

import (
	"fmt"
	"sort"

	"ndpage/internal/access"
	"ndpage/internal/addr"
	"ndpage/internal/core"
	"ndpage/internal/memsys"
	"ndpage/internal/sim"
)

// workloadDef is one named benchmark workload: either a single
// simulation (cfg) or the mechanism-zoo sweep over zooApps.
type workloadDef struct {
	name string
	cfg  sim.Config
	// zooApps, when set, makes the workload the MechanismComparison +
	// Ablation sweep over these Table II applications.
	zooApps []string
}

// Zoo-sweep budgets: per-core ops after and before the statistics reset.
const (
	zooInstructions = 150_000
	zooWarmup       = 20_000
)

var workloads = []workloadDef{
	{name: "ndpage-bfs", cfg: sim.Config{
		System: memsys.NDP, Cores: 4, Mechanism: core.NDPage, Workload: "bfs",
	}},
	{name: "radix-gups", cfg: sim.Config{
		System: memsys.NDP, Cores: 4, Mechanism: core.Radix, Workload: "rnd",
	}},
	{name: "mlp-pr", cfg: sim.Config{
		System: memsys.NDP, Cores: 4, Mechanism: core.Radix, Workload: "pr",
		MLP: 4, SharedWalker: true, WalkerWidth: 2,
	}},
	{name: "zoo-sweep", zooApps: []string{"pr", "rnd", "gen"}},
}

func lookupWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// seeded returns the workload's configuration with the benchmark seed
// and the simulator's defaults resolved. Seed 0 resolves to the
// simulator's default seed.
func (w workloadDef) seeded(seed uint64) sim.Config {
	cfg := w.cfg
	cfg.Seed = seed
	return cfg.Normalize()
}

// ops is the number of simulated ops a configuration executes: every
// core's warmup and measured budget.
func ops(cfg sim.Config) uint64 {
	cfg = cfg.Normalize()
	return uint64(cfg.Cores) * (cfg.Warmup + cfg.Instructions)
}

// Digest is the exact simulated outcome of one run. A speed-only change
// to the simulator must leave it identical.
type Digest struct {
	Cycles       uint64
	TotalCycles  uint64
	Instructions uint64
	Loads        uint64
	Stores       uint64
	Walks        uint64
	PTEAccesses  uint64
	MSHRHits     uint64
	DRAM         [access.NumClasses]uint64
	Faults4K     uint64
	Faults2M     uint64
}

func digestOf(r *sim.Result) Digest {
	return Digest{
		Cycles:       r.Cycles,
		TotalCycles:  r.TotalCycles,
		Instructions: r.Instructions,
		Loads:        r.Loads,
		Stores:       r.Stores,
		Walks:        r.Walks,
		PTEAccesses:  r.PTEAccesses,
		MSHRHits:     r.MSHRHits,
		DRAM:         r.DRAM,
		Faults4K:     r.Faults4K,
		Faults2M:     r.Faults2M,
	}
}

// simCounts are the exact simulated per-layer counts reported by a
// traced run, summed over every machine it simulated.
type simCounts struct {
	cycles, totalCycles, instructions, loads, stores uint64
	translationCycles                                uint64
	walks, walkCycles, pteAccesses, mshrHits         uint64
	queueCycles                                      uint64
	l1tlbTotal                                       uint64
	pl2Hits, pl2Total                                uint64
	l1dMisses, l1dTotal                              uint64
	dramLatencySum, dramReads                        float64
	dramPTE                                          uint64
	faults                                           uint64
	inFlightSum, inFlightIssues                      uint64
}

func (s *simCounts) add(r *sim.Result) {
	s.cycles += r.Cycles
	s.totalCycles += r.TotalCycles
	s.instructions += r.Instructions
	s.loads += r.Loads
	s.stores += r.Stores
	s.translationCycles += r.TranslationCycles
	s.walks += r.Walks
	s.walkCycles += r.WalkCycles
	s.pteAccesses += r.PTEAccesses
	s.mshrHits += r.MSHRHits
	s.queueCycles += r.WalkQueueCycles
	s.l1tlbTotal += r.L1TLB.Total()
	if hm, ok := r.PWC[addr.PL2]; ok {
		s.pl2Hits += hm.Hits.Value()
		s.pl2Total += hm.Total()
	}
	s.l1dMisses += r.L1Data.Misses.Value()
	s.l1dTotal += r.L1Data.Total()
	var dramAll uint64
	for _, n := range r.DRAM {
		dramAll += n
	}
	s.dramLatencySum += r.DRAMMeanLatency * float64(dramAll)
	s.dramReads += float64(dramAll)
	s.dramPTE += r.DRAM[access.PTE]
	s.faults += r.Faults4K + r.Faults2M
	for k, n := range r.InFlightHist {
		s.inFlightSum += uint64(k) * n
		s.inFlightIssues += n
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics renders the counts under their per-layer names.
func (s *simCounts) metrics(out metricSet) {
	out.add("sim.cycles", float64(s.cycles), "cycles")
	out.add("sim.cpi", ratio(float64(s.totalCycles), float64(s.instructions)), "cycles/instr")
	out.add("core.tlb_miss_rate", ratio(float64(s.walks), float64(s.l1tlbTotal)), "ratio")
	out.add("core.xlat_cycles_per_op", ratio(float64(s.translationCycles), float64(s.loads+s.stores)), "cycles/op")
	out.add("walker.walks", float64(s.walks), "count")
	out.add("walker.pte_accesses", float64(s.pteAccesses), "count")
	out.add("walker.mean_walk_cycles", ratio(float64(s.walkCycles), float64(s.walks)), "cycles")
	out.add("walker.queue_cycles_per_walk", ratio(float64(s.queueCycles), float64(s.walks)), "cycles")
	out.add("walker.mshr_hit_rate", ratio(float64(s.mshrHits), float64(s.mshrHits+s.walks)), "ratio")
	out.add("pwc.pl2_hit_rate", ratio(float64(s.pl2Hits), float64(s.pl2Total)), "ratio")
	out.add("memsys.l1d_miss_rate", ratio(float64(s.l1dMisses), float64(s.l1dTotal)), "ratio")
	out.add("dram.mean_latency_cycles", ratio(s.dramLatencySum, s.dramReads), "cycles")
	out.add("dram.pte_reads", float64(s.dramPTE), "count")
	out.add("osmm.faults", float64(s.faults), "count")
	out.add("core.mean_in_flight", ratio(float64(s.inFlightSum), float64(s.inFlightIssues)), "ops")
}

// metricSet collects named metrics for the result line.
type metricSet map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metricSet) add(name string, v float64, unit string) { m[name] = metric{v, unit} }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
