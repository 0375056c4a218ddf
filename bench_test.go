package ndpage_test

// Benchmark harness: one benchmark per paper table/figure (DESIGN.md
// Section 4). Each benchmark regenerates its figure at a reduced scale
// (subset of workloads, smaller windows) and reports the figure's
// headline quantity via b.ReportMetric, so `go test -bench .` both
// exercises the full pipeline and prints the reproduction's key numbers.
// Every benchmark also reports allocations (b.ReportAllocs): the
// simulator's per-instruction path is allocation-free in steady state,
// and the allocation tests beside the benchmarks hold it there.
// Full-scale tables come from `go run ./cmd/ndpexp`.

import (
	"context"
	"runtime"
	"strconv"
	"testing"

	"ndpage"
	"ndpage/internal/engine"
)

// benchExperiments returns a reduced-scale experiment runner. Three
// workloads cover the three pattern classes: uniform random (rnd), graph
// gather (pr), hot/cold hashing with growth (gen).
func benchExperiments() *ndpage.Experiments {
	return &ndpage.Experiments{
		Instructions: 40_000,
		Warmup:       8_000,
		Footprint:    1 << 30,
		Workloads:    []string{"rnd", "pr", "gen"},
	}
}

// benchTable fails the benchmark on a simulation error and returns the
// table otherwise.
func benchTable(b *testing.B, f func() (*ndpage.Table, error)) *ndpage.Table {
	b.Helper()
	t, err := f()
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// cellAt parses the numeric cell at (row, col) of a table. Cells may
// carry a % or x suffix.
func cellAt(b *testing.B, t *ndpage.Table, row, col int) float64 {
	b.Helper()
	s := t.Rows[row][col]
	for len(s) > 0 && (s[len(s)-1] == '%' || s[len(s)-1] == 'x') {
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell %q: %v", t.Rows[row][col], err)
	}
	return v
}

// lastCell parses the numeric cell at the given column of a table's last
// (summary) row.
func lastCell(b *testing.B, t *ndpage.Table, col int) float64 {
	b.Helper()
	return cellAt(b, t, len(t.Rows)-1, col)
}

func BenchmarkFig04_PTWLatency(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := benchTable(b, benchExperiments().Fig4)
		b.ReportMetric(lastCell(b, t, 1), "cpu-ptw-cycles")
		b.ReportMetric(lastCell(b, t, 2), "ndp-ptw-cycles")
	}
}

func BenchmarkFig05_TranslationOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := benchTable(b, benchExperiments().Fig5)
		b.ReportMetric(lastCell(b, t, 1), "cpu-xlat-pct")
		b.ReportMetric(lastCell(b, t, 2), "ndp-xlat-pct")
	}
}

func BenchmarkFig06_CoreScaling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := benchTable(b, benchExperiments().Fig6)
		// Last row is the 8-core row; column 2 is NDP PTW.
		b.ReportMetric(lastCell(b, t, 2), "ndp-ptw-8core")
	}
}

func BenchmarkFig07_CachePollution(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := benchTable(b, benchExperiments().Fig7)
		b.ReportMetric(lastCell(b, t, 1), "data-ideal-miss-pct")
		b.ReportMetric(lastCell(b, t, 2), "data-actual-miss-pct")
		b.ReportMetric(lastCell(b, t, 3), "metadata-miss-pct")
	}
}

func BenchmarkFig08_Occupancy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := benchTable(b, benchExperiments().Fig8)
		// Report the PL1 occupancy of the last workload row.
		b.ReportMetric(lastCell(b, t, 4), "pl1-occupancy-pct")
		b.ReportMetric(lastCell(b, t, 2), "pl3-occupancy-pct")
	}
}

func BenchmarkMotivation_SectionIVA(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := benchExperiments()
		// Motivation rows: TLB miss rate, PTE access share, NDP/CPU PTE
		// DRAM traffic ratio (Section IV-A's three scalars).
		t := benchTable(b, e.Motivation)
		b.ReportMetric(cellAt(b, t, 0, 1), "tlb-miss-pct")
		b.ReportMetric(cellAt(b, t, 1, 1), "pte-share-pct")
		b.ReportMetric(cellAt(b, t, 2, 1), "pte-dram-ratio")
		// PWCRates rows: PL4, PL3, PL2 hit rates (Section V-C).
		p := benchTable(b, e.PWCRates)
		b.ReportMetric(cellAt(b, p, 1, 1), "pwc-pl3-pct")
		b.ReportMetric(cellAt(b, p, 2, 1), "pwc-pl2-pct")
	}
}

func BenchmarkFig12_SingleCoreSpeedup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := benchTable(b, benchExperiments().Fig12)
		b.ReportMetric(lastCell(b, t, 1), "ech-speedup")
		b.ReportMetric(lastCell(b, t, 3), "ndpage-speedup")
	}
}

func BenchmarkFig13_QuadCoreSpeedup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := benchTable(b, benchExperiments().Fig13)
		b.ReportMetric(lastCell(b, t, 3), "ndpage-speedup")
	}
}

func BenchmarkFig14_OctaCoreSpeedup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := benchTable(b, benchExperiments().Fig14)
		b.ReportMetric(lastCell(b, t, 3), "ndpage-speedup")
		b.ReportMetric(lastCell(b, t, 2), "hugepage-speedup")
	}
}

func BenchmarkAblation_NDPageDecomposition(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := benchTable(b, benchExperiments().Ablation)
		b.ReportMetric(lastCell(b, t, 1), "bypass-only-speedup")
		b.ReportMetric(lastCell(b, t, 2), "flatten-only-speedup")
		b.ReportMetric(lastCell(b, t, 3), "ndpage-speedup")
	}
}

// tickActor is BenchmarkEngineStep's typed actor: every delivered event
// reschedules itself with a deterministic, actor-dependent stride until
// the budget is spent — the schedule+dispatch pattern the engine
// performs once per simulated instruction.
type tickActor struct {
	eng       *engine.Engine
	id        int
	remaining *int
}

func (a *tickActor) OnEvent(now uint64, kind uint8, payload uint64) {
	if *a.remaining <= 0 {
		return
	}
	*a.remaining--
	a.eng.Schedule(now+uint64(7+a.id%13), a.id, a, 0, 0)
}

// BenchmarkEngineStep measures the event queue itself: typed-event
// schedule+dispatch operations per second with a machine-sized actor
// population, the operation the engine performs once per simulated
// instruction (replacing the old O(cores) min-clock scan).
func BenchmarkEngineStep(b *testing.B) {
	b.ReportAllocs()
	const actors = 64
	eng := engine.New()
	remaining := b.N
	ticks := make([]tickActor, actors)
	for i := range ticks {
		ticks[i] = tickActor{eng: eng, id: i, remaining: &remaining}
	}
	b.ResetTimer()
	for i := range ticks {
		eng.Schedule(uint64(i), i, &ticks[i], 0, 0)
	}
	eng.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkRunSmall measures full small simulations per second (build +
// warmup + measure), the unit of work the exp Runner fans out; the
// sims/s metric is the number to watch across engine changes.
func BenchmarkRunSmall(b *testing.B) {
	b.ReportAllocs()
	cfg := ndpage.Config{
		System:         ndpage.NDP,
		Cores:          4,
		Mechanism:      ndpage.Radix,
		Workload:       "rnd",
		FootprintBytes: 128 << 20,
		MemoryBytes:    2 << 30,
		Warmup:         2_000,
		Instructions:   10_000,
		Seed:           7,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ndpage.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sims/s")
}

// throughputConfig is the default NDP/NDPage setup behind
// BenchmarkSimulatorThroughput and TestSimulatorThroughputAllocs.
var throughputConfig = ndpage.Config{
	System:         ndpage.NDP,
	Cores:          4,
	Mechanism:      ndpage.NDPage,
	Workload:       "bfs",
	FootprintBytes: 512 << 20,
	Warmup:         5_000,
	Instructions:   50_000,
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// instructions per wall-clock second for the default NDP/NDPage setup.
// Machine construction is inside the loop (each iteration is one full
// run), so allocs/op here is per-simulation; the per-instruction
// steady-state allocations are measured by
// internal/sim.BenchmarkStepThroughput.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		res, err := ndpage.Run(throughputConfig)
		if err != nil {
			b.Fatal(err)
		}
		instr += res.Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "sim-instr/s")
}

// simAllocBudget bounds the heap allocations of one whole
// throughputConfig simulation — construction, warmup and measurement.
// The measured path allocates nothing per instruction, so the count is
// set-up cost: tables, caches, workload state. It was ~750 when the
// budget was set.
const simAllocBudget = 1200

// TestSimulatorThroughputAllocs keeps BenchmarkSimulatorThroughput's
// per-simulation allocation count under simAllocBudget.
func TestSimulatorThroughputAllocs(t *testing.T) {
	var err error
	allocs := testing.AllocsPerRun(3, func() {
		if _, e := ndpage.Run(throughputConfig); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > simAllocBudget {
		t.Errorf("one simulation allocates %.0f times, budget %d", allocs, simAllocBudget)
	}
	t.Logf("%.0f allocations per simulation (budget %d)", allocs, simAllocBudget)
}

// sweepReplications builds a figure-style replication sweep: the same
// small configuration under distinct seeds, so every run is a genuine
// simulation (no dedupe) of equal weight.
func sweepReplications(n int) []ndpage.Config {
	cfgs := make([]ndpage.Config, n)
	for i := range cfgs {
		cfgs[i] = ndpage.Config{
			System:         ndpage.NDP,
			Cores:          4,
			Mechanism:      ndpage.NDPage,
			Workload:       "rnd",
			FootprintBytes: 128 << 20,
			MemoryBytes:    2 << 30,
			Warmup:         2_000,
			Instructions:   10_000,
			Seed:           uint64(i + 1),
		}
	}
	return cfgs
}

// benchSweep runs one replication sweep per iteration through run (a
// fresh Runner each time, so the store never short-circuits the work)
// and reports aggregate simulated instructions per second — the number
// parallel workers are meant to scale with cores.
func benchSweep(b *testing.B, run func(cfgs []ndpage.Config) ([]*ndpage.Result, error)) {
	b.ReportAllocs()
	cfgs := sweepReplications(8)
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		out, err := run(cfgs)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range out {
			instr += res.Instructions
		}
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "sweep-instr/s")
}

// BenchmarkSweepSerial is the scaling baseline: the same replication
// sweep on a single worker.
func BenchmarkSweepSerial(b *testing.B) {
	benchSweep(b, func(cfgs []ndpage.Config) ([]*ndpage.Result, error) {
		r := &ndpage.Sweep{Parallel: 1}
		return r.Run(context.Background(), cfgs)
	})
}

// BenchmarkSweepParallel measures the sweep worker pool at one worker
// per CPU. The sweep-instr/s ratio against BenchmarkSweepSerial is the
// multicore scaling (only meaningful when GOMAXPROCS > 1; a single-CPU
// machine runs the workers sequentially).
func BenchmarkSweepParallel(b *testing.B) {
	benchSweep(b, func(cfgs []ndpage.Config) ([]*ndpage.Result, error) {
		r := &ndpage.Sweep{Parallel: runtime.GOMAXPROCS(0)}
		return r.Run(context.Background(), cfgs)
	})
}

func BenchmarkSensitivity_Oversubscription(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := &ndpage.Experiments{
			Instructions: 20_000,
			Warmup:       4_000,
			Footprint:    512 << 20,
		}
		t := benchTable(b, e.OversubscriptionStudy)
		b.ReportMetric(lastCell(b, t, 3), "ndpage-oversub-slowdown")
	}
}
