package sim

import (
	"runtime"
	"testing"

	"ndpage/internal/core"
	"ndpage/internal/memsys"
)

// stepConfig is the machine BenchmarkStepThroughput and
// TestStepAllocs advance: four NDP cores on pr under mech, with the
// non-blocking core model when mlp > 1 (then on a shared width-2
// walker, so walks contend for slots on the event schedule).
func stepConfig(mech core.Mechanism, mlp int) Config {
	cfg := Config{
		System:         memsys.NDP,
		Cores:          4,
		Mechanism:      mech,
		Workload:       "pr",
		FootprintBytes: 512 << 20,
		MemoryBytes:    4 << 30,
		FragHoles:      200,
		Warmup:         1,
		Instructions:   1,
		MLP:            mlp,
	}
	if mlp > 1 {
		cfg.SharedWalker = true
		cfg.WalkerWidth = 2
	}
	return cfg
}

// stepper builds cfg's machine, settles its initialization, and returns
// a step that advances every core by one instruction.
func stepper(tb testing.TB, cfg Config) (m *Machine, step func()) {
	tb.Helper()
	m, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	m.run(1) // settle init
	target := uint64(1)
	return m, func() {
		target++
		m.run(target)
	}
}

// BenchmarkStepThroughput measures raw engine speed in simulated
// instructions per second for each mechanism (the simulator's own
// performance, not the simulated machine's). Each iteration advances
// every core by one instruction, so ns/op is per Cores instructions,
// and allocs/op is the steady-state measured-instruction-path
// allocation count, which TestStepAllocs bounds.
func BenchmarkStepThroughput(b *testing.B) {
	for _, mech := range core.Mechanisms {
		b.Run(mech.String(), func(b *testing.B) {
			benchSteps(b, stepConfig(mech, 1))
		})
	}
}

// BenchmarkStepThroughputMLP is the non-blocking variant: typed
// translation/completion events, pooled in-flight op records, and
// walker slot contention on the event schedule. Its allocs/op pins the
// zero-allocation property of the MLP > 1 path, which used to allocate
// several closures per instruction.
func BenchmarkStepThroughputMLP(b *testing.B) {
	benchSteps(b, stepConfig(core.Radix, 4))
}

func benchSteps(b *testing.B, cfg Config) {
	b.ReportAllocs()
	m, step := stepper(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(len(m.cores)), "cores")
}

// stepAllocBudget bounds the heap allocations of one steady-state step
// (one instruction on each of four cores). The path is designed to
// allocate nothing; the budget leaves room for amortized growth of
// pooled records.
const stepAllocBudget = 2

// TestStepAllocs keeps BenchmarkStepThroughput's and
// BenchmarkStepThroughputMLP's steady-state allocations per step under
// stepAllocBudget, for every mechanism and for the MLP core model.
func TestStepAllocs(t *testing.T) {
	cfgs := map[string]Config{"MLP": stepConfig(core.Radix, 4)}
	for _, mech := range core.Mechanisms {
		cfgs[mech.String()] = stepConfig(mech, 1)
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			_, step := stepper(t, cfg)
			if allocs := testing.AllocsPerRun(2000, step); allocs > stepAllocBudget {
				t.Errorf("%.2f allocations per step, budget %d", allocs, stepAllocBudget)
			}
		})
	}
}

// constructionConfigs are the machines BenchmarkMachineConstruction
// builds: 4 NDP cores at the default footprint and memory, the shape
// zoo-sweep builds, one per set-up cost. Radix/rnd is the allocator
// and the radix build, NDPage/bfs the flattened build, ECH/pr the
// cuckoo bulk build over two eager regions.
var constructionConfigs = []Config{
	{System: memsys.NDP, Cores: 4, Mechanism: core.Radix, Workload: "rnd"},
	{System: memsys.NDP, Cores: 4, Mechanism: core.NDPage, Workload: "bfs"},
	{System: memsys.NDP, Cores: 4, Mechanism: core.ECH, Workload: "pr"},
}

// BenchmarkMachineConstruction measures New (allocator, fragmentation,
// dataset population, table build) for each of constructionConfigs.
func BenchmarkMachineConstruction(b *testing.B) {
	for _, cfg := range constructionConfigs {
		b.Run(cfg.Mechanism.String()+"/"+cfg.Workload, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// liveHeapMB returns the host heap, in MB, that cfg's machine keeps
// live once New has built it.
func liveHeapMB(t *testing.T, cfg Config) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	return float64(after.HeapAlloc-before.HeapAlloc) / (1 << 20)
}

// TestECHLiveHeap bounds the host heap a 4-core ECH machine on pr at
// the default footprint keeps live once built, to 36 MB. Its cuckoo
// ways' 4-byte tags are most of it; with 8-byte tags it kept 51.5 MB.
func TestECHLiveHeap(t *testing.T) {
	if live := liveHeapMB(t, constructionConfigs[2]); live > 36 {
		t.Errorf("ECH/pr machine holds %.1f MB of live heap after New, want <= 36", live)
	}
}

// TestMachineLiveHeap bounds the live host heap after New for the
// 4-core Radix/rnd and NDPage/bfs machines, at 10% over what they kept
// while the buddy allocator held its free and allocated sets in Go maps
// (2.0 and 3.05 MB; the bitmap allocator keeps 1.5 and 2.7). Its state
// must grow with the 2 MB blocks that have been split: one bitmap per
// order over all frames would add ~1 MB.
func TestMachineLiveHeap(t *testing.T) {
	for i, bound := range []float64{2.2, 3.35} {
		cfg := constructionConfigs[i]
		if live := liveHeapMB(t, cfg); live > bound {
			t.Errorf("%s/%s machine holds %.2f MB of live heap after New, want <= %.2f", cfg.Mechanism, cfg.Workload, live, bound)
		}
	}
}
