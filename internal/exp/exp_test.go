package exp

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"ndpage/internal/core"
	"ndpage/internal/memsys"
	"ndpage/internal/sim"
	"ndpage/internal/stats"
	"ndpage/internal/sweep"
)

// quickRunner keeps experiment tests fast: tiny windows, two workloads,
// small footprint.
func quickRunner() *Runner {
	return &Runner{
		Instructions: 12_000,
		Warmup:       3_000,
		Footprint:    256 << 20,
		Workloads:    []string{"rnd", "pr"},
	}
}

// table runs one figure method and fails the test on error.
func table(t *testing.T, f func() (*stats.Table, error)) *stats.Table {
	t.Helper()
	tab, err := f()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestRunPropagatesErrors(t *testing.T) {
	r := quickRunner()
	plan := sweep.Plan{Base: r.matrix(memsys.NDP, core.Radix, 1, "no-such-workload")}
	if _, err := r.run(plan); err == nil {
		t.Fatal("run accepted an unknown workload")
	}
	if _, err := r.run(plan); err == nil {
		t.Fatal("repeated run lost the error")
	}
	r.Workloads = []string{"no-such-workload"}
	if _, err := r.Fig4(); err == nil {
		t.Fatal("Fig4 swallowed the error")
	}
}

// TestAtPanicsOutsidePlan: a figure reading a cell its plan did not run
// is a bug in the figure, reported with the cell's description.
func TestAtPanicsOutsidePlan(t *testing.T) {
	r := quickRunner()
	c, err := r.run(sweep.Plan{Base: r.matrix(memsys.NDP, core.Radix, 1, "rnd")})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "cpu/Radix/1c/rnd") {
			t.Errorf("panic %q does not name the missing cell", msg)
		}
	}()
	c.at(r.matrix(memsys.CPU, core.Radix, 1, "rnd"))
}

func TestPrefetchParallelMatchesSequential(t *testing.T) {
	seq := quickRunner()
	seq.Parallel = 1
	c1 := seq.matrix(memsys.NDP, core.Radix, 1, "rnd")
	c2 := seq.matrix(memsys.NDP, core.NDPage, 1, "rnd")
	var a []*sim.Result
	for _, cfg := range []sim.Config{c1, c2} {
		c, err := seq.run(sweep.Plan{Base: cfg})
		if err != nil {
			t.Fatal(err)
		}
		a = append(a, c.at(cfg))
	}

	par := quickRunner()
	par.Parallel = 2
	plan := sweep.Plan{
		Base:       par.base(),
		Systems:    []memsys.Kind{memsys.NDP},
		Mechanisms: []core.Mechanism{core.Radix, core.NDPage, core.Radix}, // duplicate must be deduplicated
		Cores:      []int{1},
		Workloads:  []string{"rnd"},
	}
	c, err := par.run(plan)
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := c.at(c1), c.at(c2)
	if a[0].Cycles != b1.Cycles || a[1].Cycles != b2.Cycles {
		t.Errorf("parallel run changed results: %d/%d vs %d/%d",
			a[0].Cycles, a[1].Cycles, b1.Cycles, b2.Cycles)
	}
}

// countingStore wraps a Store and counts writes: each Put is one
// simulation that actually ran.
type countingStore struct {
	sweep.Store
	puts atomic.Int64
}

func (s *countingStore) Put(key string, res *sim.Result) error {
	s.puts.Add(1)
	return s.Store.Put(key, res)
}

// TestFiguresShareRuns: Figure 4 and Figure 5 read the same matrix; the
// second figure must perform zero new simulations.
func TestFiguresShareRuns(t *testing.T) {
	store := &countingStore{Store: sweep.NewMemStore()}
	r := quickRunner()
	r.Cache = store
	if _, err := r.Fig4(); err != nil {
		t.Fatal(err)
	}
	after4 := store.puts.Load()
	if after4 == 0 {
		t.Fatal("Fig4 simulated nothing")
	}
	if _, err := r.Fig5(); err != nil {
		t.Fatal(err)
	}
	if store.puts.Load() != after4 {
		t.Errorf("Fig5 re-simulated: %d puts after Fig4, %d after Fig5",
			after4, store.puts.Load())
	}
}

// TestPersistentStoreSkipsSimulations: a second Runner over the same
// store regenerates a figure without running anything — the cached
// figure regeneration path ndpexp -cache uses.
func TestPersistentStoreSkipsSimulations(t *testing.T) {
	mem := sweep.NewMemStore()
	first := quickRunner()
	first.Cache = mem
	tab1, err := first.Fig4()
	if err != nil {
		t.Fatal(err)
	}

	store := &countingStore{Store: mem}
	second := quickRunner()
	second.Cache = store
	tab2, err := second.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if store.puts.Load() != 0 {
		t.Errorf("warm regeneration simulated %d runs, want 0", store.puts.Load())
	}
	if tab1.String() != tab2.String() {
		t.Errorf("cached regeneration changed the table:\n%s\nvs\n%s", tab1, tab2)
	}
}

// TestWarmDirStoreServesFigures: a fresh Runner over a cache directory
// a cold pass filled regenerates Figures 4 and 5 from disk alone — no
// simulation, one "cached" progress line per key, identical tables.
func TestWarmDirStoreServesFigures(t *testing.T) {
	dir := t.TempDir()
	coldStore, err := sweep.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := quickRunner()
	cold.Cache = coldStore
	cold4 := table(t, cold.Fig4)
	cold5 := table(t, cold.Fig5)

	warmStore, err := sweep.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store := &countingStore{Store: warmStore}
	var log strings.Builder
	warm := quickRunner()
	warm.Cache = store
	warm.Progress = &log
	warm4 := table(t, warm.Fig4)
	warm5 := table(t, warm.Fig5)

	if n := store.puts.Load(); n != 0 {
		t.Errorf("warm pass stored %d results, want 0", n)
	}
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	seen := map[string]bool{}
	for _, line := range lines {
		if !strings.HasPrefix(line, "cached ") || seen[line] {
			t.Errorf("warm progress line %q: want one cached line per key", line)
		}
		seen[line] = true
	}
	if want := 2 * len(warm.WorkloadNames()); len(lines) != want { // CPU and NDP per workload
		t.Errorf("warm pass announced %d runs, want %d:\n%s", len(lines), want, log.String())
	}
	if warm4.String() != cold4.String() || warm5.String() != cold5.String() {
		t.Errorf("warm tables differ from the cold pass:\n%s%s\nvs\n%s%s", warm4, warm5, cold4, cold5)
	}
}

// TestProgressReportsFailures: every sweep event renders a line —
// including failures, which the old Runner completed silently on.
func TestProgressReportsFailures(t *testing.T) {
	var buf strings.Builder
	r := quickRunner()
	cfg := r.matrix(memsys.NDP, core.Radix, 4, "rnd").Normalize()
	progress(&buf, sweep.Event{Config: cfg, Err: fmt.Errorf("walker exploded")})
	progress(&buf, sweep.Event{Config: cfg, Cycles: 2_000_000})
	progress(&buf, sweep.Event{Config: cfg, Cached: true, Cycles: 2_000_000})
	out := buf.String()
	for _, want := range []string{"fail ", "walker exploded", "done ", "cached ", "ndp/Radix/4c/rnd"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
}

func TestFig4ShowsNDPPenalty(t *testing.T) {
	tab := table(t, quickRunner().Fig4)
	if len(tab.Rows) != 3 { // 2 workloads + mean
		t.Fatalf("Fig4 rows = %d", len(tab.Rows))
	}
	if !strings.Contains(tab.String(), "paper") {
		t.Error("missing paper comparison note")
	}
}

func TestFig6CoversCoreCounts(t *testing.T) {
	r := quickRunner()
	tab := table(t, r.Fig6)
	if len(tab.Rows) != 3 {
		t.Fatalf("Fig6 rows = %d, want 3 core counts", len(tab.Rows))
	}
	if tab.Rows[0][0] != "1" || tab.Rows[2][0] != "8" {
		t.Errorf("core counts wrong: %v", tab.Rows)
	}
}

func TestFig12SpeedupsSane(t *testing.T) {
	r := quickRunner()
	tab := table(t, r.Fig12)
	// geomean row: Ideal column must show the largest speedup and all
	// speedups must be positive.
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "geomean" {
		t.Fatalf("last row = %v", last)
	}
	var vals []float64
	for _, cell := range last[1:] {
		var v float64
		if _, err := sscan(cell, &v); err != nil {
			t.Fatalf("bad cell %q", cell)
		}
		if v <= 0 {
			t.Fatalf("non-positive speedup %v", v)
		}
		vals = append(vals, v)
	}
	// Columns: ECH, HugePage, NDPage, Ideal. ECH and NDPage differ from
	// Ideal only in translation cost, so they are bounded by it.
	// HugePage additionally changes *data* placement (2 MB physical
	// contiguity improves row-buffer locality), so it may exceed Ideal
	// at small scales and is not asserted here.
	ech, ndpage, ideal := vals[0], vals[2], vals[3]
	if ech > ideal || ndpage > ideal {
		t.Errorf("translation-only mechanisms exceed Ideal: ECH %.3f, NDPage %.3f, Ideal %.3f",
			ech, ndpage, ideal)
	}
}

func TestAblationTable(t *testing.T) {
	r := quickRunner()
	tab := table(t, r.Ablation)
	if len(tab.Columns) != 4 {
		t.Fatalf("ablation columns = %v", tab.Columns)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("ablation rows = %d", len(tab.Rows))
	}
}

func TestTableII(t *testing.T) {
	tab := TableII()
	if len(tab.Rows) != 11 {
		t.Fatalf("Table II rows = %d, want 11", len(tab.Rows))
	}
	s := tab.String()
	for _, suite := range []string{"GraphBIG", "XSBench", "GUPS", "DLRM", "GenomicsBench"} {
		if !strings.Contains(s, suite) {
			t.Errorf("Table II missing suite %s", suite)
		}
	}
}

// sscan parses a float cell.
func sscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

func TestPWCSensitivity(t *testing.T) {
	r := quickRunner()
	r.Workloads = []string{"rnd"}
	tab := table(t, r.PWCSensitivity)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Removing PWCs must not speed anything up.
	for _, row := range tab.Rows {
		var with, without float64
		fmt.Sscan(row[2], &with)
		fmt.Sscan(row[3], &without)
		if without < with {
			t.Errorf("%s/%s: PTW without PWC (%v) < with (%v)", row[0], row[1], without, with)
		}
	}
}

func TestHBMChannelSensitivity(t *testing.T) {
	r := quickRunner()
	r.Workloads = []string{"rnd"}
	tab := table(t, r.HBMChannelSensitivity)
	row := tab.Rows[0]
	var ch1, ch8 float64
	fmt.Sscan(row[1], &ch1)
	fmt.Sscan(row[4], &ch8)
	if ch1 <= ch8 {
		t.Errorf("1-channel PTW (%v) should exceed 8-channel (%v)", ch1, ch8)
	}
}

func TestWalkerWidthSensitivity(t *testing.T) {
	r := quickRunner()
	r.Workloads = []string{"rnd"}
	tab := table(t, r.WalkerWidthSensitivity)
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	row := tab.Rows[0]
	var w1, w8 float64
	fmt.Sscan(row[1], &w1)
	fmt.Sscan(row[4], &w8)
	// Funneling 4 cores' walks through one slot must not be faster than
	// giving them 8 slots.
	if w1 < w8 {
		t.Errorf("width-1 shared PTW (%v) below width-8 (%v)", w1, w8)
	}
	var queue float64
	fmt.Sscan(row[7], &queue)
	if queue <= 0 {
		t.Errorf("width-1 shared walker shows no slot queueing (%v cycles/walk)", queue)
	}
}

func TestMLPSensitivity(t *testing.T) {
	r := quickRunner()
	r.Workloads = []string{"rnd"}
	tab := table(t, r.MLPSensitivity)
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	row := tab.Rows[0]
	var speedup, inflight float64
	fmt.Sscan(row[5], &speedup)
	fmt.Sscan(row[6], &inflight)
	// Overlapping GUPS-style accesses must not slow the run down, and
	// the MLP=8 window must actually hold more than one op on average.
	if speedup < 1 {
		t.Errorf("MLP=8 slower than blocking (speedup %v)", speedup)
	}
	if inflight <= 1 {
		t.Errorf("MLP=8 mean in-flight %v, want > 1", inflight)
	}
}

func TestPopulationSensitivity(t *testing.T) {
	r := quickRunner()
	r.Workloads = []string{"rnd"}
	tab := table(t, r.PopulationSensitivity)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The Radix row must fault in-window (4 KB pages trickle in far
	// longer than 2 MB chunks, which warmup can cover at test scale).
	var faults uint64
	fmt.Sscan(tab.Rows[0][4], &faults)
	if faults == 0 {
		t.Errorf("%s/%s: demand population produced no faults", tab.Rows[0][0], tab.Rows[0][1])
	}
}

func TestOversubscriptionStudy(t *testing.T) {
	r := quickRunner()
	tab := table(t, r.OversubscriptionStudy)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		var slowdown float64
		fmt.Sscan(row[3], &slowdown)
		if slowdown < 1 {
			t.Errorf("%s: oversubscription sped things up (%.3f)", row[0], slowdown)
		}
		var reclaims uint64
		fmt.Sscan(row[4], &reclaims)
		if reclaims == 0 {
			t.Errorf("%s: no reclaims under oversubscription", row[0])
		}
	}
}
