package exp

import (
	"fmt"

	"ndpage/internal/core"
	"ndpage/internal/memsys"
	"ndpage/internal/sim"
	"ndpage/internal/stats"
	"ndpage/internal/sweep"
)

// Sensitivity studies are sweep plans like the figure matrices: the
// knob axis is a Variant list, so every (workload x knob) run executes
// on the worker pool and lands in the shared store — persistent caching
// and resumption apply to the sensitivity sweeps exactly as to the
// figures (the old runCustom path ran them uncached and sequentially).

// knobPlan builds the cross product of the runner's workloads with the
// given knob variants on one (system, mechanisms, cores) slice.
func (r *Runner) knobPlan(sys memsys.Kind, mechs []core.Mechanism, cores int, variants []sweep.Variant) sweep.Plan {
	return sweep.Plan{
		Base:       r.base(),
		Systems:    []memsys.Kind{sys},
		Mechanisms: mechs,
		Cores:      []int{cores},
		Workloads:  r.WorkloadNames(),
		Variants:   variants,
	}
}

// cell returns the result of one matrix cell with the variant's knobs
// applied.
func (c cells) cell(cfg sim.Config, v sweep.Variant) *sim.Result {
	if v.Mutate != nil {
		v.Mutate(&cfg)
	}
	return c.at(cfg)
}

// PWCSensitivity measures DESIGN.md ablation 2: walks with and without
// page-walk caches, Radix vs NDPage, on the 4-core NDP system.
func (r *Runner) PWCSensitivity() (*stats.Table, error) {
	withPWC := sweep.Variant{Name: "pwc"}
	withoutPWC := sweep.Variant{Name: "nopwc", Mutate: func(c *sim.Config) { c.DisablePWC = true }}
	mechs := []core.Mechanism{core.Radix, core.NDPage}
	plan := r.knobPlan(memsys.NDP, mechs, 4, []sweep.Variant{withPWC, withoutPWC})
	c, err := r.run(plan)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Sensitivity: page-walk caches (4-core NDP)",
		"workload", "mech", "ptw with pwc", "ptw without", "slowdown")
	for _, wl := range r.WorkloadNames() {
		for _, mech := range mechs {
			with := c.cell(r.matrix(memsys.NDP, mech, 4, wl), withPWC)
			without := c.cell(r.matrix(memsys.NDP, mech, 4, wl), withoutPWC)
			t.AddRow(wl, mech.String(),
				stats.F(with.MeanPTWLatency()),
				stats.F(without.MeanPTWLatency()),
				stats.F(float64(without.Cycles)/float64(with.Cycles)))
		}
	}
	t.AddNote("PWCs absorb the PL4/PL3 accesses; removing them lengthens every walk")
	return t, nil
}

// HBMChannelSensitivity measures DESIGN.md ablation 3: the Figure 6a
// queueing driver as a function of the NDP vault partition width.
func (r *Runner) HBMChannelSensitivity() (*stats.Table, error) {
	channels := []int{1, 2, 4, 8}
	variants := make([]sweep.Variant, len(channels))
	for i, ch := range channels {
		ch := ch
		variants[i] = sweep.Variant{
			Name:   fmt.Sprintf("hbm=%d", ch),
			Mutate: func(c *sim.Config) { c.HBMChannels = ch },
		}
	}
	plan := r.knobPlan(memsys.NDP, []core.Mechanism{core.Radix}, 8, variants)
	c, err := r.run(plan)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Sensitivity: HBM channels visible to the NDP cluster (8-core Radix)",
		"workload", "1ch ptw", "2ch ptw", "4ch ptw", "8ch ptw")
	for _, wl := range r.WorkloadNames() {
		row := []string{wl}
		for _, v := range variants {
			res := c.cell(r.matrix(memsys.NDP, core.Radix, 8, wl), v)
			row = append(row, stats.F(res.MeanPTWLatency()))
		}
		t.AddRow(row...)
	}
	t.AddNote("narrower partitions queue concurrent walks; 2 channels is the default")
	return t, nil
}

// WalkerWidthSensitivity sweeps the walker's concurrent-walk slots
// (Table-I-style knob) with the cluster-shared walker, on the 4-core NDP
// Radix system: every core's misses funnel through one walk unit, so
// width 1 serializes all concurrent walks, wider walkers overlap them,
// and duplicate walks for one page coalesce in the MSHRs regardless of
// width.
func (r *Runner) WalkerWidthSensitivity() (*stats.Table, error) {
	widths := []int{1, 2, 4, 8}
	variants := make([]sweep.Variant, len(widths))
	for i, w := range widths {
		w := w
		variants[i] = sweep.Variant{
			Name:   fmt.Sprintf("w=%d", w),
			Mutate: func(c *sim.Config) { c.SharedWalker = true; c.WalkerWidth = w },
		}
	}
	plan := r.knobPlan(memsys.NDP, []core.Mechanism{core.Radix}, 4, variants)
	c, err := r.run(plan)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Sensitivity: shared-walker width (4-core NDP Radix)",
		"workload", "w=1 ptw", "w=2 ptw", "w=4 ptw", "w=8 ptw", "mshr hit% (w=4)", "overlap% (w=4)", "queue/walk (w=1)")
	for _, wl := range r.WorkloadNames() {
		row := []string{wl}
		var at4, at1 *sim.Result
		for i, v := range variants {
			res := c.cell(r.matrix(memsys.NDP, core.Radix, 4, wl), v)
			row = append(row, stats.F(res.MeanPTWLatency()))
			switch widths[i] {
			case 1:
				at1 = res
			case 4:
				at4 = res
			}
		}
		row = append(row,
			stats.Pct(100*at4.MSHRHitRate()),
			stats.Pct(100*at4.WalkOverlapRate()),
			stats.F(at1.MeanWalkQueueCycles()))
		t.AddRow(row...)
	}
	t.AddNote("one shared walker serves all 4 cores: width 1 queues every concurrent walk,")
	t.AddNote("width >= cores removes slot contention; MSHR hits coalesce duplicate walks")
	return t, nil
}

// MLPSensitivity sweeps the per-core memory-level-parallelism window on
// the 4-core NDP Radix system with a cluster-shared width-2 walker:
// MLP=1 is the blocking baseline, deeper windows let each core keep
// several translations and data accesses in flight, so walks overlap,
// contend for the walker's two slots, and duplicate walks coalesce in
// the MSHRs — the engine-scheduled regime the NDPage paper's many-core
// motivation lives in.
func (r *Runner) MLPSensitivity() (*stats.Table, error) {
	mlps := []int{1, 2, 4, 8}
	variants := make([]sweep.Variant, len(mlps))
	for i, mlp := range mlps {
		mlp := mlp
		variants[i] = sweep.Variant{
			Name: fmt.Sprintf("mlp=%d", mlp),
			Mutate: func(c *sim.Config) {
				c.SharedWalker = true
				c.WalkerWidth = 2
				c.MLP = mlp
			},
		}
	}
	plan := r.knobPlan(memsys.NDP, []core.Mechanism{core.Radix}, 4, variants)
	c, err := r.run(plan)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Sensitivity: core MLP window (4-core NDP Radix, shared width-2 walker)",
		"workload", "mlp=1 cycles", "mlp=2", "mlp=4", "mlp=8",
		"speedup(8)", "in-flight (8)", "overlap% (8)", "mshr% (8)", "queue/walk (8)")
	for _, wl := range r.WorkloadNames() {
		row := []string{wl}
		var at1, at8 *sim.Result
		for i, v := range variants {
			res := c.cell(r.matrix(memsys.NDP, core.Radix, 4, wl), v)
			row = append(row, fmt.Sprintf("%.2fM", float64(res.Cycles)/1e6))
			switch mlps[i] {
			case 1:
				at1 = res
			case 8:
				at8 = res
			}
		}
		row = append(row,
			stats.F(float64(at1.Cycles)/float64(at8.Cycles)),
			stats.F(at8.MeanInFlight()),
			stats.Pct(100*at8.WalkOverlapRate()),
			stats.Pct(100*at8.MSHRHitRate()),
			stats.F(at8.MeanWalkQueueCycles()))
		t.AddRow(row...)
	}
	t.AddNote("deeper windows overlap translation+data latency until the two walk slots and")
	t.AddNote("the vault channels saturate; the mshr column counts duplicate walks absorbed in flight")
	return t, nil
}

// PopulationSensitivity measures DESIGN.md ablation 4: eager versus full
// demand population, exposing fault costs per mechanism (2-core NDP keeps
// the demand runs affordable).
func (r *Runner) PopulationSensitivity() (*stats.Table, error) {
	eagerV := sweep.Variant{Name: "eager"}
	demandV := sweep.Variant{Name: "demand", Mutate: func(c *sim.Config) { c.DemandPaging = true }}
	mechs := []core.Mechanism{core.Radix, core.HugePage}
	plan := r.knobPlan(memsys.NDP, mechs, 2, []sweep.Variant{eagerV, demandV})
	c, err := r.run(plan)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Sensitivity: eager vs demand population (2-core NDP)",
		"workload", "mech", "eager cycles", "demand cycles", "demand faults")
	for _, wl := range r.WorkloadNames() {
		for _, mech := range mechs {
			eager := c.cell(r.matrix(memsys.NDP, mech, 2, wl), eagerV)
			demand := c.cell(r.matrix(memsys.NDP, mech, 2, wl), demandV)
			t.AddRow(wl, mech.String(),
				fmt.Sprintf("%.1fM", float64(eager.Cycles)/1e6),
				fmt.Sprintf("%.1fM", float64(demand.Cycles)/1e6),
				stats.I(demand.Faults4K+demand.Faults2M))
		}
	}
	t.AddNote("demand population charges every first touch inside the window;")
	t.AddNote("the paper's measurement windows (500M instr) amortize this, short windows cannot")
	return t, nil
}

// OversubscriptionStudy models datasets larger than memory (the paper's
// GenomicsBench is 33 GB against 16 GB of DRAM): a resident-memory cap
// forces FIFO chunk reclaim, so cold data re-faults inside the window.
// This is the regime where transparent huge pages collapse — every
// re-fault zero-fills 2 MB and stalls on compaction — and a key reason
// the paper's 8-core Huge Page bar drops below Radix.
func (r *Runner) OversubscriptionStudy() (*stats.Table, error) {
	const wl = "gen"
	fitsV := sweep.Variant{Name: "fits"}
	overV := sweep.Variant{Name: "oversubscribed", Mutate: func(c *sim.Config) {
		c.ResidentLimitBytes = 3 << 30
		c.FootprintBytes = 6 << 30
	}}
	mechs := []core.Mechanism{core.Radix, core.HugePage, core.NDPage}
	plan := r.knobPlan(memsys.NDP, mechs, 2, []sweep.Variant{fitsV, overV})
	plan.Workloads = []string{wl} // fixed benchmark regardless of the active set
	c, err := r.run(plan)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Extension: dataset larger than memory (2-core NDP, gen)",
		"mech", "fits (cycles)", "oversubscribed", "slowdown", "reclaims", "faults")
	for _, mech := range mechs {
		fits := c.cell(r.matrix(memsys.NDP, mech, 2, wl), fitsV)
		over := c.cell(r.matrix(memsys.NDP, mech, 2, wl), overV)
		t.AddRow(mech.String(),
			fmt.Sprintf("%.1fM", float64(fits.Cycles)/1e6),
			fmt.Sprintf("%.1fM", float64(over.Cycles)/1e6),
			stats.F(float64(over.Cycles)/float64(fits.Cycles)),
			stats.I(over.ReclaimedChunks),
			stats.I(over.Faults4K+over.Faults2M))
	}
	t.AddNote("reclaim makes huge pages pay 2MB zero-fill + compaction per re-fault;")
	t.AddNote("4KB mechanisms re-fault only the touched pages")
	return t, nil
}
