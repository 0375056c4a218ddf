package exp

import (
	"strings"

	"ndpage/internal/addr"
	"ndpage/internal/core"
	"ndpage/internal/memsys"
	"ndpage/internal/stats"
	"ndpage/internal/workload"
)

// Paper-reported values used for side-by-side comparison rows. These are
// the numbers printed in the paper's text; per-workload bars are read off
// figures and not transcribed.
const (
	paperFig4NDPMeanPTW   = 474.56 // 4-core NDP mean PTW latency (cycles)
	paperFig4IncrementPct = 229    // NDP PTW vs CPU (+%)
	paperFig5NDPOverhead  = 67.1   // % of execution time, 4-core NDP
	paperFig5CPUOverhead  = 34.51  // % of execution time, 4-core CPU
	paperFig6NDP1         = 242.85 // NDP mean PTW, 1 core
	paperFig6NDP8         = 551.83 // NDP mean PTW, 8 cores
	paperTLBMissPct       = 91.27  // Section IV-A
	paperPTEShare         = 65.8   // % of memory accesses that are PTEs
	paperPTEL1Miss        = 98.28  // metadata L1 miss %
	paperDataMissActual   = 35.89  // normal data L1 miss %, with translation
	paperDataMissIdeal    = 26.16  // normal data L1 miss %, ideal
	paperPL1Occ           = 97.97  // Figure 8 occupancy %
	paperPL2Occ           = 98.24
	paperPL3Occ           = 3.12
	paperPL4Occ           = 0.43
	paperPWCPL4           = 100.0 // Section V-C hit rates %
	paperPWCPL3           = 98.6
	paperPWCPL2           = 15.4
	paperFig12NDPage      = 1.344 // single-core mean speedups over Radix
	paperFig12OverECH     = 1.143
	paperFig12OverHuge    = 1.244
	paperFig13OverECH     = 1.098 // 4-core NDPage over ECH
	paperFig14OverECH     = 1.305 // 8-core NDPage over ECH
	paperFig14OverHuge    = 1.562
	paperFig14HugeSpeedup = 0.901
)

// Fig4 reproduces Figure 4: average page-table-walk latency per workload
// on the 4-core NDP and CPU systems (Radix), and the NDP increment.
func (r *Runner) Fig4() (*stats.Table, error) {
	c, err := r.run(r.radixPairPlan(4))
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 4: mean PTW latency, 4-core Radix (cycles)",
		"workload", "cpu", "ndp", "ndp/cpu")
	var cpuAll, ndpAll []float64
	for _, wl := range r.WorkloadNames() {
		cpu := c.at(r.matrix(memsys.CPU, core.Radix, 4, wl)).MeanPTWLatency()
		ndp := c.at(r.matrix(memsys.NDP, core.Radix, 4, wl)).MeanPTWLatency()
		cpuAll = append(cpuAll, cpu)
		ndpAll = append(ndpAll, ndp)
		t.AddRow(wl, stats.F(cpu), stats.F(ndp), stats.F(ndp/cpu))
	}
	mc, mn := stats.ArithMean(cpuAll), stats.ArithMean(ndpAll)
	t.AddRow("mean", stats.F(mc), stats.F(mn), stats.F(mn/mc))
	t.AddNote("paper: NDP mean %.2f cycles, +%d%% over CPU", paperFig4NDPMeanPTW, paperFig4IncrementPct)
	return t, nil
}

// Fig5 reproduces Figure 5: fraction of execution time spent on address
// translation in the 4-core systems.
func (r *Runner) Fig5() (*stats.Table, error) {
	c, err := r.run(r.radixPairPlan(4))
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 5: address-translation overhead, 4-core Radix (% of time)",
		"workload", "cpu", "ndp")
	var cpuAll, ndpAll []float64
	for _, wl := range r.WorkloadNames() {
		cpu := 100 * c.at(r.matrix(memsys.CPU, core.Radix, 4, wl)).TranslationOverhead()
		ndp := 100 * c.at(r.matrix(memsys.NDP, core.Radix, 4, wl)).TranslationOverhead()
		cpuAll = append(cpuAll, cpu)
		ndpAll = append(ndpAll, ndp)
		t.AddRow(wl, stats.Pct(cpu), stats.Pct(ndp))
	}
	t.AddRow("mean", stats.Pct(stats.ArithMean(cpuAll)), stats.Pct(stats.ArithMean(ndpAll)))
	t.AddNote("paper: NDP %.1f%%, CPU %.2f%%", paperFig5NDPOverhead, paperFig5CPUOverhead)
	return t, nil
}

// Fig6 reproduces Figure 6: core-count scaling of (a) mean PTW latency
// and (b) translation overhead, averaged over the workloads.
func (r *Runner) Fig6() (*stats.Table, error) {
	coreCounts := []int{1, 4, 8}
	c, err := r.run(r.radixPairPlan(coreCounts...))
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 6: scaling with core count (Radix, workload mean)",
		"cores", "cpu ptw", "ndp ptw", "cpu xlat%", "ndp xlat%")
	for _, n := range coreCounts {
		var cp, np, co, no []float64
		for _, wl := range r.WorkloadNames() {
			cpu := c.at(r.matrix(memsys.CPU, core.Radix, n, wl))
			ndp := c.at(r.matrix(memsys.NDP, core.Radix, n, wl))
			cp = append(cp, cpu.MeanPTWLatency())
			np = append(np, ndp.MeanPTWLatency())
			co = append(co, 100*cpu.TranslationOverhead())
			no = append(no, 100*ndp.TranslationOverhead())
		}
		t.AddRow(stats.I(uint64(n)), stats.F(stats.ArithMean(cp)), stats.F(stats.ArithMean(np)),
			stats.Pct(stats.ArithMean(co)), stats.Pct(stats.ArithMean(no)))
	}
	t.AddNote("paper (a): NDP PTW %.2f -> %.2f cycles from 1 to 8 cores; CPU stays flat", paperFig6NDP1, paperFig6NDP8)
	t.AddNote("paper (b): NDP overhead keeps growing with cores; CPU stays similar")
	return t, nil
}

// Fig7 reproduces Figure 7: L1 miss rates of normal data (ideal vs
// actual) and metadata, on the 4-core NDP system.
func (r *Runner) Fig7() (*stats.Table, error) {
	c, err := r.run(r.ndpPlan(4, core.Radix, core.Ideal))
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 7: L1 miss rates, 4-core NDP (%)",
		"workload", "data (ideal)", "data (actual)", "metadata")
	var id, ac, md []float64
	for _, wl := range r.WorkloadNames() {
		radix := c.at(r.matrix(memsys.NDP, core.Radix, 4, wl))
		ideal := 100 * c.at(r.matrix(memsys.NDP, core.Ideal, 4, wl)).L1DataMissRate()
		actual := 100 * radix.L1DataMissRate()
		meta := 100 * radix.L1PTEMissRate()
		id, ac, md = append(id, ideal), append(ac, actual), append(md, meta)
		t.AddRow(wl, stats.Pct(ideal), stats.Pct(actual), stats.Pct(meta))
	}
	t.AddRow("mean", stats.Pct(stats.ArithMean(id)), stats.Pct(stats.ArithMean(ac)), stats.Pct(stats.ArithMean(md)))
	t.AddNote("paper: data %.2f%% ideal vs %.2f%% actual; metadata %.2f%%",
		paperDataMissIdeal, paperDataMissActual, paperPTEL1Miss)
	return t, nil
}

// Fig8 reproduces Figure 8: page-table occupancy per level, plus the
// flattened table's combined PL2/PL1 occupancy.
func (r *Runner) Fig8() (*stats.Table, error) {
	c, err := r.run(r.ndpPlan(4, core.Radix, core.NDPage))
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 8: page-table occupancy, 4-core (%)",
		"workload", "PL4", "PL3", "PL2", "PL1", "PL2/PL1 (flat)")
	for _, wl := range r.WorkloadNames() {
		radix := c.at(r.matrix(memsys.NDP, core.Radix, 4, wl))
		flat := c.at(r.matrix(memsys.NDP, core.NDPage, 4, wl))
		t.AddRow(wl,
			stats.Pct(100*radix.OccupancyRate(addr.PL4)),
			stats.Pct(100*radix.OccupancyRate(addr.PL3)),
			stats.Pct(100*radix.OccupancyRate(addr.PL2)),
			stats.Pct(100*radix.OccupancyRate(addr.PL1)),
			stats.Pct(100*flat.OccupancyRate(addr.L2L1)))
	}
	t.AddNote("paper: PL1 %.2f%%, PL2 %.2f%%, PL3 %.2f%%, PL4 %.2f%%",
		paperPL1Occ, paperPL2Occ, paperPL3Occ, paperPL4Occ)
	return t, nil
}

// Motivation reproduces the Section IV-A scalar observations on the
// 4-core NDP system.
func (r *Runner) Motivation() (*stats.Table, error) {
	c, err := r.run(r.radixPairPlan(4))
	if err != nil {
		return nil, err
	}
	var tlbMiss, pteShare, pteDRAMRatio stats.Mean
	for _, wl := range r.WorkloadNames() {
		ndp := c.at(r.matrix(memsys.NDP, core.Radix, 4, wl))
		cpu := c.at(r.matrix(memsys.CPU, core.Radix, 4, wl))
		tlbMiss.Add(100 * ndp.TLBMissRate())
		pteShare.Add(100 * ndp.PTEAccessShare())
		cpuPTE := cpu.DRAM[1] // access.PTE
		if cpuPTE > 0 {
			pteDRAMRatio.Add(float64(ndp.DRAM[1]) / float64(cpuPTE))
		}
	}
	t := stats.NewTable("Section IV-A: motivation scalars, 4-core NDP",
		"metric", "measured", "paper")
	t.AddRow("TLB miss rate", stats.Pct(tlbMiss.Value()), stats.Pct(paperTLBMissPct))
	t.AddRow("PTE share of memory accesses", stats.Pct(pteShare.Value()), stats.Pct(paperPTEShare))
	t.AddRow("NDP/CPU PTE DRAM traffic", stats.F(pteDRAMRatio.Value())+"x", "200.4x")
	return t, nil
}

// PWCRates reproduces the Section V-C page-walk-cache hit rates on the
// 4-core NDP Radix system.
func (r *Runner) PWCRates() (*stats.Table, error) {
	c, err := r.run(r.radixPairPlan(4))
	if err != nil {
		return nil, err
	}
	var pl4, pl3, pl2 stats.Mean
	for _, wl := range r.WorkloadNames() {
		res := c.at(r.matrix(memsys.NDP, core.Radix, 4, wl))
		pl4.Add(100 * res.PWCHitRate(addr.PL4))
		pl3.Add(100 * res.PWCHitRate(addr.PL3))
		pl2.Add(100 * res.PWCHitRate(addr.PL2))
	}
	t := stats.NewTable("Section V-C: PWC hit rates, 4-core NDP Radix",
		"level", "measured", "paper")
	t.AddRow("PL4", stats.Pct(pl4.Value()), stats.Pct(paperPWCPL4))
	t.AddRow("PL3", stats.Pct(pl3.Value()), stats.Pct(paperPWCPL3))
	t.AddRow("PL2", stats.Pct(pl2.Value()), stats.Pct(paperPWCPL2))
	return t, nil
}

// speedupTable runs the NDP plan over the plan mechanisms, which
// include Radix, and tabulates each of mechs' speedup over Radix per
// workload, geomean last; means holds the geomeans by mechanism.
func (r *Runner) speedupTable(cores int, plan, mechs []core.Mechanism, title string) (t *stats.Table, means map[core.Mechanism]float64, err error) {
	c, err := r.run(r.ndpPlan(cores, plan...))
	if err != nil {
		return nil, nil, err
	}
	columns := []string{"workload"}
	for _, m := range mechs {
		columns = append(columns, m.String())
	}
	t = stats.NewTable(title, columns...)
	perMech := map[core.Mechanism][]float64{}
	for _, wl := range r.WorkloadNames() {
		base := c.at(r.matrix(memsys.NDP, core.Radix, cores, wl)).Cycles
		row := []string{wl}
		for _, m := range mechs {
			s := float64(base) / float64(c.at(r.matrix(memsys.NDP, m, cores, wl)).Cycles)
			perMech[m] = append(perMech[m], s)
			row = append(row, stats.F3(s))
		}
		t.AddRow(row...)
	}
	means = map[core.Mechanism]float64{}
	row := []string{"geomean"}
	for _, m := range mechs {
		means[m] = stats.GeoMean(perMech[m])
		row = append(row, stats.F3(means[m]))
	}
	t.AddRow(row...)
	return t, means, nil
}

// speedupFigure renders one of Figures 12/13/14.
func (r *Runner) speedupFigure(cores int, title string, notes func(*stats.Table, map[core.Mechanism]float64)) (*stats.Table, error) {
	t, means, err := r.speedupTable(cores, core.Mechanisms,
		[]core.Mechanism{core.ECH, core.HugePage, core.NDPage, core.Ideal}, title)
	if err != nil {
		return nil, err
	}
	notes(t, means)
	return t, nil
}

// Fig12 reproduces Figure 12: single-core NDP speedups over Radix.
func (r *Runner) Fig12() (*stats.Table, error) {
	return r.speedupFigure(1, "Figure 12: speedup over Radix, 1-core NDP",
		func(t *stats.Table, m map[core.Mechanism]float64) {
			t.AddNote("paper: NDPage %.3fx over Radix, %.3fx over ECH, %.3fx over HugePage",
				paperFig12NDPage, paperFig12OverECH, paperFig12OverHuge)
			t.AddNote("measured: NDPage/ECH = %.3f, NDPage/HugePage = %.3f",
				m[core.NDPage]/m[core.ECH], m[core.NDPage]/m[core.HugePage])
		})
}

// Fig13 reproduces Figure 13: 4-core NDP speedups over Radix.
func (r *Runner) Fig13() (*stats.Table, error) {
	return r.speedupFigure(4, "Figure 13: speedup over Radix, 4-core NDP",
		func(t *stats.Table, m map[core.Mechanism]float64) {
			t.AddNote("paper: NDPage %.3fx over ECH (and 1.426x over Radix)", paperFig13OverECH)
			t.AddNote("measured: NDPage/ECH = %.3f", m[core.NDPage]/m[core.ECH])
		})
}

// Fig14 reproduces Figure 14: 8-core NDP speedups over Radix.
func (r *Runner) Fig14() (*stats.Table, error) {
	return r.speedupFigure(8, "Figure 14: speedup over Radix, 8-core NDP",
		func(t *stats.Table, m map[core.Mechanism]float64) {
			t.AddNote("paper: NDPage %.3fx over ECH, %.3fx over HugePage; HugePage %.3fx of Radix",
				paperFig14OverECH, paperFig14OverHuge, paperFig14HugeSpeedup)
			t.AddNote("measured: NDPage/ECH = %.3f, NDPage/HugePage = %.3f, HugePage = %.3fx",
				m[core.NDPage]/m[core.ECH], m[core.NDPage]/m[core.HugePage], m[core.HugePage])
		})
}

// Ablation decomposes NDPage into its two mechanisms (DESIGN.md
// Section 5) on the 4-core NDP system. Its measured note reads the
// geomeans: which single-mechanism variants beat Radix, and whether
// NDPage beats both of them.
func (r *Runner) Ablation() (*stats.Table, error) {
	t, m, err := r.speedupTable(4, core.AblationMechanisms,
		[]core.Mechanism{core.BypassOnly, core.FlattenOnly, core.NDPage},
		"Ablation: NDPage decomposition, 4-core NDP (speedup over Radix)")
	if err != nil {
		return nil, err
	}
	var above []string
	for _, v := range []core.Mechanism{core.BypassOnly, core.FlattenOnly} {
		if m[v] > 1 {
			above = append(above, v.String())
		}
	}
	if len(above) == 0 {
		above = []string{"none"}
	}
	beats := "does not beat"
	if m[core.NDPage] > max(m[core.BypassOnly], m[core.FlattenOnly]) {
		beats = "beats"
	}
	t.AddNote("paper: both mechanisms contribute; their combination is NDPage (Section V)")
	t.AddNote("measured: variants above Radix: %s; NDPage %s both", strings.Join(above, ", "), beats)
	return t, nil
}

// MechanismComparison sweeps the full mechanism zoo on the 4-core NDP
// system: the paper's baselines plus the related-work mechanisms added
// behind the same Config axis — Victima (translation blocks in the data
// cache), NMT (near-memory identity segments), and PCAX (a PC-indexed
// translation table). Speedup over Radix per workload, geomean last.
// Each mechanism runs with its documented default knobs (DESIGN.md
// "Mechanism zoo").
func (r *Runner) MechanismComparison() (*stats.Table, error) {
	t, _, err := r.speedupTable(4, core.ComparisonMechanisms,
		[]core.Mechanism{core.ECH, core.HugePage, core.Victima, core.NMT, core.PCAX, core.NDPage, core.Ideal},
		"Mechanism comparison: speedup over Radix, 4-core NDP")
	if err != nil {
		return nil, err
	}
	t.AddNote("Victima: Kanellopoulos et al. (MICRO 2023); NMT: Picorel et al. (MEMSYS 2017); PCAX: PC-indexed translation")
	t.AddNote("the NDP system has no shared LLC, so Victima's translation blocks live in the tiny L1D and NMT depends on eager population")
	return t, nil
}

// TableII renders the workload registry: the Table II benchmarks plus
// any workloads registered in this process (workload.Register).
func TableII() *stats.Table {
	t := stats.NewTable("Table II: evaluated workloads",
		"workload", "suite", "description", "paper dataset")
	for _, name := range append(workload.Names(), workload.Registered()...) {
		s := workload.MustLookup(name)
		t.AddRow(s.Name, s.Suite, s.Description, s.PaperDataset)
	}
	return t
}
