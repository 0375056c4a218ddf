package ndpage

import (
	"context"
	"io"

	"ndpage/internal/exp"
	"ndpage/internal/stats"
)

// Table is a rendered experiment result: aligned text via String, machine-
// readable output via CSV.
type Table = stats.Table

// Experiments regenerates the paper's evaluation: a thin compatibility
// wrapper over the sweep subsystem (see Plan, Sweep, Store). The zero
// value runs every figure at the default (full) scale over all eleven
// workloads; the fields trade fidelity for speed.
type Experiments struct {
	// Instructions and Warmup are per-core op budgets (0 = defaults:
	// 300k / 30k).
	Instructions uint64
	Warmup       uint64
	// Footprint overrides the dataset budget (0 = core-count-scaled
	// default).
	Footprint uint64
	// Workloads restricts the benchmark set (nil = all of Table II).
	Workloads []string
	// Parallel bounds concurrent simulations (0 = min(4, GOMAXPROCS)).
	Parallel int
	// Progress, when non-nil, receives a line per simulation: completed,
	// served from the cache, or failed.
	Progress io.Writer
	// Cache persists results across figures and processes (NewDirStore);
	// nil keeps results in memory for this Experiments value only.
	Cache Store
	// Context cancels in-flight sweeps (nil = context.Background()).
	Context context.Context

	runner *exp.Runner
}

func (e *Experiments) r() *exp.Runner {
	if e.runner == nil {
		e.runner = &exp.Runner{
			Instructions: e.Instructions,
			Warmup:       e.Warmup,
			Footprint:    e.Footprint,
			Workloads:    e.Workloads,
			Parallel:     e.Parallel,
			Progress:     e.Progress,
			Store:        e.Cache,
			Context:      e.Context,
		}
	}
	return e.runner
}

// Fig4 reproduces Figure 4 (mean PTW latency, 4-core CPU vs NDP).
func (e *Experiments) Fig4() (*Table, error) { return e.r().Fig4() }

// Fig5 reproduces Figure 5 (translation overhead fraction, 4-core).
func (e *Experiments) Fig5() (*Table, error) { return e.r().Fig5() }

// Fig6 reproduces Figure 6 (PTW latency and overhead vs core count).
func (e *Experiments) Fig6() (*Table, error) { return e.r().Fig6() }

// Fig7 reproduces Figure 7 (L1 miss rates: data ideal/actual, metadata).
func (e *Experiments) Fig7() (*Table, error) { return e.r().Fig7() }

// Fig8 reproduces Figure 8 (page-table occupancy per level).
func (e *Experiments) Fig8() (*Table, error) { return e.r().Fig8() }

// Motivation reproduces the Section IV-A scalar observations.
func (e *Experiments) Motivation() (*Table, error) { return e.r().Motivation() }

// PWCRates reproduces the Section V-C page-walk-cache hit rates.
func (e *Experiments) PWCRates() (*Table, error) { return e.r().PWCRates() }

// Fig12 reproduces Figure 12 (single-core speedups over Radix).
func (e *Experiments) Fig12() (*Table, error) { return e.r().Fig12() }

// Fig13 reproduces Figure 13 (4-core speedups over Radix).
func (e *Experiments) Fig13() (*Table, error) { return e.r().Fig13() }

// Fig14 reproduces Figure 14 (8-core speedups over Radix).
func (e *Experiments) Fig14() (*Table, error) { return e.r().Fig14() }

// Ablation decomposes NDPage into bypass-only and flatten-only variants.
func (e *Experiments) Ablation() (*Table, error) { return e.r().Ablation() }

// MechanismComparison sweeps the paper's baselines plus the related-work
// mechanisms (Victima, NMT, PCAX) on the 4-core NDP system.
func (e *Experiments) MechanismComparison() (*Table, error) { return e.r().MechanismComparison() }

// PWCSensitivity measures walks with and without page-walk caches
// (DESIGN.md ablation 2).
func (e *Experiments) PWCSensitivity() (*Table, error) { return e.r().PWCSensitivity() }

// HBMChannelSensitivity sweeps the NDP vault partition width, the
// queueing driver behind Figure 6a (DESIGN.md ablation 3).
func (e *Experiments) HBMChannelSensitivity() (*Table, error) { return e.r().HBMChannelSensitivity() }

// WalkerWidthSensitivity sweeps the shared walker's concurrent-walk
// slots on the 4-core NDP system, reporting PTW latency, MSHR
// coalescing, and walk-overlap statistics per width.
func (e *Experiments) WalkerWidthSensitivity() (*Table, error) {
	return e.r().WalkerWidthSensitivity()
}

// MLPSensitivity sweeps the per-core memory-level-parallelism window
// over a shared width-2 walker on the 4-core NDP system: the
// non-blocking-core regime where walks overlap, queue on real walker
// slots, and coalesce in the MSHRs.
func (e *Experiments) MLPSensitivity() (*Table, error) { return e.r().MLPSensitivity() }

// PopulationSensitivity contrasts eager and demand dataset population
// (DESIGN.md ablation 4).
func (e *Experiments) PopulationSensitivity() (*Table, error) { return e.r().PopulationSensitivity() }

// OversubscriptionStudy models datasets larger than memory with FIFO
// chunk reclaim — the regime where transparent huge pages collapse.
func (e *Experiments) OversubscriptionStudy() (*Table, error) { return e.r().OversubscriptionStudy() }

// All runs every experiment in report order.
func (e *Experiments) All() ([]*Table, error) { return e.r().All() }

// TableII renders the workload registry.
func TableII() *Table { return exp.TableII() }
