// Package exp regenerates every table and figure of the paper's
// evaluation (DESIGN.md Section 4): the motivation studies (Figures 4-8,
// the Section IV-A scalars, the Section V-C PWC rates), the headline
// speedup figures (12, 13, 14), the NDPage ablation called out in
// DESIGN.md, and the sensitivity sweeps.
//
// The figure methods are thin table-builders over the sweep subsystem
// (internal/sweep): each figure declares its configuration cross product
// as a sweep.Plan, runs it once through a shared sweep.Runner — which
// deduplicates runs figures share (e.g. Figure 4 and Figure 6) by
// content hash against the Cache, runs misses on a worker pool, and
// memoizes failures — and reads every table cell from that run's
// results. Pointing Cache at a sweep.DirStore makes every figure
// incremental across processes: interrupted or repeated regenerations
// skip runs whose results are already on disk. Simulation failures
// propagate as errors from every figure method.
package exp

import (
	"context"
	"fmt"
	"io"
	"sync"

	"ndpage/internal/core"
	"ndpage/internal/memsys"
	"ndpage/internal/sim"
	"ndpage/internal/sweep"
	"ndpage/internal/workload"
)

// Runner regenerates the paper's evaluation. The zero value runs every
// figure at the default (full) scale over all eleven Table II
// workloads; the fields trade fidelity for speed. Cache, Parallel and
// Progress are read when the first figure runs; the other fields are
// read by every figure.
type Runner struct {
	// Instructions and Warmup override the per-core op budgets (0 =
	// simulator defaults: 300k / 30k).
	Instructions uint64
	Warmup       uint64
	// Footprint overrides the dataset size (0 = core-scaled default).
	Footprint uint64
	// Workloads restricts the benchmark set (nil = all of Table II).
	Workloads []string
	// Parallel bounds concurrent simulations (0 = min(4, GOMAXPROCS)).
	Parallel int
	// Progress, when non-nil, receives one line per run: completed,
	// served from a persistent cache, or failed.
	Progress io.Writer
	// Cache shares results across figures — and, for a sweep.DirStore,
	// across processes (cached figure regeneration). Nil selects a
	// per-Runner in-memory store. A Cache that also implements
	// sweep.Simulator (a RemoteStore) runs the cold simulations too.
	Cache sweep.Store
	// Context cancels in-flight sweeps (nil = context.Background()).
	Context context.Context

	once  sync.Once
	sweep *sweep.Runner
}

// runner lazily builds the sweep runner every figure shares.
func (r *Runner) runner() *sweep.Runner {
	r.once.Do(func() {
		r.sweep = &sweep.Runner{Store: r.Cache, Parallel: r.Parallel}
		if w := r.Progress; w != nil {
			r.sweep.Progress = func(e sweep.Event) { progress(w, e) }
		}
	})
	return r.sweep
}

// progress renders a sweep event as a line: fresh runs, cache hits,
// and — crucially — failures, so a sweep that loses runs says so
// instead of completing silently thinner.
func progress(w io.Writer, e sweep.Event) {
	switch {
	case e.Err != nil:
		fmt.Fprintf(w, "fail %s: %v\n", e.Desc(), e.Err)
	case e.Cached:
		fmt.Fprintf(w, "cached %s (%.2fM cycles)\n", e.Desc(), float64(e.Cycles)/1e6)
	default:
		fmt.Fprintf(w, "done %s (%.2fM cycles)\n", e.Desc(), float64(e.Cycles)/1e6)
	}
}

// ctx returns the cancellation context.
func (r *Runner) ctx() context.Context {
	if r.Context != nil {
		return r.Context
	}
	return context.Background()
}

// WorkloadNames returns the active benchmark set in paper order.
func (r *Runner) WorkloadNames() []string {
	if r.Workloads != nil {
		return r.Workloads
	}
	return workload.Names()
}

// base is the configuration every evaluation run starts from: the
// Runner's budget and footprint overrides.
func (r *Runner) base() sim.Config {
	return sim.Config{
		Instructions:   r.Instructions,
		Warmup:         r.Warmup,
		FootprintBytes: r.Footprint,
	}
}

// matrix builds the evaluation-matrix configuration for one cell.
func (r *Runner) matrix(sys memsys.Kind, mech core.Mechanism, cores int, wl string) sim.Config {
	cfg := r.base()
	cfg.System = sys
	cfg.Mechanism = mech
	cfg.Cores = cores
	cfg.Workload = wl
	return cfg
}

// cells holds the results of one figure's plan, keyed by Config.Key().
type cells map[string]*sim.Result

// run runs the plan once on the shared sweep runner, returning every
// result by key. Every figure's plan starts from r.base(), so it runs at
// the Runner's budgets.
func (r *Runner) run(p sweep.Plan) (cells, error) {
	cfgs, err := p.Configs()
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	results, err := r.runner().Run(r.ctx(), cfgs)
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	c := make(cells, len(cfgs))
	for i, cfg := range cfgs {
		c[cfg.Key()] = results[i]
	}
	return c, nil
}

// at returns cfg's result. A figure reads only cells its own plan ran,
// so a missing cell is a bug in the figure.
func (c cells) at(cfg sim.Config) *sim.Result {
	res, ok := c[cfg.Key()]
	if !ok {
		panic(fmt.Sprintf("exp: %s is not in the figure's plan", cfg.Desc()))
	}
	return res
}

// ndpPlan enumerates the given mechanisms on the NDP system at one core
// count over the active workloads: the Figure 7/8/12/13/14, ablation
// and comparison matrices.
func (r *Runner) ndpPlan(cores int, mechs ...core.Mechanism) sweep.Plan {
	return sweep.Plan{
		Base:       r.base(),
		Systems:    []memsys.Kind{memsys.NDP},
		Mechanisms: mechs,
		Cores:      []int{cores},
		Workloads:  r.WorkloadNames(),
	}
}

// radixPairPlan enumerates CPU+NDP Radix runs (Figures 4-6) for the
// given core counts.
func (r *Runner) radixPairPlan(cores ...int) sweep.Plan {
	return sweep.Plan{
		Base:       r.base(),
		Systems:    []memsys.Kind{memsys.NDP, memsys.CPU},
		Mechanisms: []core.Mechanism{core.Radix},
		Cores:      cores,
		Workloads:  r.WorkloadNames(),
	}
}
