package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"ndpage"
	"ndpage/internal/sim"
	"ndpage/internal/sweep"
)

// machineRun is one simulation's host timing and simulated outcome.
type machineRun struct {
	Desc   string
	Mech   string
	Cfg    sim.Config
	Setup  float64 // s in sim.New
	Run    float64 // s in Machine.Run
	Ops    uint64
	Digest Digest
	result *sim.Result
}

// timedStore is the zoo sweep's result store. It keeps results in
// memory and, as the sweep's simulator, builds and runs every machine
// itself so that sim.New and Machine.Run are timed separately. Every
// configuration is simulated under the benchmark seed.
type timedStore struct {
	seed uint64
	mem  *sweep.MemStore

	mu   sync.Mutex
	runs []machineRun
}

func (s *timedStore) Get(key string) (*sim.Result, bool, error) { return s.mem.Get(key) }
func (s *timedStore) Put(key string, r *sim.Result) error       { return s.mem.Put(key, r) }

// Simulate runs cfg as sim.RunConfig does (sim.New, then Machine.Run),
// timing the two calls.
func (s *timedStore) Simulate(cfg sim.Config) (*sim.Result, error) {
	cfg.Seed = s.seed
	cfg = cfg.Normalize()
	t0 := time.Now()
	m, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	res := m.Run()
	t2 := time.Now()
	s.mu.Lock()
	s.runs = append(s.runs, machineRun{
		Desc: cfg.Desc(), Mech: cfg.Mechanism.String(), Cfg: cfg,
		Setup: t1.Sub(t0).Seconds(), Run: t2.Sub(t1).Seconds(),
		Ops: ops(cfg), Digest: digestOf(res), result: res,
	})
	s.mu.Unlock()
	return res, nil
}

// zooParallel is the sweep's worker count: up to two, never more than
// the CPUs the process may use.
func zooParallel() int {
	if p := runtime.GOMAXPROCS(0); p < 2 {
		return p
	}
	return 2
}

// zooUnit is one or more zoo sweeps: the MechanismComparison and
// Ablation tables over apps through ndpage.Experiments.
type zooUnit struct {
	Sweeps   int
	Wall     float64            // s for both tables, summed over sweeps
	Figures  map[string]float64 // s per table, summed over sweeps
	Machines []machineRun
}

// merge folds another sweep's timings into z.
func (z *zooUnit) merge(o *zooUnit) {
	z.Sweeps += o.Sweeps
	z.Wall += o.Wall
	for k, v := range o.Figures {
		z.Figures[k] += v
	}
	z.Machines = append(z.Machines, o.Machines...)
}

func runZoo(apps []string, seed uint64) (*zooUnit, error) {
	store := &timedStore{seed: seed, mem: ndpage.NewMemStore()}
	e := &ndpage.Experiments{
		Instructions: zooInstructions,
		Warmup:       zooWarmup,
		Workloads:    apps,
		Parallel:     zooParallel(),
		Cache:        store,
	}
	u := &zooUnit{Sweeps: 1, Figures: map[string]float64{}}
	start := time.Now()
	for _, fig := range []struct {
		name string
		run  func() (*ndpage.Table, error)
	}{
		{"MechanismComparison", e.MechanismComparison},
		{"Ablation", e.Ablation},
	} {
		t0 := time.Now()
		if _, err := fig.run(); err != nil {
			return nil, fmt.Errorf("zoo %s: %w", fig.name, err)
		}
		u.Figures[fig.name] = time.Since(t0).Seconds()
	}
	u.Wall = time.Since(start).Seconds()
	u.Machines = store.runs
	sort.Slice(u.Machines, func(i, j int) bool { return u.Machines[i].Desc < u.Machines[j].Desc })
	return u, nil
}

// zooMachines is the number of distinct machines one zoo sweep builds:
// eight comparison mechanisms plus the two ablation variants per app.
func zooMachines(apps []string) int { return 10 * len(apps) }
