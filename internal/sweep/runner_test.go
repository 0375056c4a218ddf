package sweep

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"ndpage/internal/sim"
)

// fakeSim returns a simulator stub that counts invocations and fabricates
// a result derived from the config.
func fakeSim(calls *atomic.Int64) func(sim.Config) (*sim.Result, error) {
	return func(cfg sim.Config) (*sim.Result, error) {
		calls.Add(1)
		return &sim.Result{Config: cfg, Cycles: 1000 + cfg.Seed}, nil
	}
}

// simStore is a Store whose cold runs go to run: the Simulator route a
// Runner takes for any Store that can compute.
type simStore struct {
	Store
	run func(sim.Config) (*sim.Result, error)
}

func (s simStore) Simulate(cfg sim.Config) (*sim.Result, error) { return s.run(cfg) }

// simulating returns a fresh in-memory store whose cold runs go to run.
func simulating(run func(sim.Config) (*sim.Result, error)) Store {
	return simStore{NewMemStore(), run}
}

func seedPlan(seeds ...uint64) []sim.Config {
	cfgs, err := Plan{Base: testBase(), Seeds: seeds}.Configs()
	if err != nil {
		panic(err)
	}
	return cfgs
}

func TestRunnerDedupesWithinRun(t *testing.T) {
	var calls atomic.Int64
	r := &Runner{Store: simulating(fakeSim(&calls))}
	cfg := testBase()
	out, err := r.Run(context.Background(), []sim.Config{cfg, cfg, cfg})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Errorf("3 identical configs simulated %d times, want 1", calls.Load())
	}
	for i, res := range out {
		if res == nil || res != out[0] {
			t.Fatalf("result %d not deduplicated: %v", i, res)
		}
	}
}

func TestRunnerMemoizesAcrossRuns(t *testing.T) {
	var calls atomic.Int64
	r := &Runner{Store: simulating(fakeSim(&calls))}
	cfgs := seedPlan(1, 2)
	if _, err := r.Run(context.Background(), cfgs); err != nil {
		t.Fatal(err)
	}
	out, err := r.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Errorf("second Run re-simulated: %d total calls, want 2", calls.Load())
	}
	if out[0].Cycles != 1001 || out[1].Cycles != 1002 {
		t.Errorf("results out of order: %d, %d", out[0].Cycles, out[1].Cycles)
	}
}

func TestRunnerResultsInInputOrder(t *testing.T) {
	var calls atomic.Int64
	r := &Runner{Parallel: 4, Store: simulating(fakeSim(&calls))}
	cfgs := seedPlan(1, 2, 3, 4, 5, 6, 7, 8)
	out, err := r.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out {
		if res == nil || res.Config.Seed != uint64(i+1) {
			t.Fatalf("result %d out of order: %+v", i, res)
		}
	}
}

func TestRunnerCachedEventsOnlyForForeignResults(t *testing.T) {
	var calls atomic.Int64
	store := NewMemStore()

	// Runner 1 simulates seeds 1 and 2 into the shared store. Its own
	// memo hits are silent: cached events mean reuse of foreign work.
	var ownCached int
	r1 := &Runner{
		Store: simStore{store, fakeSim(&calls)},
		Progress: func(e Event) {
			if e.Cached {
				ownCached++
			}
		},
	}
	for i := 0; i < 3; i++ {
		if _, err := r1.Run(context.Background(), seedPlan(1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if ownCached != 0 {
		t.Errorf("runner announced %d of its own results as cached", ownCached)
	}

	// Runner 2 over the same store announces each pre-existing result
	// exactly once, however often it is re-served.
	var cached, done int
	r2 := &Runner{
		Store: simStore{store, fakeSim(&calls)},
		Progress: func(e Event) {
			if e.Err == nil && e.Cached {
				cached++
			} else if e.Err == nil {
				done++
			}
		},
	}
	for i := 0; i < 3; i++ {
		if _, err := r2.Run(context.Background(), seedPlan(1, 2, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if cached != 2 || done != 1 {
		t.Errorf("warm runner events: %d cached, %d simulated; want 2 and 1", cached, done)
	}
}

func TestRunnerCancelledContext(t *testing.T) {
	var calls atomic.Int64
	r := &Runner{Store: simulating(fakeSim(&calls))}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := r.Run(ctx, seedPlan(1, 2, 3))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Errorf("cancelled Run simulated %d configs", calls.Load())
	}
	for i, res := range out {
		if res != nil {
			t.Errorf("result %d non-nil after cancellation", i)
		}
	}
}

func TestRunnerValidatesConfigs(t *testing.T) {
	r := &Runner{Store: simulating(fakeSim(new(atomic.Int64)))}
	bad := testBase()
	bad.Workload = "no-such"
	if _, err := r.Run(context.Background(), []sim.Config{bad}); err == nil {
		t.Fatal("Run accepted an invalid config")
	}
}

func TestRunPlanEndToEnd(t *testing.T) {
	var calls atomic.Int64
	r := &Runner{Parallel: 2, Store: simulating(fakeSim(&calls))}
	out, err := r.RunPlan(context.Background(), Plan{Base: testBase(), Seeds: []uint64{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 || calls.Load() != 4 {
		t.Fatalf("RunPlan: %d results, %d sims", len(out), calls.Load())
	}
}

// TestRunnerRealSimulation exercises the default sim.RunConfig path once
// with a tiny budget: the sweep layer and the simulator agree end to
// end, and a duplicated config is served from the store.
func TestRunnerRealSimulation(t *testing.T) {
	r := &Runner{}
	cfg := testBase()
	a, err := r.RunOne(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunOne(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second RunOne did not hit the store")
	}
	if a.Cycles == 0 || a.Instructions == 0 {
		t.Errorf("empty result: %+v", a)
	}
}

// TestRunnerTransientFailuresNotCached: a failed run is reported to the
// Run that observed it — as its error and as a progress event naming
// the run — while the healthy runs beside it complete. The failure is
// not remembered: the next Run simulates the configuration again, so a
// failure that does not recur (only the first call fails here) clears.
func TestRunnerTransientFailuresNotCached(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	var failed []Event
	r := &Runner{
		Progress: func(e Event) {
			if e.Err != nil {
				failed = append(failed, e)
			}
		},
		Store: simulating(func(cfg sim.Config) (*sim.Result, error) {
			if cfg.Seed == 2 && calls.Add(1) == 1 {
				return nil, boom
			}
			return &sim.Result{Config: cfg, Cycles: cfg.Seed}, nil
		}),
	}
	cfgs := seedPlan(1, 2, 3)
	out, err := r.Run(context.Background(), cfgs)
	if !errors.Is(err, boom) {
		t.Fatalf("first Run error = %v, want boom", err)
	}
	if out[0] == nil || out[1] != nil || out[2] == nil {
		t.Fatalf("results around the failure: %v", out)
	}
	if len(failed) != 1 || failed[0].Desc() == "" {
		t.Errorf("failure events = %+v, want one naming its run", failed)
	}
	out, err = r.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if out[1] == nil || out[1].Cycles != 2 {
		t.Fatalf("second Run result = %+v", out[1])
	}
	if calls.Load() != 2 {
		t.Errorf("failed config simulated %d times, want 2 (not remembered)", calls.Load())
	}
}

// TestRunnerRecoversSimulatorPanics: a panicking configuration costs
// one failed run with a structured, stack-carrying RunError
// — not the process — and healthy runs in the same sweep complete.
func TestRunnerRecoversSimulatorPanics(t *testing.T) {
	r := &Runner{
		Store: simulating(func(cfg sim.Config) (*sim.Result, error) {
			if cfg.Seed == 2 {
				panic("poisoned page table state")
			}
			return &sim.Result{Config: cfg, Cycles: cfg.Seed}, nil
		}),
	}
	out, err := r.Run(context.Background(), seedPlan(1, 2, 3))
	if err == nil {
		t.Fatal("panicking config reported no error")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a RunError", err)
	}
	if !re.Panicked || re.Stack == "" {
		t.Errorf("RunError = {Panicked:%v stack %d bytes}, want a panic with its stack", re.Panicked, len(re.Stack))
	}
	if out[0] == nil || out[2] == nil || out[1] != nil {
		t.Errorf("healthy runs lost around the panic: %v", out)
	}
}
