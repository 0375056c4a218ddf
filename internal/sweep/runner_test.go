package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
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

func TestRunnerNegativeCachesFailures(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	var events []Event
	r := &Runner{
		Progress: func(e Event) { events = append(events, e) },
		Store: simulating(func(cfg sim.Config) (*sim.Result, error) {
			calls.Add(1)
			if cfg.Seed == 2 {
				// Permanent: only deterministic failures are memoized.
				return nil, &RunError{Op: "simulate", Permanent: true, Err: boom}
			}
			return &sim.Result{Config: cfg, Cycles: cfg.Seed}, nil
		}),
	}
	cfgs := seedPlan(1, 2, 3)
	out, err := r.Run(context.Background(), cfgs)
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want boom", err)
	}
	if out[0] == nil || out[1] != nil || out[2] == nil {
		t.Fatalf("unexpected results: %v", out)
	}
	// The failure emitted a progress event naming the run (a sweep must
	// not lose runs silently).
	var failEvents int
	for _, e := range events {
		if e.Err != nil {
			failEvents++
			if e.Desc() == "" {
				t.Error("failure event has empty description")
			}
		}
	}
	if failEvents != 1 {
		t.Errorf("failure events = %d, want 1", failEvents)
	}
	// The failure is memoized: a second Run reports it without
	// re-simulating.
	before := calls.Load()
	if _, err := r.Run(context.Background(), cfgs); !errors.Is(err, boom) {
		t.Fatalf("memoized error lost: %v", err)
	}
	if calls.Load() != before {
		t.Errorf("failed run was re-simulated")
	}
}

// TestRunnerNegativeCacheBounded: the failure memo is capped at
// defaultNegativeCap entries, evicting oldest-first. An evicted key
// re-simulates on its next Run; keys still memoized do not — and every
// Run reports the failure it observed regardless of later eviction.
func TestRunnerNegativeCacheBounded(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	r := &Runner{
		// One worker records failures in input order, so the eviction
		// order is the seed order.
		Parallel: 1,
		Store: simulating(func(cfg sim.Config) (*sim.Result, error) {
			calls.Add(1)
			return nil, &RunError{Op: "simulate", Permanent: true, Err: fmt.Errorf("seed %d: %w", cfg.Seed, boom)}
		}),
	}
	ctx := context.Background()
	seeds := func(from, n int) []sim.Config {
		s := make([]uint64, n)
		for i := range s {
			s[i] = uint64(from + i)
		}
		return seedPlan(s...)
	}
	// Fill the memo, then one more failure: recording it evicts seed 1.
	if _, err := r.Run(ctx, seeds(1, defaultNegativeCap)); !errors.Is(err, boom) {
		t.Fatalf("filling run: err = %v, want boom", err)
	}
	if _, err := r.Run(ctx, seeds(defaultNegativeCap+1, 1)); !errors.Is(err, boom) {
		t.Fatalf("overflow run: err = %v, want boom", err)
	}
	if calls.Load() != defaultNegativeCap+1 {
		t.Fatalf("initial failures simulated %d times, want %d", calls.Load(), defaultNegativeCap+1)
	}
	// Seeds 2..cap+1 are still memoized: failures report with no new
	// simulation.
	if _, err := r.Run(ctx, seeds(2, defaultNegativeCap)); !errors.Is(err, boom) {
		t.Fatalf("memoized seeds: err = %v, want boom", err)
	}
	if calls.Load() != defaultNegativeCap+1 {
		t.Errorf("memoized failures re-simulated: %d calls, want %d", calls.Load(), defaultNegativeCap+1)
	}
	// Seed 1 was evicted: its next Run re-simulates (and still fails).
	if _, err := r.Run(ctx, seedPlan(1)); !errors.Is(err, boom) {
		t.Fatalf("evicted seed 1: err = %v, want boom", err)
	}
	if calls.Load() != defaultNegativeCap+2 {
		t.Errorf("evicted failure served from memo: %d calls, want %d", calls.Load(), defaultNegativeCap+2)
	}
	// One Run observing a failure that is evicted mid-flight by its own
	// later failures still reports it as its first error: the per-Run
	// pin, not the shared memo, carries the error to assembly.
	if _, err := r.Run(ctx, seeds(10_000, defaultNegativeCap+2)); !errors.Is(err, boom) || !strings.Contains(err.Error(), "seed 10000:") {
		t.Fatalf("Run with eviction churn: err = %v, want seed 10000's boom", err)
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

// TestRunnerTransientFailuresNotCached: a transient failure (plain
// error, or RunError without Permanent) is reported to the Run that
// observed it but never memoized — the next Run retries, and a
// recovered transient can then succeed.
func TestRunnerTransientFailuresNotCached(t *testing.T) {
	var calls atomic.Int64
	blip := errors.New("connection reset")
	r := &Runner{
		Store: simulating(func(cfg sim.Config) (*sim.Result, error) {
			if calls.Add(1) == 1 {
				return nil, &RunError{Op: "remote-sim", Err: blip} // transient
			}
			return &sim.Result{Config: cfg, Cycles: cfg.Seed}, nil
		}),
	}
	cfgs := seedPlan(1)
	if _, err := r.Run(context.Background(), cfgs); !errors.Is(err, blip) {
		t.Fatalf("first Run error = %v, want blip", err)
	}
	out, err := r.Run(context.Background(), cfgs)
	if err != nil {
		t.Fatalf("retry after transient failure: %v", err)
	}
	if out[0] == nil || out[0].Cycles != 1 {
		t.Fatalf("retry result = %+v", out[0])
	}
	if calls.Load() != 2 {
		t.Errorf("sim calls = %d, want 2 (transient failure retried)", calls.Load())
	}
}

// TestRunnerRecoversSimulatorPanics: a panicking configuration costs
// one failed run with a structured, permanent, stack-carrying RunError
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
	if !re.Panicked || !re.Permanent || re.Stack == "" {
		t.Errorf("RunError = {Panicked:%v Permanent:%v stack %d bytes}, want panicked+permanent with stack", re.Panicked, re.Permanent, len(re.Stack))
	}
	if out[0] == nil || out[2] == nil || out[1] != nil {
		t.Errorf("healthy runs lost around the panic: %v", out)
	}
}

// TestGuardInjectedPanicIsTransient: a panic value satisfying the
// injected-fault contract classifies transient — chaos testing must not
// poison the negative cache.
func TestGuardInjectedPanicIsTransient(t *testing.T) {
	guarded := Guard(func(sim.Config) (*sim.Result, error) { panic(markedPanic{}) })
	_, err := guarded(testBase())
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a RunError", err)
	}
	if re.Permanent || !re.Panicked {
		t.Errorf("injected panic classified {Permanent:%v Panicked:%v}, want transient panic", re.Permanent, re.Panicked)
	}
	if IsPermanent(err) {
		t.Error("IsPermanent(injected panic) = true")
	}
}

// markedPanic satisfies the transient-panic contract that the chaos
// harness's injected panic (internal/serve/chaos_test.go) also meets.
type markedPanic struct{}

func (markedPanic) InjectedFault() bool { return true }
