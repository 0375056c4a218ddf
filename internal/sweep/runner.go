package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"ndpage/internal/sim"
)

// Event reports one run's fate to the Runner's Progress hook: a fresh
// simulation (Cycles, Elapsed), a store hit (Cached), or a failure
// (Err). Failed runs emit events too — a sweep that loses runs says so
// instead of completing silently thinner.
type Event struct {
	// Config is the normalized configuration of the run.
	Config sim.Config
	// Key is the run's content-address (Config.Key()).
	Key string
	// Cached marks a result served from the Store without simulating.
	// The Runner announces each cached key at most once per lifetime,
	// however many plan cells share the run, and only for results it
	// did not itself simulate (a pre-populated persistent cache).
	Cached bool
	// Err is the simulation (or store) failure, nil on success.
	Err error
	// Cycles is the run's parallel completion time (0 on failure).
	Cycles uint64
	// Elapsed is wall-clock simulation time (0 for cached results).
	Elapsed time.Duration
}

// Desc formats the event's run for a progress line.
func (e Event) Desc() string { return e.Config.Desc() }

// Runner executes simulation configurations through a bounded worker
// pool, deduplicating by content hash against a pluggable Store. The
// zero value is ready to use: it simulates with sim.RunConfig, stores
// results in a private in-memory store, and bounds parallelism at
// min(4, GOMAXPROCS). Simulator panics are recovered into structured
// RunErrors (see Guard), so one poisoned configuration fails its run
// instead of the process. A failure is reported to the Run that
// observed it and not remembered: a later Run simulates the
// configuration again. A Runner is safe for concurrent use; note that
// concurrent Run calls whose plans overlap may simulate a shared
// configuration twice (the store is consulted when each call starts) —
// results stay correct, only the duplicated work is wasted.
type Runner struct {
	// Store caches results across Run calls — and, for DirStore, across
	// processes. Nil selects a fresh in-memory store. A Store that also
	// implements Simulator (RemoteStore) additionally takes over cold
	// runs; otherwise they run in-process with sim.RunConfig.
	Store Store
	// Parallel bounds concurrent simulations (0 = min(4, GOMAXPROCS)).
	Parallel int
	// Progress, when non-nil, receives one Event per run: simulated,
	// cached (first service only), or failed. Called serially.
	Progress func(Event)

	mu     sync.Mutex
	store  Store
	served map[string]bool // keys already announced to Progress

	// progressMu serializes Progress callbacks separately from the
	// state mutex, so a slow or re-entrant callback cannot stall the
	// worker pool or deadlock the Runner.
	progressMu sync.Mutex
}

// init resolves the lazy fields; callers hold no lock.
func (r *Runner) init() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.store == nil {
		r.store = r.Store
		if r.store == nil {
			r.store = NewMemStore()
		}
	}
	if r.served == nil {
		r.served = make(map[string]bool)
	}
}

func (r *Runner) parallel() int {
	if r.Parallel > 0 {
		return r.Parallel
	}
	p := runtime.GOMAXPROCS(0)
	if p > 4 {
		p = 4
	}
	return p
}

func (r *Runner) sim(cfg sim.Config) (*sim.Result, error) {
	if s, ok := r.store.(Simulator); ok {
		return Guard(s.Simulate)(cfg)
	}
	return Guard(sim.RunConfig)(cfg)
}

// emit serializes Progress callbacks.
func (r *Runner) emit(e Event) {
	if r.Progress == nil {
		return
	}
	r.progressMu.Lock()
	defer r.progressMu.Unlock()
	r.Progress(e)
}

// RunPlan expands the plan and runs it; see Run.
func (r *Runner) RunPlan(ctx context.Context, p Plan) ([]*sim.Result, error) {
	cfgs, err := p.Configs()
	if err != nil {
		return nil, err
	}
	return r.Run(ctx, cfgs)
}

// RunOne runs a single configuration; see Run.
func (r *Runner) RunOne(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	res, err := r.Run(ctx, []sim.Config{cfg})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// Run executes cfgs and returns their results in input order. Results
// already in the Store (or duplicated within cfgs) are served without
// simulating; the rest run on the worker pool, heaviest (most cores)
// first, each stored under its config key on completion — so a killed
// or cancelled sweep, re-run against the same persistent Store, resumes
// incrementally instead of starting over.
//
// Cancelling ctx stops dispatching new runs; in-flight simulations
// complete and are stored. The returned error is the first failure in
// input order — a validation error, a simulation error, a store write
// error, or ctx's error for runs never dispatched. Failed and
// undispatched positions hold nil; a store write failure is the one
// case that returns an error alongside a non-nil result, since the
// simulation itself succeeded.
func (r *Runner) Run(ctx context.Context, cfgs []sim.Config) ([]*sim.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r.init()
	n := len(cfgs)
	norm := make([]sim.Config, n)
	keys := make([]string, n)
	for i, c := range cfgs {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: %s: %w", c.Desc(), err)
		}
		norm[i] = c.Normalize()
		keys[i] = norm[i].Key()
	}

	// This Run's results and failures (simulations, store writes), by
	// key; both guarded by r.mu.
	results := make(map[string]*sim.Result, n)
	runErrs := make(map[string]error)

	// Serve store hits; queue the rest once per unique key.
	var pending []int
	queued := make(map[string]bool)
	for i := range norm {
		k := keys[i]
		if queued[k] {
			continue
		}
		queued[k] = true
		res, ok, err := r.store.Get(k)
		if err != nil {
			return nil, err
		}
		if ok {
			r.mu.Lock()
			results[k] = res
			announce := !r.served[k]
			r.served[k] = true
			r.mu.Unlock()
			if announce {
				r.emit(Event{Config: norm[i], Key: k, Cached: true, Cycles: res.Cycles})
			}
			continue
		}
		pending = append(pending, i)
	}

	// Heavier configurations first for better pool packing.
	sort.SliceStable(pending, func(a, b int) bool {
		return norm[pending[a]].Cores > norm[pending[b]].Cores
	})

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < r.parallel(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				r.runOne(norm[i], keys[i], results, runErrs)
			}
		}()
	}
dispatch:
	for _, i := range pending {
		// Checked before each send: a bare two-case select would pick
		// randomly between a ready worker and a done context.
		if ctx.Err() != nil {
			break
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	// Assemble in input order; surface the first failure.
	out := make([]*sim.Result, n)
	var firstErr error
	for i, k := range keys {
		r.mu.Lock()
		out[i] = results[k]
		err := runErrs[k]
		r.mu.Unlock()
		if out[i] == nil && err == nil {
			err = ctx.Err() // never dispatched
		}
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	return out, firstErr
}

// runOne simulates one configuration on a worker and records the
// outcome.
func (r *Runner) runOne(cfg sim.Config, key string, results map[string]*sim.Result, runErrs map[string]error) {
	start := time.Now()
	res, err := r.sim(cfg)
	if err != nil {
		err = fmt.Errorf("sweep: %s: %w", cfg.Desc(), err)
		r.mu.Lock()
		runErrs[key] = err
		r.mu.Unlock()
		r.emit(Event{Config: cfg, Key: key, Err: err, Elapsed: time.Since(start)})
		return
	}
	// A failed cache write is a real I/O problem the caller must see,
	// but the computed result is still good — record both.
	var putErr error
	if perr := r.store.Put(key, res); perr != nil {
		putErr = fmt.Errorf("sweep: %s: %w", cfg.Desc(), perr)
	}
	r.mu.Lock()
	results[key] = res
	if putErr != nil {
		runErrs[key] = putErr
	}
	// Later store hits on this key are memo hits of our own work, not
	// cache reuse — don't announce them as cached.
	r.served[key] = true
	r.mu.Unlock()
	r.emit(Event{Config: cfg, Key: key, Err: putErr, Cycles: res.Cycles, Elapsed: time.Since(start)})
}
