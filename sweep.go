package ndpage

import (
	"ndpage/internal/sweep"
)

// Plan declares a cross product of simulation configurations — the
// shape of the paper's evaluation (systems x mechanisms x cores x
// workloads) and of any custom design-space study. Base seeds every
// run, non-empty axes multiply, and Variants append arbitrary Config
// mutations as a final axis:
//
//	plan := ndpage.Plan{
//		Base:       ndpage.Config{Instructions: 100_000},
//		Systems:    []ndpage.System{ndpage.NDP},
//		Mechanisms: []ndpage.Mechanism{ndpage.Radix, ndpage.NDPage},
//		Cores:      []int{1, 4, 8},
//		Workloads:  []string{"bfs", "gups"},
//	}
//	results, err := new(ndpage.Sweep).RunPlan(ctx, plan)
type Plan = sweep.Plan

// Variant is one named Config mutation on a Plan's variant axis.
type Variant = sweep.Variant

// Sweep executes simulation configurations on a bounded worker pool,
// deduplicating runs by Config.Key() against a pluggable Store. The
// zero value is ready to use (in-memory store, min(4, GOMAXPROCS)
// workers). Point Store at NewDirStore to make sweeps incremental
// across processes: a cancelled or killed sweep resumes from the runs
// that already completed.
type Sweep = sweep.Runner

// SweepEvent reports one run's fate (simulated, cached, or failed) to
// Sweep.Progress.
type SweepEvent = sweep.Event

// Store persists sweep results content-addressed by Config.Key().
type Store = sweep.Store

// StoreInventory is the optional Store extension for stores that can
// count their contents cheaply (MemStore and DirStore implement it).
type StoreInventory = sweep.Inventory

// NewMemStore returns an in-process result store.
func NewMemStore() *sweep.MemStore { return sweep.NewMemStore() }

// NewDirStore opens (creating if needed) an on-disk result store: one
// JSON file per run, named by the config's content hash, written
// atomically.
func NewDirStore(dir string) (*sweep.DirStore, error) { return sweep.NewDirStore(dir) }

// RemoteStore is a Store backed by a shared ndpserve instance: warm
// keys are fetched over HTTP once into a local cache, which serves them
// from then on, and cold sweep runs are delegated to the server's
// singleflight scheduler, which collapses identical requests from every
// client into a single simulation and stores the result. Put only
// fills the local cache. Point Sweep.Store (or Experiments.Cache) at one
// to share the run cache across users and machines.
type RemoteStore = sweep.RemoteStore

// NewRemoteStore returns a RemoteStore talking to the ndpserve instance
// at baseURL (e.g. "http://localhost:8947").
func NewRemoteStore(baseURL string) (*sweep.RemoteStore, error) { return sweep.NewRemoteStore(baseURL) }

// RunError is the structured failure of one simulation run: a
// recovered simulator panic, or a run that failed on the ndpserve
// instance behind a RemoteStore. A failed simulation is final: the
// simulator is deterministic, so retrying reproduces it. Only transport
// failures retry, inside RemoteStore; a later Sweep.Run simulates the
// configuration again.
type RunError = sweep.RunError

// BreakerState is a RemoteStore circuit breaker's position: closed
// (normal service), open (degraded local operation), or half-open (a
// recovery probe in flight).
type BreakerState = sweep.BreakerState

// The breaker positions.
const (
	BreakerClosed   = sweep.BreakerClosed
	BreakerOpen     = sweep.BreakerOpen
	BreakerHalfOpen = sweep.BreakerHalfOpen
)
