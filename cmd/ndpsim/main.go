// Command ndpsim runs one simulation and prints its metric summary.
//
// Usage:
//
//	ndpsim -system ndp -mech NDPage -cores 4 -workload bfs
//	ndpsim -mech Radix -workload rnd -instructions 500000
//	ndpsim -mech Radix -cores 4 -mlp 4 -shared-walker -walker-width 2
//	ndpsim -mech NDPage -workload gups -json > run.json
//	ndpsim -mech NDPage -cpuprofile cpu.pprof -memprofile mem.pprof
//	ndpsim -mech NDPage -cores 4 -cache http://host:8947
//
// -json emits the full result — every counter, histogram, and the
// normalized configuration — as the same JSON document the sweep
// cache stores, instead of the human-readable summary.
//
// -cache runs through the content-addressed run cache: a directory
// serves repeat invocations from disk without simulating; an http(s)://
// URL points at a shared ndpserve instance, which serves warm keys
// from its store and runs cold configurations server-side (identical
// requests from any number of clients collapse into one simulation).
//
// -cpuprofile and -memprofile write pprof profiles of the simulation
// (construction + run; the CPU profile excludes flag parsing, the heap
// profile is taken after the run completes, with the machine still
// live), for `go tool pprof`. Under -cache the cache runs (or skips)
// the simulation and keeps no machine, so that heap profile shows
// little of it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"ndpage"
	"ndpage/internal/addr"
	"ndpage/internal/sim"
	"ndpage/internal/sweep"
)

// errFlagParse marks a flag-parsing failure the FlagSet has already
// reported (with usage) on stderr; main exits nonzero without
// repeating it.
var errFlagParse = errors.New("flag parsing failed")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errFlagParse) {
			fmt.Fprintln(os.Stderr, "ndpsim:", err)
		}
		os.Exit(1)
	}
}

// run executes one ndpsim invocation: parse args, simulate, report.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ndpsim", flag.ContinueOnError)
	var (
		system     = fs.String("system", "ndp", "system kind: ndp or cpu (Table I)")
		mechName   = fs.String("mech", "NDPage", "translation mechanism: Radix, ECH, HugePage, NDPage, Ideal, FlattenOnly, BypassOnly, Victima, NMT, PCAX")
		cores      = fs.Int("cores", 1, "number of cores (1-64)")
		wl         = fs.String("workload", "bfs", "workload name (see -list), or trace:<file> to replay a capture")
		footprint  = fs.Uint64("footprint", 0, "dataset bytes (0 = scaled default)")
		memory     = fs.Uint64("memory", 0, "physical memory bytes (0 = 16 GB)")
		instr      = fs.Uint64("instructions", 0, "measured ops per core (0 = 300k)")
		warmup     = fs.Uint64("warmup", 0, "warmup ops per core (0 = 30k)")
		seed       = fs.Uint64("seed", 0, "random seed (0 = 42)")
		width      = fs.Int("walker-width", 0, "concurrent walk slots per walker (0 = 1, blocking)")
		shared     = fs.Bool("shared-walker", false, "serve all cores' misses from one cluster-level walker")
		mlp        = fs.Int("mlp", 0, "per-core in-flight memory-op window (0 = 1, blocking core)")
		vGate      = fs.Int("victima-gate", 0, "Victima only: walks before a translation block is admitted (0 = 2)")
		promote    = fs.Bool("identity-promote", false, "NMT only: identity-map demand-faulted chunks too")
		pcxEntries = fs.Int("pcx-entries", 0, "PCAX only: PC-indexed table entries (0 = 512)")
		cache      = fs.String("cache", "", "run cache: a directory, or the http(s):// URL of a shared ndpserve instance (empty = always simulate locally)")
		jsonOut    = fs.Bool("json", false, "emit the full result as JSON instead of the text summary")
		list       = fs.Bool("list", false, "list workloads and exit")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the simulation to FILE")
		memProfile = fs.String("memprofile", "", "write a heap profile (post-run, machine still live) to FILE")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: usage already printed, clean exit
		}
		return errFlagParse
	}

	if *list {
		fmt.Fprint(out, ndpage.TableII())
		return nil
	}

	mech, err := ndpage.ParseMechanism(*mechName)
	if err != nil {
		return err
	}
	sys := ndpage.NDP
	switch *system {
	case "ndp":
	case "cpu":
		sys = ndpage.CPU
	default:
		return fmt.Errorf("unknown system %q (want ndp or cpu)", *system)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	cfg := ndpage.Config{
		System:          sys,
		Cores:           *cores,
		Mechanism:       mech,
		Workload:        *wl,
		FootprintBytes:  *footprint,
		MemoryBytes:     *memory,
		Instructions:    *instr,
		Warmup:          *warmup,
		Seed:            *seed,
		WalkerWidth:     *width,
		SharedWalker:    *shared,
		MLP:             *mlp,
		VictimaGate:     *vGate,
		IdentityPromote: *promote,
		PCXEntries:      *pcxEntries,
	}
	var (
		res *ndpage.Result
		m   *sim.Machine // kept live until the heap profile is written
	)
	if *cache != "" {
		// The Sweep runner supplies the cache discipline ndpexp uses: key
		// the normalized config, serve warm keys without simulating, store
		// fresh results — and delegate cold runs to a store that can
		// compute (the remote case).
		ctx := context.Background()
		var store ndpage.Store
		if store, err = sweep.OpenStore(ctx, *cache); err == nil {
			res, err = (&ndpage.Sweep{Store: store, Parallel: 1}).RunOne(ctx, cfg)
		}
	} else if m, err = sim.New(cfg); err == nil {
		res = m.Run()
	}
	if err != nil {
		return err
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC() // materialize the retained heap
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		runtime.KeepAlive(m)
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}

	printSummary(out, *system, mech, *cores, *wl, *shared, *width, *mlp, res)
	return nil
}

// printSummary renders the human-readable metric summary.
func printSummary(out io.Writer, system string, mech ndpage.Mechanism, cores int, wl string, shared bool, width, mlp int, res *ndpage.Result) {
	fmt.Fprintf(out, "system=%s mechanism=%s cores=%d workload=%s\n", system, mech, cores, wl)
	fmt.Fprintf(out, "  instructions        %d (%d loads, %d stores)\n", res.Instructions, res.Loads, res.Stores)
	fmt.Fprintf(out, "  cycles              %d (CPI %.2f)\n", res.Cycles, res.CPI())
	fmt.Fprintf(out, "  translation         %.1f%% of time, %d walks, mean PTW %.1f cycles\n",
		100*res.TranslationOverhead(), res.Walks, res.MeanPTWLatency())
	fmt.Fprintf(out, "  TLB miss rate       %.2f%% (L1 %.2f%%, L2 %.2f%%)\n",
		100*res.TLBMissRate(), 100*res.L1TLB.MissRate(), 100*res.L2TLB.MissRate())
	if shared || width > 1 || mlp > 1 {
		fmt.Fprintf(out, "  walker              MSHR hits %d (%.2f%%), overlapped %d (%.2f%%), queued %d (%.1f cycles/walk), peak in-flight %d\n",
			res.MSHRHits, 100*res.MSHRHitRate(), res.OverlappedWalks, 100*res.WalkOverlapRate(),
			res.QueuedWalks, res.MeanWalkQueueCycles(), res.MaxConcurrentWalks)
		fmt.Fprintf(out, "  walk overlap        mean %.2f in flight%s\n", res.MeanWalkConcurrency(), hist(res.WalkOverlapHist))
	}
	if mlp > 1 {
		fmt.Fprintf(out, "  core window         mean %.2f ops in flight (MLP %d)%s\n",
			res.MeanInFlight(), res.Config.MLP, hist(res.InFlightHist))
	}
	switch mech {
	case ndpage.Victima:
		fmt.Fprintf(out, "  victima             %d probes, %.1f%% hit, %d fills (%d deferred), %d data lines displaced\n",
			res.VictimaProbes, 100*res.VictimaHitRate(), res.VictimaFills, res.VictimaDeferred, res.DataEvictedByXlat)
	case ndpage.NMT:
		fmt.Fprintf(out, "  identity            %.1f%% of translations identity-mapped (%d of %d)\n",
			100*res.IdentityHitRate(), res.IdentityHits, res.IdentityHits+res.IdentityMisses)
	case ndpage.PCAX:
		fmt.Fprintf(out, "  pcx                 %.1f%% hit on L1-TLB miss (%d of %d probes)\n",
			100*res.PCXHitRate(), res.PCX.Hits, res.PCX.Total())
	}
	fmt.Fprintf(out, "  PTE share           %.1f%% of memory accesses (%d PTE accesses)\n",
		100*res.PTEAccessShare(), res.PTEAccesses)
	fmt.Fprintf(out, "  L1 miss rates       data %.2f%%, metadata %.2f%% (%d bypassed)\n",
		100*res.L1DataMissRate(), 100*res.L1PTEMissRate(), res.L1Bypassed)
	fmt.Fprintf(out, "  PWC hit rates       PL4 %.1f%% PL3 %.1f%% PL2 %.1f%%\n",
		100*res.PWCHitRate(addr.PL4), 100*res.PWCHitRate(addr.PL3), 100*res.PWCHitRate(addr.PL2))
	fmt.Fprintf(out, "  DRAM                mean latency %.1f cycles, mean queue %.1f\n",
		res.DRAMMeanLatency, res.DRAMMeanQueue)
	fmt.Fprintf(out, "  faults              %d x 4K, %d x 2M, %d huge fallbacks, %d compaction cycles\n",
		res.Faults4K, res.Faults2M, res.HugeFallbacks, res.CompactionCycles)
	fmt.Fprintf(out, "  page table          %d mapped pages\n", res.MappedPages)
	for _, o := range res.Occupancy {
		fmt.Fprintf(out, "    %-6s %6d nodes, occupancy %6.2f%%\n", o.Level, o.Nodes, 100*o.Rate())
	}
}

// hist renders a 1-indexed occupancy histogram as "; 1: n1, 2: n2, ...",
// or empty when there is nothing beyond solo occupancy to show.
func hist(h []uint64) string {
	if len(h) <= 2 {
		return ""
	}
	s := ";"
	for k := 1; k < len(h); k++ {
		s += fmt.Sprintf(" %d: %d", k, h[k])
		if k < len(h)-1 {
			s += ","
		}
	}
	return s
}
