// Command ndpexp regenerates the paper's evaluation: every figure and
// table of the NDPage paper (DATE 2025), printed as aligned text and
// written as CSV under -out.
//
// Usage:
//
//	ndpexp                         # all figures, full scale (minutes)
//	ndpexp -quick                  # all figures, reduced scale
//	ndpexp -figs fig12,fig14       # a subset
//	ndpexp -figs mlp-sensitivity   # the core-MLP sweep (non-blocking cores)
//	ndpexp -workloads rnd,pr,gen   # a workload subset
//	ndpexp -cache results/.cache   # persist runs; re-runs simulate nothing new
//	ndpexp -cache http://host:8947 # share runs through an ndpserve instance
//
// With -cache, every simulation's result lands in the cache keyed by
// its configuration's content hash, so an interrupted regeneration
// (Ctrl-C cancels cleanly) resumes where it stopped and repeated
// regenerations at the same budgets perform zero simulations. A
// directory keeps the cache private to this machine; an http(s):// URL
// points at a shared ndpserve instance instead — warm keys are fetched
// from the server, cold runs execute server-side with singleflight
// dedupe (identical configurations from any number of clients cost one
// simulation), and progress lines report server runs as "done" and
// served keys as "cached" exactly like the local cache.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ndpage"
	"ndpage/internal/sweep"
)

func main() {
	var (
		quick     = flag.Bool("quick", false, "reduced scale (faster, noisier)")
		figsArg   = flag.String("figs", "all", "comma-separated: fig4,fig5,fig6,fig7,fig8,motivation,pwc,fig12,fig13,fig14,ablation (plus extras: mechanism-comparison,pwc-sensitivity,hbm-sensitivity,walker-sensitivity,mlp-sensitivity,population-sensitivity,oversubscription)")
		wlArg     = flag.String("workloads", "", "comma-separated workload subset: builtin names or trace:<file> replays (default: all 11)")
		outDir    = flag.String("out", "results", "directory for CSV output (empty = no files)")
		cacheDir  = flag.String("cache", "", "persistent run cache: a directory, or the http(s):// URL of a shared ndpserve instance (empty = in-memory only)")
		parallel  = flag.Int("parallel", 0, "max concurrent simulations (0 = auto)")
		instr     = flag.Uint64("instructions", 0, "measured ops per core (0 = default)")
		footprint = flag.Uint64("footprint", 0, "dataset bytes (0 = scaled default)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	e := &ndpage.Experiments{
		Instructions: *instr,
		Footprint:    *footprint,
		Parallel:     *parallel,
		Progress:     os.Stderr,
		Context:      ctx,
	}
	figures, err := selectFigures(*figsArg, e)
	if err != nil {
		fatal(err)
	}
	if *cacheDir != "" {
		store, err := sweep.OpenStore(ctx, *cacheDir)
		if err != nil {
			fatal(err)
		}
		e.Cache = store
	}
	if *quick {
		if e.Instructions == 0 {
			e.Instructions = 60_000
		}
		e.Warmup = 10_000
	}
	if *wlArg != "" {
		e.Workloads = strings.Split(*wlArg, ",")
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}

	start := time.Now()
	for _, f := range figures {
		t0 := time.Now()
		tab, err := f.run()
		if err != nil {
			fatal(err)
		}
		fmt.Println(tab)
		fmt.Printf("[%s in %v]\n\n", f.name, time.Since(t0).Round(time.Millisecond))
		if *outDir != "" {
			path := filepath.Join(*outDir, f.name+".csv")
			if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
				fatal(err)
			}
		}
	}
	fmt.Printf("total %v\n", time.Since(start).Round(time.Second))
}

// figure is one table ndpexp can regenerate, by its -figs name.
type figure struct {
	name string
	run  func() (*ndpage.Table, error)
}

// selectFigures resolves the -figs argument to the figures to run, in
// report order: "all" is the paper's figures; otherwise a comma-separated
// list drawn from the paper's figures and the extras. An unknown name is
// an error listing the valid ones.
func selectFigures(arg string, e *ndpage.Experiments) ([]figure, error) {
	figures := []figure{
		{"fig4", e.Fig4}, {"fig5", e.Fig5}, {"fig6", e.Fig6},
		{"fig7", e.Fig7}, {"fig8", e.Fig8},
		{"motivation", e.Motivation}, {"pwc", e.PWCRates},
		{"fig12", e.Fig12}, {"fig13", e.Fig13}, {"fig14", e.Fig14},
		{"ablation", e.Ablation},
	}
	if arg == "all" {
		return figures, nil
	}
	figures = append(figures,
		figure{"mechanism-comparison", e.MechanismComparison},
		figure{"pwc-sensitivity", e.PWCSensitivity},
		figure{"hbm-sensitivity", e.HBMChannelSensitivity},
		figure{"walker-sensitivity", e.WalkerWidthSensitivity},
		figure{"mlp-sensitivity", e.MLPSensitivity},
		figure{"population-sensitivity", e.PopulationSensitivity},
		figure{"oversubscription", e.OversubscriptionStudy},
	)
	want := map[string]bool{}
	for _, name := range strings.Split(arg, ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[name] = true
		}
	}
	var out []figure
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
		if want[f.name] {
			out = append(out, f)
			delete(want, f.name)
		}
	}
	if len(want) == 0 && len(out) > 0 {
		return out, nil
	}
	problem := "no figure named"
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for name := range want {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		problem = "unknown figure " + strings.Join(unknown, ", ")
	}
	return nil, fmt.Errorf("-figs %q: %s (valid: all, %s)", arg, problem, strings.Join(names, ", "))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ndpexp:", err)
	os.Exit(1)
}
