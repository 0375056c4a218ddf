// Command simbench is the simulator's benchmark. It runs one named
// workload for a fixed host time, checks that every simulation's
// outcome is exact, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as a JSON object on its last line.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"ndpage/internal/sim"
)

// minUnits is the fewest measured units one untraced run takes,
// however short --seconds is.
const minUnits = 3

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// unitResult is one measured unit of work, reported by a child process.
type unitResult struct {
	Setup   float64 // s in sim.New, summed over machines
	Run     float64 // s in Machine.Run, summed over machines
	Wall    float64 // s for the whole unit
	Ops     uint64  // simulated ops, every core, warmup included
	Sims    int
	Digests map[string]Digest // by configuration
}

func main() {
	var o options
	var trace int
	var unit, ref bool
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "ndpage-bfs", "workload: ndpage-bfs, radix-gups, mlp-pr or zoo-sweep")
	fs.Uint64Var(&o.seed, "seed", 42, "workload seed (0 selects the simulator's default seed)")
	fs.Float64Var(&o.seconds, "seconds", 25, "host seconds to measure")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead")
	fs.BoolVar(&unit, "unit", false, "internal: run one measured unit and print it")
	fs.BoolVar(&ref, "ref", false, "internal: print sim.RunConfig's digest for the workload")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "simbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	o.trace = trace == 1
	if err := run(o, unit, ref); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

func run(o options, unit, ref bool) error {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	switch {
	case unit:
		u, err := measureUnit(w, o.seed)
		if err != nil {
			return err
		}
		return enc.Encode(u)
	case ref:
		r, err := sim.RunConfig(w.seeded(o.seed))
		if err != nil {
			return err
		}
		return enc.Encode(digestOf(r))
	}
	var res *result
	if o.trace {
		res, err = traced(w, o)
	} else {
		res, err = untraced(w, o)
	}
	if err != nil {
		return err
	}
	fmt.Println(buildInfo(o))
	return enc.Encode(res)
}

// measureUnit runs one unit of the workload in this process: one
// simulation, or one zoo sweep.
func measureUnit(w workloadDef, seed uint64) (*unitResult, error) {
	start := time.Now()
	if w.zooApps != nil {
		z, err := runZoo(w.zooApps, seed)
		if err != nil {
			return nil, err
		}
		u := &unitResult{Wall: time.Since(start).Seconds(), Digests: map[string]Digest{}}
		for _, m := range z.Machines {
			u.Setup += m.Setup
			u.Run += m.Run
			u.Ops += m.Ops
			u.Sims++
			u.Digests[m.Desc] = m.Digest
		}
		return u, nil
	}
	cfg := w.seeded(seed)
	m, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	setup := time.Since(start)
	r := m.Run()
	wall := time.Since(start)
	return &unitResult{
		Setup: setup.Seconds(), Run: (wall - setup).Seconds(), Wall: wall.Seconds(),
		Ops: ops(cfg), Sims: 1, Digests: map[string]Digest{cfg.Desc(): digestOf(r)},
	}, nil
}

// child runs this binary with args and decodes its JSON output into v,
// returning the child's peak resident set in MB.
func child(v any, args ...string) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", filepath.Base(exe), err)
	}
	if err := json.Unmarshal(out, v); err != nil {
		return 0, fmt.Errorf("decoding child output: %w", err)
	}
	rss := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rss, nil
}

// untraced measures the end-to-end metrics: it runs units in fresh
// child processes until --seconds have passed and reports medians.
func untraced(w workloadDef, o options) (*result, error) {
	args := []string{"--workload", w.name, "--seed", strconv.FormatUint(o.seed, 10)}
	res := &result{Correct: true, Metrics: metricSet{}}

	// The reference outcome: sim.RunConfig itself for one simulation;
	// the first unit's outcome for the zoo, whose repeats must match it.
	var want map[string]Digest
	if w.zooApps == nil {
		var d Digest
		if _, err := child(&d, append(args, "--ref")...); err != nil {
			return nil, err
		}
		want = map[string]Digest{w.seeded(o.seed).Desc(): d}
	}

	var setup, wall, rate, rss []float64
	start := time.Now()
	for n := 0; n < minUnits || time.Since(start).Seconds() < o.seconds; n++ {
		var u unitResult
		mb, err := child(&u, append(args, "--unit")...)
		if err != nil {
			// A unit that fails to run still counts as one attempt.
			fmt.Fprintln(os.Stderr, "simbench: unit failed:", err)
			res.Attempted++
			res.Failed++
			continue
		}
		if want == nil {
			want = u.Digests
		}
		res.Attempted += u.Sims
		res.Failed += mismatches(want, u.Digests)
		setup = append(setup, u.Setup)
		wall = append(wall, u.Wall)
		rate = append(rate, float64(u.Ops)/u.Run)
		rss = append(rss, mb)
		fmt.Fprintf(os.Stderr, "simbench: unit %d: setup %.4fs run %.4fs wall %.4fs rss %.1fMB\n", n, u.Setup, u.Run, u.Wall, mb)
	}
	if w.zooApps != nil && len(want) != zooMachines(w.zooApps) {
		res.Failed++
	}
	res.Correct = res.Failed == 0 && len(wall) > 0
	res.Metrics.add("sim_instr_per_s", median(rate), "1/s")
	res.Metrics.add("setup_s", median(setup), "s")
	res.Metrics.add("wall_s", median(wall), "s")
	res.Metrics.add("peak_rss_mb", median(rss), "MB")
	return res, nil
}

// mismatches counts the configurations in got whose digest differs from
// want's, or that want lacks, plus those of want that got lacks.
func mismatches(want, got map[string]Digest) int {
	n := 0
	for k, d := range got {
		if w, ok := want[k]; !ok || w != d {
			n++
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			n++
		}
	}
	return n
}

// buildInfo describes the measuring binary and host on one line.
func buildInfo(o options) string {
	pgo := "off"
	goVersion := runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-pgo" && s.Value != "" {
				pgo = filepath.Base(s.Value)
			}
		}
	}
	return fmt.Sprintf("simbench: workload=%s seed=%d trace=%t pgo=%s go=%s gomaxprocs=%d nproc=%d",
		o.workload, o.seed, o.trace, pgo, goVersion, runtime.GOMAXPROCS(0), runtime.NumCPU())
}
