package main

import (
	"fmt"
	"os"
	"time"

	"ndpage/internal/core"
	"ndpage/internal/sim"
)

// mechanisms lists every translation mechanism the zoo sweep builds.
var mechanisms = []core.Mechanism{
	core.Radix, core.ECH, core.HugePage, core.NDPage, core.Ideal,
	core.FlattenOnly, core.BypassOnly, core.Victima, core.NMT, core.PCAX,
}

// split accumulates the untraced and traced runs of the same
// simulations, for the host-time split and the tracing overhead.
type split struct {
	tr          *tracer
	untracedSec float64 // Machine.Run, untraced
	tracedSec   float64 // the traced replica's run of the same simulations
	ops         float64 // simulated ops of the traced runs
	events      float64 // engine events of the traced runs
	metaBytes   float64 // page-table metadata of the traced machines
	mapped      float64 // pages they map
}

// tracedRun builds cfg's machine in the traced replica and runs it.
func (s *split) tracedRun(cfg sim.Config) (Digest, error) {
	d, err := newReplica(cfg, s.tr)
	if err != nil {
		return Digest{}, err
	}
	t0 := time.Now()
	g := d.run()
	s.tracedSec += time.Since(t0).Seconds()
	s.ops += float64(ops(cfg))
	s.events += float64(d.events)
	s.metaBytes += float64(d.space.Table().MetadataBytes())
	s.mapped += float64(d.space.Table().MappedPages())
	return g, nil
}

// check records one simulation's outcome against the expected digest.
func (r *result) check(desc string, want, got Digest, err error) {
	r.Attempted++
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "simbench: %s: %v\n", desc, err)
		r.Failed++
	case got != want:
		fmt.Fprintf(os.Stderr, "simbench: %s: digest mismatch:\n  want %+v\n   got %+v\n", desc, want, got)
		r.Failed++
	}
}

// tracedZoo runs one zoo sweep over apps and re-runs each of its
// machines in the traced replica, which must reproduce the sweep's
// result.
func tracedZoo(apps []string, seed uint64, s *split, res *result) (*zooUnit, error) {
	z, err := runZoo(apps, seed)
	if err != nil {
		return nil, err
	}
	if len(z.Machines) != zooMachines(apps) {
		res.Failed++
	}
	for _, m := range z.Machines {
		s.untracedSec += m.Run
		res.Attempted++
		g, err := s.tracedRun(m.Cfg)
		res.check(m.Desc+" (traced)", m.Digest, g, err)
	}
	return z, nil
}

// traced runs the per-layer measurement in this process. For a single
// simulation it alternates untraced runs (sim.New + Machine.Run) with
// traced-replica runs of the same configuration, then sweeps the ten
// mechanisms over the workload's application; for the zoo it repeats
// the sweep while --seconds allow. Every traced run must reproduce its
// untraced digest.
func traced(w workloadDef, o options) (*result, error) {
	res := &result{Metrics: metricSet{}}
	s := &split{tr: newTracer(o.seed)}
	var counts simCounts
	var zoo *zooUnit

	if w.zooApps != nil {
		start := time.Now()
		for {
			t0 := time.Now()
			z, err := tracedZoo(w.zooApps, o.seed, s, res)
			if err != nil {
				return nil, err
			}
			if zoo == nil {
				zoo = z
				for _, m := range z.Machines {
					counts.add(m.result)
				}
			} else {
				zoo.merge(z)
			}
			// Stop unless another sweep of the same length still fits.
			if (time.Since(start) + time.Since(t0)).Seconds() > o.seconds {
				break
			}
		}
	} else {
		cfg := w.seeded(o.seed)
		ref, err := sim.RunConfig(cfg)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		want := digestOf(ref)
		counts.add(ref)
		start := time.Now()
		for n := 0; n == 0 || time.Since(start).Seconds() < 0.6*o.seconds; n++ {
			m, err := sim.New(cfg)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			r := m.Run()
			s.untracedSec += time.Since(t0).Seconds()
			res.check(cfg.Desc(), want, digestOf(r), nil)
			g, err := s.tracedRun(cfg)
			res.check(cfg.Desc()+" (traced)", want, g, err)
		}
		// The ten mechanisms on this workload's application; the probe's
		// own host split is discarded.
		probe := &split{tr: newTracer(o.seed)}
		if zoo, err = tracedZoo([]string{cfg.Workload}, o.seed, probe, res); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0

	out := res.Metrics
	s.hostSplit(out)
	counts.metrics(out)
	zoo.metrics(out)
	out.add("pagetable.metadata_bytes_per_page", ratio(s.metaBytes, s.mapped), "B/page")
	return res, nil
}

// hostSplit renders the traced replica's per-layer host time. An op is
// one simulated op of any kind; the sampled events are scaled up to all
// events of the traced runs.
func (s *split) hostSplit(out metricSet) {
	tr := s.tr
	scale := ratio(s.events, tr.events)
	accounted := 0.0
	for l := 0; l < lCal; l++ {
		perOp := ratio(tr.net(l)*scale, s.ops)
		accounted += perOp
		switch l {
		case lGlue:
			out.add("sim.glue_ns_per_op", perOp, "ns/op")
		default:
			out.add(layerNames[l]+"_ns", ratio(tr.net(l), tr.calls[l]), "ns")
			out.add(layerNames[l]+"_calls_per_op", ratio(tr.calls[l]*scale, s.ops), "1/op")
		}
	}
	untraced := ratio(s.untracedSec*1e9, s.ops)
	tracedNs := ratio(s.tracedSec*1e9, s.ops)
	out.add("sim.untraced_ns_per_op", untraced, "ns/op")
	out.add("sim.traced_ns_per_op", tracedNs, "ns/op")
	out.add("sim.trace_overhead_pct", 100*(ratio(tracedNs, untraced)-1), "%")
	out.add("sim.accounted_pct", 100*ratio(accounted, untraced), "%")
}

// metrics renders the per-machine and scheduling times of the sweeps
// folded into z, per sweep.
func (z *zooUnit) metrics(out metricSet) {
	busy := 0.0
	for _, mech := range mechanisms {
		var setup, run, opsSum, n float64
		for _, m := range z.Machines {
			if m.Mech == mech.String() {
				setup += m.Setup
				run += m.Run
				opsSum += float64(m.Ops)
				n++
			}
		}
		busy += setup + run
		out.add("sim.setup_s."+mech.String(), ratio(setup, n), "s")
		out.add("sim.run_ns_per_op."+mech.String(), ratio(run*1e9, opsSum), "ns/op")
	}
	sweeps := float64(z.Sweeps)
	out.add("sweep.busy_s", busy/sweeps, "s")
	out.add("sweep.idle_pct", 100*(1-ratio(busy, z.Wall*float64(zooParallel()))), "%")
	for name, sec := range z.Figures {
		out.add("exp.figure_s."+name, sec/sweeps, "s")
	}
}
