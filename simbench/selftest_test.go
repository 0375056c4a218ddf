package main

import (
	"math"
	"testing"

	"ndpage/internal/core"
	"ndpage/internal/memsys"
	"ndpage/internal/sim"
	"ndpage/internal/workload"
)

// tiny is a configuration small enough to simulate in milliseconds.
func tiny(mech core.Mechanism, wl string) sim.Config {
	return sim.Config{
		System: memsys.NDP, Cores: 2, Mechanism: mech, Workload: wl,
		FootprintBytes: 64 << 20, Warmup: 500, Instructions: 3000, Seed: 7,
	}
}

// The traced replica must reproduce sim.RunConfig exactly, for every
// mechanism on the blocking core and for the non-blocking core.
func TestReplicaMatchesRunConfig(t *testing.T) {
	cfgs := map[string]sim.Config{}
	for _, m := range mechanisms {
		cfgs[m.String()] = tiny(m, "pr")
	}
	mlp := tiny(core.Radix, "pr")
	mlp.MLP, mlp.SharedWalker, mlp.WalkerWidth = 4, true, 2
	cfgs["Radix+mlp4"] = mlp

	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			r, err := sim.RunConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := &split{tr: newTracer(1)}
			got, err := s.tracedRun(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := digestOf(r); got != want {
				t.Fatalf("traced digest differs from sim.RunConfig:\n want %+v\n  got %+v", want, got)
			}
			if s.tr.events == 0 {
				t.Fatal("no engine event was sampled")
			}
		})
	}
}

// The sampler must pick memory ops at the same rate whatever their
// kind: gups' fixed load/compute/store pattern is where a stride would
// pick mostly one kind.
func TestSamplerIndependentOfKind(t *testing.T) {
	tr := newTracer(3)
	d, err := newReplica(tiny(core.Radix, "rnd"), tr)
	if err != nil {
		t.Fatal(err)
	}
	gen := d.cores[0].gen
	var op workload.Op
	var seen, picked [3]float64
	for n := 0; n < 400_000; n++ {
		gen.Next(&op)
		if op.Kind == workload.Compute {
			continue
		}
		seen[op.Kind]++
		if tr.sample() {
			picked[op.Kind]++
		}
	}
	want := 1.0 / (1 << sampleShift)
	for _, k := range []workload.OpKind{workload.Load, workload.Store} {
		if seen[k] < 10_000 {
			t.Fatalf("only %v ops of kind %d", seen[k], k)
		}
		rate := picked[k] / seen[k]
		// Five binomial standard deviations.
		if tol := 5 * math.Sqrt(want*(1-want)/seen[k]); math.Abs(rate-want) > tol {
			t.Errorf("kind %d sampled at %.4f, want %.4f ± %.4f", k, rate, want, tol)
		}
	}
}

// Span accounting: self times partition the root spans exactly, and
// every span's direct children are counted for the clock-read
// correction.
func TestSpanAccounting(t *testing.T) {
	const n = 10_000
	tr := newTracer(1)
	var roots int64
	for i := 0; i < n; i++ {
		root := tr.begin()
		tr.end(tr.begin(), lCal, false)
		inner := tr.begin()
		tr.end(tr.begin(), lNext, true)
		tr.end(inner, lTouch, true)
		tr.end(root, lEngine, true)
		roots += tr.child // the root's duration
		tr.child, tr.kids = 0, 0
	}
	var self int64
	for _, r := range tr.raw {
		self += r
	}
	if self != roots {
		t.Errorf("self times sum to %d ticks, root spans last %d", self, roots)
	}
	if tr.nkids[lEngine] != 2*n || tr.nkids[lTouch] != n || tr.nkids[lNext] != 0 {
		t.Errorf("children counted %v", tr.nkids)
	}
	if tr.calls[lNext] != n || tr.calls[lCal] != 0 {
		t.Errorf("calls counted %v", tr.calls)
	}
}
