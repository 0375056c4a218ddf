package sim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ndpage/internal/core"
)

// TestEngineQueueDifferential pins whole simulations to the binary-heap
// event queue the calendar wheel replaced. testdata/engine_queue_golden.json
// holds the heap's full Results for fresh configurations (blocking and
// MLP, narrow and shared walkers), captured on the last commit that
// still ran both queues side by side and found them deeply equal; the
// ECH entry was re-captured at ModelVersion 2 by a build whose Engine
// dispatched through the heap. The timing goldens pin two
// configurations' headline counters; this test pins every counter, so
// a dispatch-order divergence they miss still fails, and it pins each
// run's dispatched-event count, so a change that adds or drops events
// fails even when every counter agrees. The heap itself lives on as
// internal/engine's test oracle.
func TestEngineQueueDifferential(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "engine_queue_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]*Result
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	cfgs := map[string]Config{
		"blocking-2core-bfs": goldenCfg(2, core.NDPage, "bfs"),
		"blocking-4core-rnd": goldenCfg(4, core.Radix, "rnd"),
	}
	mlp := goldenCfg(4, core.ECH, "dlrm")
	mlp.MLP = 8
	mlp.SharedWalker = true
	mlp.WalkerWidth = 4
	cfgs["mlp8-4core-dlrm"] = mlp
	dispatched := map[string]uint64{
		"blocking-2core-bfs": 61845,
		"blocking-4core-rnd": 101340,
		"mlp8-4core-dlrm":    173347,
	}
	if len(want) != len(cfgs) {
		t.Fatalf("golden holds %d results, want %d", len(want), len(cfgs))
	}

	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := m.Run()
			if !reflect.DeepEqual(got, want[name]) {
				t.Errorf("result diverges from the heap queue's:\ncalendar: %+v\nheap:     %+v",
					got, want[name])
			}
			if d := m.eng.Dispatched(); d != dispatched[name] {
				t.Errorf("dispatched %d events, want %d", d, dispatched[name])
			}
		})
	}
}
