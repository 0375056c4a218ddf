package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ndpage/internal/addr"
	"ndpage/internal/core"
	"ndpage/internal/memsys"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// jsonCfg exercises every structured Result field: the shared width-2
// walker and MLP=4 fill the PWC map, the walk-overlap histogram, and
// the in-flight histogram.
func jsonCfg() Config {
	cfg := testCfg(memsys.NDP, 2, core.Radix, "rnd")
	cfg.SharedWalker = true
	cfg.WalkerWidth = 2
	cfg.MLP = 4
	return cfg
}

// TestResultJSONRoundTrip: a Result survives JSON losslessly — the
// requirement behind the sweep package's on-disk store.
func TestResultJSONRoundTrip(t *testing.T) {
	r := run(t, jsonCfg())
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, &back) {
		t.Errorf("round trip lossy:\n got %+v\nwant %+v", &back, r)
	}
	// Re-encoding the decoded value reproduces the bytes exactly.
	b2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Error("re-encoded JSON differs from the original encoding")
	}

	// The tricky fields explicitly: the integer-keyed PWC map and the
	// histograms.
	if len(r.PWC) == 0 {
		t.Fatal("run produced no PWC stats; the round-trip test needs them")
	}
	for lvl, hm := range r.PWC {
		if back.PWC[lvl] != hm {
			t.Errorf("PWC[%v] = %+v after round trip, want %+v", lvl, back.PWC[lvl], hm)
		}
	}
	if len(r.WalkOverlapHist) < 2 || len(r.InFlightHist) < 2 {
		t.Fatalf("histograms not populated: overlap %v, in-flight %v",
			r.WalkOverlapHist, r.InFlightHist)
	}
	if !reflect.DeepEqual(back.WalkOverlapHist, r.WalkOverlapHist) ||
		!reflect.DeepEqual(back.InFlightHist, r.InFlightHist) {
		t.Error("histograms corrupted by round trip")
	}
	// Derived metrics agree, so a decoded result feeds figure tables
	// identically to a fresh one.
	if back.MeanPTWLatency() != r.MeanPTWLatency() ||
		back.TranslationOverhead() != r.TranslationOverhead() ||
		back.PWCHitRate(addr.PL4) != r.PWCHitRate(addr.PL4) ||
		back.MeanInFlight() != r.MeanInFlight() {
		t.Error("derived metrics differ after round trip")
	}
}

// TestResultJSONGolden pins the serialized form: the on-disk sweep
// cache format is a contract across processes (and PR boundaries).
// Regenerate with `go test ./internal/sim -run Golden -update` after a
// deliberate Result or simulator change, which must bump ModelVersion.
func TestResultJSONGolden(t *testing.T) {
	r := run(t, jsonCfg())
	got, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "result_golden.json")
	if *updateGolden {
		recordModelVersion(t)
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("serialized Result drifted from %s (regenerate with -update if deliberate)", path)
	}
	// The golden file itself decodes into the same result: the cache
	// format is readable, not just writable.
	var back Result
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, &back) {
		t.Error("golden file does not decode to the live result")
	}
}

// recordModelVersion guards -update: goldens are rewritten only under a
// new ModelVersion. It fails t when testdata/model_version already
// records the current version, and records it otherwise.
func recordModelVersion(t *testing.T) {
	t.Helper()
	path := filepath.Join("testdata", "model_version")
	cur := strconv.Itoa(ModelVersion)
	if b, err := os.ReadFile(path); err == nil && strings.TrimSpace(string(b)) == cur {
		t.Fatalf("-update at ModelVersion %s, the version the goldens were written at; bump sim.ModelVersion first", cur)
	}
	if err := os.WriteFile(path, []byte(cur+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}
