package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ndpage/internal/sim"
	"ndpage/internal/stats"
)

var updateGoldens = flag.Bool("update", false, "rewrite the figure-table goldens under testdata/")

// goldenRunner pins the exact reduced scale the committed goldens were
// generated at. Everything that feeds the figures is deterministic at a
// fixed scale, so the CSV bytes are too.
func goldenRunner() *Runner {
	return &Runner{
		Instructions: 12_000,
		Warmup:       3_000,
		Footprint:    256 << 20,
		Workloads:    []string{"rnd", "pr"},
	}
}

// TestFigureTablesMatchGoldens regenerates every paper figure at the
// pinned reduced scale and diffs the CSV against the committed golden.
// The figures run only the paper's mechanism set — the related-work
// mechanisms (Victima, NMT, PCAX) stay disabled — so this is the
// regression gate that adding a mechanism must not move a single byte
// of the existing evaluation. Regenerate deliberately, after bumping
// sim.ModelVersion, with
//
//	go test ./internal/exp -run FigureTables -update
func TestFigureTablesMatchGoldens(t *testing.T) {
	r := goldenRunner()
	figures := []struct {
		name string
		run  func() (*stats.Table, error)
	}{
		{"fig4", r.Fig4}, {"fig5", r.Fig5}, {"fig6", r.Fig6},
		{"fig7", r.Fig7}, {"fig8", r.Fig8},
		{"motivation", r.Motivation}, {"pwc", r.PWCRates},
		{"fig12", r.Fig12}, {"fig13", r.Fig13}, {"fig14", r.Fig14},
		{"ablation", r.Ablation},
	}
	if *updateGoldens {
		recordModelVersion(t)
	}
	for _, f := range figures {
		t.Run(f.name, func(t *testing.T) {
			tab, err := f.run()
			if err != nil {
				t.Fatal(err)
			}
			got := tab.CSV()
			path := filepath.Join("testdata", f.name+".golden.csv")
			if *updateGoldens {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden for %s (generate with -update): %v", f.name, err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from its golden (regenerate with -update if deliberate):\ngot:\n%s\nwant:\n%s",
					f.name, got, want)
			}
		})
	}
}

// recordModelVersion guards -update: goldens are rewritten only under a
// new sim.ModelVersion. It fails t when testdata/model_version already
// records the current version, and records it otherwise.
func recordModelVersion(t *testing.T) {
	t.Helper()
	path := filepath.Join("testdata", "model_version")
	cur := strconv.Itoa(sim.ModelVersion)
	if b, err := os.ReadFile(path); err == nil && strings.TrimSpace(string(b)) == cur {
		t.Fatalf("-update at sim.ModelVersion %s, the version the goldens were written at; bump it first", cur)
	}
	if err := os.WriteFile(path, []byte(cur+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMechanismComparisonTable sanity-checks the new comparison figure
// itself (not golden-pinned: it exists to explore the new mechanisms,
// and its columns will move as they are tuned).
func TestMechanismComparisonTable(t *testing.T) {
	r := quickRunner()
	tab := table(t, r.MechanismComparison)
	if len(tab.Rows) != 3 { // 2 workloads + geomean
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "geomean" {
		t.Fatalf("last row = %v", last)
	}
	// Columns: workload, ECH, HugePage, Victima, NMT, PCAX, NDPage, Ideal.
	if len(tab.Columns) != 8 {
		t.Fatalf("columns = %v", tab.Columns)
	}
	for _, row := range tab.Rows {
		for i, cell := range row[1:] {
			var v float64
			if _, err := fmt.Sscan(cell, &v); err != nil {
				t.Fatalf("%s/%s: bad cell %q", row[0], tab.Columns[i+1], cell)
			}
			if v <= 0 {
				t.Errorf("%s/%s: non-positive speedup %v", row[0], tab.Columns[i+1], v)
			}
		}
	}
}
