package stats

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Errorf("Counter = %d, want 10", c.Value())
	}
}

func TestHitMissRates(t *testing.T) {
	var h HitMiss
	if h.HitRate() != 0 || h.MissRate() != 0 {
		t.Error("zero-value HitMiss must report 0 rates")
	}
	for i := 0; i < 3; i++ {
		h.Hit()
	}
	h.Miss()
	if h.Total() != 4 {
		t.Errorf("Total = %d, want 4", h.Total())
	}
	if got := h.HitRate(); got != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", got)
	}
	if got := h.MissRate(); got != 0.25 {
		t.Errorf("MissRate = %v, want 0.25", got)
	}
}

func TestHitMissRecordAndMerge(t *testing.T) {
	var a, b HitMiss
	a.Record(true)
	a.Record(false)
	b.Record(true)
	a.Merge(b)
	if a.Hits != 2 || a.Misses != 1 {
		t.Errorf("after merge: %+v", a)
	}
}

// Property: hit rate and miss rate always sum to 1 for non-empty counters.
func TestRatesSumToOne(t *testing.T) {
	f := func(hits, misses uint16) bool {
		if hits == 0 && misses == 0 {
			return true
		}
		h := HitMiss{Hits: Counter(hits), Misses: Counter(misses)}
		return math.Abs(h.HitRate()+h.MissRate()-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	var m Mean
	if m.Value() != 0 {
		t.Error("zero-value Mean must be 0")
	}
	m.Add(2)
	m.Add(4)
	if m.Value() != 3 {
		t.Errorf("Mean = %v, want 3", m.Value())
	}
	var other Mean
	other.Add(13)
	m.Merge(other)
	if m.Count != 3 || m.Value() != 19.0/3 {
		t.Errorf("after merge: Count = %d, Mean = %v, want 3, %v", m.Count, m.Value(), 19.0/3)
	}
}

func TestRatioPercent(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Error("Ratio with zero denominator must be 0")
	}
	if Ratio(3, 4) != 0.75 {
		t.Error("Ratio(3,4) != 0.75")
	}
}

func TestGeoMean(t *testing.T) {
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) must be 0")
	}
	got := GeoMean([]float64{2, 8})
	if math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean(2,8) = %v, want 4", got)
	}
	// Non-positive entries are ignored, not fatal.
	got = GeoMean([]float64{0, 4, -1, 4})
	if math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean with junk = %v, want 4", got)
	}
}

// Property: geometric mean lies between min and max of positive inputs.
func TestGeoMeanBounds(t *testing.T) {
	f := func(a, b, c uint16) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		g := GeoMean(xs)
		return g >= slices.Min(xs)-1e-9 && g <= slices.Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArithMeanMinMax(t *testing.T) {
	if ArithMean(nil) != 0 {
		t.Error("ArithMean(nil) must be 0")
	}
	xs := []float64{3, 1, 2}
	if ArithMean(xs) != 2 {
		t.Error("ArithMean != 2")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Fig X", "workload", "value")
	tab.AddRow("bfs", F(1.5))
	tab.AddRow("pr")
	tab.AddNote("scaled run")
	s := tab.String()
	for _, want := range []string{"== Fig X ==", "workload", "bfs", "1.50", "note: scaled run"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
	csv := tab.CSV()
	if !strings.Contains(csv, "bfs,1.50") {
		t.Errorf("CSV missing row: %s", csv)
	}
	if !strings.Contains(csv, "# scaled run") {
		t.Errorf("CSV missing note: %s", csv)
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tab := NewTable("q", "a", "b")
	tab.AddRow(`va"l`, "x,y")
	csv := tab.CSV()
	if !strings.Contains(csv, `"va""l"`) || !strings.Contains(csv, `"x,y"`) {
		t.Errorf("CSV quoting wrong: %s", csv)
	}
}

func TestTableRowOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized row did not panic")
		}
	}()
	NewTable("t", "only").AddRow("a", "b")
}

func TestCellFormatters(t *testing.T) {
	if F(1.005) != "1.00" && F(1.005) != "1.01" { // float rounding either way is fine
		t.Errorf("F(1.005) = %q", F(1.005))
	}
	if F3(0.1234) != "0.123" {
		t.Errorf("F3 = %q", F3(0.1234))
	}
	if Pct(12.345) != "12.35%" && Pct(12.345) != "12.34%" {
		t.Errorf("Pct = %q", Pct(12.345))
	}
	if I(7) != "7" {
		t.Errorf("I = %q", I(7))
	}
}
