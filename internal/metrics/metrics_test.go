package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestSeriesBasics(t *testing.T) {
	r := NewRecorder()
	s := r.Series("latency")
	if r.Series("latency") != s {
		t.Fatal("Series not idempotent")
	}
	s.Add(sim.Second, 1.5)
	s.Add(2*sim.Second, 2.5)
	if s.Len() != 2 || s.Last().V != 2.5 || s.Last().T != 2*sim.Second {
		t.Fatalf("series %+v", s)
	}
	vals := s.Values()
	if len(vals) != 2 || vals[0] != 1.5 {
		t.Fatalf("values %v", vals)
	}
	if got := s.Mean(); got != 2.0 {
		t.Fatalf("mean %g", got)
	}
	if _, ok := r.series["other"]; ok || len(r.series) != 1 {
		t.Fatalf("series %v", r.series)
	}
}

func TestRecorderOrderAndMarkers(t *testing.T) {
	r := NewRecorder()
	r.Series("b")
	r.Series("a")
	r.Series("b")
	if len(r.series) != 2 || r.series["b"].Name != "b" {
		t.Fatalf("series %v", r.series)
	}
	r.Mark(5*sim.Second, "increase bonds +2")
	if len(r.Markers) != 1 || r.Markers[0].Label != "increase bonds +2" {
		t.Fatalf("markers %v", r.Markers)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 {
		t.Fatalf("%+v", s)
	}
	if s.P50 != 3 {
		t.Fatalf("p50 %g", s.P50)
	}
	if s.First != 4 || s.LastValue != 5 {
		t.Fatalf("first/last %g %g", s.First, s.LastValue)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatal("empty summary")
	}
}

// Property: quantiles are order statistics — bounded by min/max and
// monotone in q.
func TestQuantileProperty(t *testing.T) {
	f := func(vals []float64) bool {
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.P50 >= s.Min && s.P50 <= s.Max &&
			s.P90 >= s.P50 && s.P99 >= s.P90 && s.P99 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	var tab Table
	tab.Header = []string{"name", "value", "time"}
	tab.AddRow("bonds", 3.14159, 15*sim.Second)
	tab.AddRow("helper", 7, "n/a")
	out := tab.String()
	if !strings.Contains(out, "bonds") || !strings.Contains(out, "3.142") ||
		!strings.Contains(out, "15.000s") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("lines %d:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	var tab Table
	tab.Header = []string{"a", "b"}
	tab.AddRow("plain", `with,comma "quoted"`)
	csv := tab.CSV()
	if !strings.Contains(csv, `"with,comma ""quoted"""`) {
		t.Fatalf("csv escaping:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Fatalf("csv header:\n%s", csv)
	}
}

func TestChartRendersShape(t *testing.T) {
	var s Series
	for i := 0; i < 20; i++ {
		s.Add(sim.Time(i)*sim.Second, float64(i))
	}
	out := Chart(&s, ChartOptions{Width: 40, Height: 8, YLabel: "latency (s)",
		Markers: []Marker{{T: 10 * sim.Second, Label: "increase bonds"}}})
	if !strings.Contains(out, "*") {
		t.Fatalf("no data points:\n%s", out)
	}
	if !strings.Contains(out, "|") {
		t.Fatalf("no marker column:\n%s", out)
	}
	if !strings.Contains(out, "latency (s)") || !strings.Contains(out, "increase bonds") {
		t.Fatalf("labels missing:\n%s", out)
	}
	// Rising series: last line of the plot area should hold early points,
	// first line the late ones. Check the top row contains a star in the
	// right half.
	lines := strings.Split(out, "\n")
	top := lines[0]
	if !strings.Contains(top[len(top)/2:], "*") {
		t.Fatalf("rising series should peak late:\n%s", out)
	}
}

func TestChartEdgeCases(t *testing.T) {
	if got := Chart(nil, ChartOptions{}); got != "(no data)\n" {
		t.Fatalf("nil chart %q", got)
	}
	var empty Series
	if got := Chart(&empty, ChartOptions{}); got != "(no data)\n" {
		t.Fatalf("empty chart %q", got)
	}
	var flat Series
	flat.Add(sim.Second, 5)
	out := Chart(&flat, ChartOptions{Width: 10, Height: 3})
	if !strings.Contains(out, "*") {
		t.Fatalf("single point lost:\n%s", out)
	}
}
