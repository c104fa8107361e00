// Package metrics provides the time-series recording and summary
// statistics the experiment harness uses to regenerate the paper's tables
// and figures: named series of (virtual time, value) points, annotated
// event markers (management actions), and text/CSV rendering.
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Point is one sample in a series.
type Point struct {
	T sim.Time
	V float64
}

// Series is an append-only sequence of points.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t sim.Time, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Len returns the sample count.
func (s *Series) Len() int { return len(s.Points) }

// Last returns the most recent point (zero Point if empty).
func (s *Series) Last() Point {
	if len(s.Points) == 0 {
		return Point{}
	}
	return s.Points[len(s.Points)-1]
}

// Values returns just the values.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.V
	}
	return out
}

// Marker is an annotated instant (e.g. "increase bonds +2").
type Marker struct {
	T     sim.Time
	Label string
}

// Recorder collects named series and markers for one experiment run.
type Recorder struct {
	series  map[string]*Series
	Markers []Marker
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string]*Series)}
}

// Series returns (creating if needed) the named series.
func (r *Recorder) Series(name string) *Series {
	s, ok := r.series[name]
	if !ok {
		s = &Series{Name: name}
		r.series[name] = s
	}
	return s
}

// Mark records an annotated instant.
func (r *Recorder) Mark(t sim.Time, label string) {
	r.Markers = append(r.Markers, Marker{T: t, Label: label})
}

// Summary holds descriptive statistics of a value set.
type Summary struct {
	N                int
	Min, Max         float64
	Mean             float64
	P50, P90, P99    float64
	First, LastValue float64
}

// Summarize computes stats over the values.
func Summarize(vals []float64) Summary {
	if len(vals) == 0 {
		return Summary{}
	}
	s := Summary{N: len(vals), Min: vals[0], Max: vals[0], First: vals[0], LastValue: vals[len(vals)-1]}
	sum := 0.0
	for _, v := range vals {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		sum += v
	}
	s.Mean = sum / float64(len(vals))
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	s.P50 = quantile(sorted, 0.50)
	s.P90 = quantile(sorted, 0.90)
	s.P99 = quantile(sorted, 0.99)
	return s
}

// quantile returns the q-quantile of sorted values by nearest-rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted)-1) + 0.5)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Mean returns the average of a series' values.
func (s *Series) Mean() float64 {
	return Summarize(s.Values()).Mean
}

// Table renders rows of labeled columns as an aligned text table.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends one row (stringifying the cells).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case sim.Time:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for pad := len(c); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSV := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeCSV(t.Header)
	for _, row := range t.Rows {
		writeCSV(row)
	}
	return b.String()
}
