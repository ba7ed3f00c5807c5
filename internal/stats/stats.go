// Package stats provides the small statistics toolkit used by the
// benchmark harness: streaming summaries (count/mean/stddev/min/max),
// fixed-bucket histograms with percentile estimation, and the Table type
// the experiments print — renderable as aligned text or as canonical JSON
// for machine-readable result trajectories.
package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Summary accumulates a stream of observations. The zero value is ready to
// use.
type Summary struct {
	n          int64
	mean, m2   float64
	min, max   float64
	hasSamples bool
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
	if !s.hasSamples || x < s.min {
		s.min = x
	}
	if !s.hasSamples || x > s.max {
		s.max = x
	}
	s.hasSamples = true
}

// N returns the number of observations.
func (s *Summary) N() int64 { return s.n }

// Mean returns the sample mean (0 with no samples).
func (s *Summary) Mean() float64 { return s.mean }

// StdDev returns the sample standard deviation (0 with < 2 samples).
func (s *Summary) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// Min returns the smallest observation (0 with no samples).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 with no samples).
func (s *Summary) Max() float64 { return s.max }

// String renders the summary compactly.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f sd=%.2f min=%.2f max=%.2f", s.n, s.Mean(), s.StdDev(), s.Min(), s.Max())
}

// Histogram collects exact samples for percentile queries. Appropriate for
// the harness's modest sample counts; it trades memory for exactness.
type Histogram struct {
	samples []float64
	sorted  bool
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.samples = append(h.samples, x)
	h.sorted = false
}

// N returns the sample count.
func (h *Histogram) N() int { return len(h.samples) }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using the
// nearest-rank method. It returns 0 with no samples.
func (h *Histogram) Percentile(p float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 100 {
		return h.samples[len(h.samples)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(h.samples))))
	if rank < 1 {
		rank = 1
	}
	return h.samples[rank-1]
}

// Mean returns the sample mean.
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range h.samples {
		sum += x
	}
	return sum / float64(len(h.samples))
}

// Record is one table's machine-readable result: anonsim -experiment
// -json and anonload -json each print a JSON array of them.
type Record struct {
	ID      string  `json:"id"`
	Title   string  `json:"title"`
	Seconds float64 `json:"seconds"`
	Table   *Table  `json:"table"`
}

// WriteRecords writes recs to w as one indented JSON array.
func WriteRecords(w io.Writer, recs []Record) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}

// Table is a simple aligned text table used by the experiment harness to
// print paper-style artifacts.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if w := displayWidth(c); w > widths[i] {
				widths[i] = w
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			b.WriteString(cell)
			if i < cols-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-displayWidth(cell)+2))
			}
		}
		b.WriteByte('\n')
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
		total := 0
		for _, w := range widths {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", total))
		b.WriteByte('\n')
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// MarshalJSON encodes the table canonically: title, header, rows, and
// notes, with empty collections encoded as [] (never null) so consumers
// can index unconditionally.
func (t *Table) MarshalJSON() ([]byte, error) {
	enc := struct {
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes"`
	}{
		Title:  t.Title,
		Header: t.Header,
		Rows:   t.Rows,
		Notes:  t.Notes,
	}
	if enc.Header == nil {
		enc.Header = []string{}
	}
	if enc.Rows == nil {
		enc.Rows = [][]string{}
	}
	for i, r := range enc.Rows {
		if r == nil {
			// Patch a copy: marshaling must not mutate the table.
			rows := make([][]string, len(enc.Rows))
			copy(rows, enc.Rows)
			enc.Rows = rows
			for j := i; j < len(enc.Rows); j++ {
				if enc.Rows[j] == nil {
					enc.Rows[j] = []string{}
				}
			}
			break
		}
	}
	if enc.Notes == nil {
		enc.Notes = []string{}
	}
	return json.Marshal(enc)
}

// UnmarshalJSON decodes a table produced by MarshalJSON, so stored
// results can be reloaded and diffed.
func (t *Table) UnmarshalJSON(data []byte) error {
	var dec struct {
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes"`
	}
	if err := json.Unmarshal(data, &dec); err != nil {
		return err
	}
	t.Title, t.Header, t.Rows, t.Notes = dec.Title, dec.Header, dec.Rows, dec.Notes
	return nil
}

// displayWidth approximates the printed width of s (rune count; the
// harness emits no wide glyphs beyond ⊥ which is single-width).
func displayWidth(s string) int {
	w := 0
	for range s {
		w++
	}
	return w
}
