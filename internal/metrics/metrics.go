// Package metrics renders experiment output: paper-style accuracy
// tables (ASCII and CSV) and ASCII line plots standing in for the
// paper's figures.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Table is a simple titled grid.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable builds a table with the given title and column header.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Add appends a row (padded/truncated to the header width).
func (t *Table) Add(cells ...string) {
	row := make([]string, len(t.Header))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// ASCII renders the table with aligned columns, the last one unpadded.
func (t *Table) ASCII() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if n := len(widths); n > 0 {
		widths[n-1] = 0
	}
	line(t.Header)
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (no quoting — cells
// are numeric or simple labels by construction).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Acc formats an accuracy the way the paper's tables do (4 decimals).
func Acc(v float64) string { return fmt.Sprintf("%.4f", v) }

// Series is one named line of a plot.
type Series struct {
	Name string
	Y    []float64
}

// Plot renders an ASCII line chart of the series over a shared X axis
// (x values are implicit: 1..n, the paper's communication rounds).
// Each series is drawn with a distinct marker; y range is padded 5%.
func Plot(title string, series []Series, width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	n := 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		if len(s.Y) > n {
			n = len(s.Y)
		}
		for _, v := range s.Y {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if n == 0 {
		return title + "\n(no data)\n"
	}
	if hi == lo {
		hi = lo + 1
	}
	pad := (hi - lo) * 0.05
	lo, hi = lo-pad, hi+pad

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	markers := "*o+x#@%&"
	for si, s := range series {
		m := markers[si%len(markers)]
		for xi, v := range s.Y {
			col := 0
			if n > 1 {
				col = xi * (width - 1) / (n - 1)
			}
			row := int((hi - v) / (hi - lo) * float64(height-1))
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			grid[row][col] = m
		}
	}

	var b strings.Builder
	b.WriteString(title)
	b.WriteByte('\n')
	for i, rowBytes := range grid {
		y := hi - (hi-lo)*float64(i)/float64(height-1)
		fmt.Fprintf(&b, "%8.4f |%s|\n", y, string(rowBytes))
	}
	fmt.Fprintf(&b, "%8s +%s+\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%8s  round 1..%d\n", "", n)
	for si, s := range series {
		fmt.Fprintf(&b, "%8s  %c = %s\n", "", markers[si%len(markers)], s.Name)
	}
	return b.String()
}
