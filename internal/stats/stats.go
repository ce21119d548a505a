// Package stats holds the small numeric and formatting helpers the
// paper-claims test and the examples use: log-log power-law fitting (to recover growth
// exponents from measured circuit sizes) and aligned table rendering for
// the regenerated paper tables.
package stats

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf8"
)

// FitPowerLaw fits y ≈ c·x^k by least squares on (log x, log y) and
// returns the exponent k and coefficient c. All inputs must be positive
// and the slices of equal length ≥ 2.
func FitPowerLaw(xs, ys []float64) (k, c float64) {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic("stats: need ≥ 2 matched samples")
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			panic("stats: power-law fit needs positive samples")
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	k = (n*sxy - sx*sy) / (n*sxx - sx*sx)
	c = math.Exp((sy - k*sx) / n)
	return k, c
}

// Table renders rows with aligned columns; the first row is the header.
type Table struct {
	rows [][]string
}

// NewTable creates a table with the given header.
func NewTable(header ...string) *Table {
	return &Table{rows: [][]string{header}}
}

// Row appends a row; values are formatted with %v (floats compactly).
func (t *Table) Row(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = formatFloat(x)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return fmt.Sprintf("%.0f", x)
	}
	return fmt.Sprintf("%.3g", x)
}

// String renders the table, aligned by rune count (ρ*, → and ≤ take one
// column each); the last cell of a line is not padded.
func (t *Table) String() string {
	widths := make([]int, 0)
	for _, row := range t.rows {
		for i, cell := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			widths[i] = max(widths[i], utf8.RuneCountInString(cell))
		}
	}
	var b strings.Builder
	for ri, row := range t.rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(row)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(cell)))
			}
		}
		b.WriteString("\n")
		if ri == 0 {
			for i, w := range widths {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
