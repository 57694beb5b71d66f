package experiments

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf8"
)

// Result is the one output shape of every experiment: a title, the
// headline numbers (with the paper's value where the output quotes
// one) and tables. Text prints it; checks and reports read the same
// values as data.
type Result struct {
	Title     string
	Headlines []Headline
	Tables    []Table
}

// Headline is one named measurement.
type Headline struct {
	Name  string
	Value float64
	// Unit labels Value. "%" marks a fraction, printed as a percentage.
	Unit string
	// Paper is the paper's value for this measurement, in Value's unit;
	// nil when the output quotes none.
	Paper *float64
}

// Table is a grid of preformatted cells under an optional title.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// tableResult is a titled result holding one untitled table.
func tableResult(title string, header []string, rows [][]string) Result {
	return Result{Title: title, Tables: []Table{{Header: header, Rows: rows}}}
}

// paper marks a headline's paper value.
func paper(v float64) *float64 { return &v }

// Text renders the result: the title line, the headlines as aligned
// "name: value" lines, then each table, a blank line before any table
// that follows other content.
func (r Result) Text() string {
	var b strings.Builder
	if r.Title != "" {
		b.WriteString(r.Title + "\n")
	}
	heads := make([][]string, len(r.Headlines))
	for i, h := range r.Headlines {
		v := number(h.Value, h.Unit)
		if h.Unit != "" && h.Unit != "%" {
			v += " " + h.Unit
		}
		if h.Paper != nil {
			v += " (paper " + number(*h.Paper, h.Unit) + ")"
		}
		heads[i] = []string{"  " + h.Name + ":", v}
	}
	align(&b, heads, false)
	for i, t := range r.Tables {
		if i > 0 || len(heads) > 0 {
			b.WriteByte('\n')
		}
		if t.Title != "" {
			b.WriteString(t.Title + ":\n")
		}
		align(&b, append([][]string{t.Header}, t.Rows...), true)
	}
	return b.String()
}

// align writes rows with every column but the last padded to its
// widest cell, two spaces apart; under rule, a dashed line of the
// column widths follows the first row.
func align(b *strings.Builder, rows [][]string, rule bool) {
	var width []int
	for _, r := range rows {
		for i, c := range r {
			if i == len(width) {
				width = append(width, 0)
			}
			width[i] = max(width[i], utf8.RuneCountInString(c))
		}
	}
	dashes := make([]string, len(width))
	for i, w := range width {
		dashes[i] = strings.Repeat("-", w)
	}
	for n, r := range rows {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(r)-1 {
				c = fmt.Sprintf("%-*s", width[i], c)
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
		if n == 0 && rule {
			align(b, [][]string{dashes}, false)
		}
	}
}

// number formats a headline value: a "%" fraction as a percentage,
// anything else with F.
func number(v float64, unit string) string {
	if unit == "%" {
		return Pct(v)
	}
	return F(v)
}

// F formats a float for tables and headlines: whole numbers and
// magnitudes of 1000 or more without decimals, the rest to four
// significant digits.
func F(v float64) string {
	if v == math.Trunc(v) || math.Abs(v) >= 1000 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// Pct formats a ratio as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
