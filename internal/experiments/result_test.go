package experiments

import (
	"testing"
)

// headline looks a headline up by name, failing the test when the
// result has none of that name.
func headline(t *testing.T, r Result, name string) Headline {
	t.Helper()
	for _, h := range r.Headlines {
		if h.Name == name {
			return h
		}
	}
	t.Fatalf("%q has no headline %q", r.Title, name)
	return Headline{}
}

func TestResultText(t *testing.T) {
	cases := []struct {
		name string
		r    Result
		want string
	}{
		{"empty", Result{}, ""},
		{"title only", Result{Title: "Fig 0"}, "Fig 0\n"},
		{
			"untitled table aligns columns",
			Result{Tables: []Table{{Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}, {"333", "4"}}}}},
			"a    bb\n" +
				"---  --\n" +
				"1    2\n" +
				"333  4\n",
		},
		{
			"title then titled tables",
			Result{Title: "Fig 0", Tables: []Table{
				{Title: "first", Header: []string{"x"}, Rows: [][]string{{"10"}}},
				{Title: "second", Header: []string{"long header", "y"}, Rows: [][]string{{"1", "22"}}},
			}},
			"Fig 0\n" +
				"first:\n" +
				"x\n" +
				"--\n" +
				"10\n" +
				"\n" +
				"second:\n" +
				"long header  y\n" +
				"-----------  --\n" +
				"1            22\n",
		},
		{
			"columns align on runes, not bytes",
			Result{Tables: []Table{{Header: []string{"mean µs", "n"}, Rows: [][]string{{"1", "2"}}}}},
			"mean µs  n\n" +
				"-------  -\n" +
				"1        2\n",
		},
		{
			"headlines align and quote paper values",
			Result{Title: "Fig 0", Headlines: []Headline{
				{Name: "retry reduction", Value: 0.8291, Unit: "%", Paper: paper(0.82)},
				{Name: "retries", Value: 6.5714, Unit: "retries", Paper: paper(6.6)},
				{Name: "r", Value: 0.12345},
			}},
			"Fig 0\n" +
				"  retry reduction:  82.9% (paper 82.0%)\n" +
				"  retries:          6.571 retries (paper 6.6)\n" +
				"  r:                0.1235\n",
		},
		{
			"every headline unit",
			Result{Headlines: []Headline{
				{Name: "a", Value: 0.5, Unit: "%"},
				{Name: "b", Value: 1.25, Unit: "x"},
				{Name: "c", Value: 3, Unit: "cells"},
				{Name: "d", Value: 0, Unit: "wordlines"},
				{Name: "e", Value: 0.25, Unit: "retries/read"},
				{Name: "f", Value: 12345.6, Unit: "h"},
				{Name: "g", Value: 300, Unit: "µs"},
				{Name: "h", Value: 5000, Unit: "P/E cycles"},
				{Name: "i", Value: 25, Unit: "C"},
				{Name: "j", Value: 2.5e-5},
			}},
			"  a:  50.0%\n" +
				"  b:  1.25 x\n" +
				"  c:  3 cells\n" +
				"  d:  0 wordlines\n" +
				"  e:  0.25 retries/read\n" +
				"  f:  12346 h\n" +
				"  g:  300 µs\n" +
				"  h:  5000 P/E cycles\n" +
				"  i:  25 C\n" +
				"  j:  2.5e-05\n",
		},
		{
			"headlines then table",
			Result{
				Headlines: []Headline{{Name: "n", Value: 2}},
				Tables:    []Table{{Header: []string{"k"}, Rows: [][]string{{F(1.5)}}}},
			},
			"  n:  2\n" +
				"\n" +
				"k\n" +
				"---\n" +
				"1.5\n",
		},
	}
	for _, tc := range cases {
		if got := tc.r.Text(); got != tc.want {
			t.Errorf("%s:\ngot:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
	}
}
