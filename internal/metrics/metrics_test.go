package metrics

import (
	"strings"
	"testing"
)

func TestTableASCIIAlignsColumns(t *testing.T) {
	tab := NewTable("Title", "col", "value")
	tab.Add("a", "1")
	tab.Add("long-label", "2")
	out := tab.ASCII()
	if !strings.Contains(out, "Title") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + separator + 2 rows
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Column 2 starts at the same offset on every data line, and no
	// line ends in padding.
	idx := strings.Index(lines[1], "value")
	for _, l := range lines[3:] {
		if len(l) < idx {
			t.Fatalf("row too short: %q", l)
		}
	}
	for _, l := range lines {
		if strings.HasSuffix(l, " ") {
			t.Fatalf("line ends in a space: %q", l)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("t", "a", "b")
	tab.Add("1", "2")
	got := tab.CSV()
	want := "a,b\n1,2\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestTableAddPadsShortRows(t *testing.T) {
	tab := NewTable("t", "a", "b", "c")
	tab.Add("only")
	if len(tab.Rows[0]) != 3 {
		t.Fatalf("row = %v", tab.Rows[0])
	}
}

func TestAccFormat(t *testing.T) {
	if Acc(0.59525) != "0.5953" && Acc(0.59525) != "0.5952" {
		t.Fatalf("Acc = %q", Acc(0.59525))
	}
	if Acc(1) != "1.0000" {
		t.Fatalf("Acc(1) = %q", Acc(1))
	}
}

func TestPlotContainsMarkersAndLegend(t *testing.T) {
	out := Plot("Fig", []Series{
		{Name: "consider", Y: []float64{0.2, 0.4, 0.6}},
		{Name: "not consider", Y: []float64{0.3, 0.5, 0.55}},
	}, 30, 8)
	for _, want := range []string{"Fig", "*", "o", "consider", "not consider", "round 1..3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot missing %q:\n%s", want, out)
		}
	}
}

func TestPlotEmptyAndFlatSeries(t *testing.T) {
	if out := Plot("e", nil, 20, 5); !strings.Contains(out, "no data") {
		t.Fatalf("empty plot: %q", out)
	}
	// A flat series must not divide by zero.
	out := Plot("flat", []Series{{Name: "s", Y: []float64{0.5, 0.5}}}, 20, 5)
	if !strings.Contains(out, "s") {
		t.Fatal("flat series plot broken")
	}
}

func TestPlotSinglePoint(t *testing.T) {
	out := Plot("p", []Series{{Name: "one", Y: []float64{0.7}}}, 20, 5)
	if !strings.Contains(out, "*") {
		t.Fatalf("single point not plotted:\n%s", out)
	}
}

func TestPlotClampsTinyDimensions(t *testing.T) {
	out := Plot("tiny", []Series{{Name: "s", Y: []float64{1, 2}}}, 1, 1)
	if out == "" {
		t.Fatal("tiny plot empty")
	}
}
