package table

import (
	"math"
	"strings"
	"testing"
)

func TestNewTableShape(t *testing.T) {
	tab := New("fig0", "demo", "cycles", []string{"r1", "r2"}, []string{"A", "B", "C"})
	if len(tab.Values) != 2 || len(tab.Values[0]) != 3 {
		t.Fatalf("grid shape %dx%d", len(tab.Values), len(tab.Values[0]))
	}
	if tab.ID != "fig0" || tab.Title != "demo" || tab.Unit != "cycles" {
		t.Fatal("metadata not stored")
	}
}

func TestSetGetByLabel(t *testing.T) {
	tab := New("t", "demo", "", []string{"r1", "r2"}, []string{"A", "B"})
	tab.Set("r2", "B", 42.5)
	if got := tab.Get("r2", "B"); got != 42.5 {
		t.Fatalf("Get = %v", got)
	}
	if got := tab.Get("r1", "A"); got != 0 {
		t.Fatalf("unset cell = %v", got)
	}
}

func TestUnknownLabelPanics(t *testing.T) {
	tab := New("t", "demo", "", []string{"r"}, []string{"c"})
	for name, f := range map[string]func(){
		"row": func() { tab.Set("missing", "c", 1) },
		"col": func() { tab.Get("r", "missing") },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		})
	}
}

func TestRenderContainsEverything(t *testing.T) {
	tab := New("fig99", "render test", "cycles/tuple", []string{"uniform", "skewed"}, []string{"Baseline", "AMAC"})
	tab.Set("uniform", "Baseline", 1234)
	tab.Set("uniform", "AMAC", 56.78)
	tab.Set("skewed", "AMAC", 9.1)
	tab.AddNote("scale %q", "small")
	out := tab.String()

	for _, want := range []string{"fig99", "render test", "cycles/tuple", "uniform", "skewed", "Baseline", "AMAC", "1234", "56.8", "9.10", `scale "small"`} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		9.123:   "9.12",
		99.44:   "99.4",
		12345.6: "12346",
	}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
	if formatValue(math.NaN()) != "-" {
		t.Error("NaN should render as -")
	}
}

func TestLongLabelsWidenColumns(t *testing.T) {
	tab := New("t", "demo", "", []string{"a-very-long-row-label-indeed"}, []string{"col"})
	tab.Set("a-very-long-row-label-indeed", "col", 1)
	if !strings.Contains(tab.String(), "a-very-long-row-label-indeed") {
		t.Fatal("long labels must not be truncated")
	}
}
