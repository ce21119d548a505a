package stats

import (
	"math"
	"testing"
)

func TestFitPowerLawExact(t *testing.T) {
	xs := []float64{2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(x, 1.5)
	}
	k, c := FitPowerLaw(xs, ys)
	if math.Abs(k-1.5) > 1e-9 || math.Abs(c-3) > 1e-9 {
		t.Fatalf("fit = (%g, %g), want (1.5, 3)", k, c)
	}
}

func TestFitPowerLawNoisy(t *testing.T) {
	xs := []float64{10, 100, 1000, 10000}
	ys := []float64{105, 9800, 1.03e6, 0.97e8}
	k, _ := FitPowerLaw(xs, ys)
	if math.Abs(k-2) > 0.05 {
		t.Fatalf("noisy quadratic fit exponent = %g", k)
	}
}

func TestFitPowerLawPanics(t *testing.T) {
	cases := []func(){
		func() { FitPowerLaw([]float64{1}, []float64{1}) },
		func() { FitPowerLaw([]float64{1, 2}, []float64{1}) },
		func() { FitPowerLaw([]float64{1, -2}, []float64{1, 2}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestTableRendering: columns align by rune count, so a multi-byte
// header (ρ*) or cell (→, ≤) takes one column per rune; floats print
// compactly; the last cell of a line is not padded.
func TestTableRendering(t *testing.T) {
	tb := NewTable("constraints", "ρ*", "cost", "ratio")
	tb.Row("+ FD A→B", 16, 4096.0, 1.234567)
	tb.Row("+ deg(BC|B) ≤ 8", 256, 65536.0, 0.5)
	want := "constraints      ρ*   cost   ratio\n" +
		"---------------  ---  -----  -----\n" +
		"+ FD A→B         16   4096   1.23\n" +
		"+ deg(BC|B) ≤ 8  256  65536  0.5\n"
	if got := tb.String(); got != want {
		t.Fatalf("table =\n%s\nwant\n%s", got, want)
	}
}
