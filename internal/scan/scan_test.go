package scan

import (
	"context"
	"math/rand"
	"testing"

	"circuitql/internal/boolcircuit"
)

func runScan(t *testing.T, xs []int64, op Op) []int64 {
	t.Helper()
	c := boolcircuit.New()
	wires := c.Inputs(len(xs))
	for _, w := range Scan(c, wires, op) {
		c.MarkOutput(w)
	}
	out, err := c.EvaluateCtx(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestScanSum(t *testing.T) {
	got := runScan(t, []int64{1, 2, 3, 4, 5}, Add)
	want := []int64{1, 3, 6, 10, 15}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestScanMaxMinCopy(t *testing.T) {
	gotMax := runScan(t, []int64{3, 1, 4, 1, 5}, Max)
	wantMax := []int64{3, 3, 4, 4, 5}
	gotMin := runScan(t, []int64{3, 1, 4, 1, 5}, Min)
	wantMin := []int64{3, 1, 1, 1, 1}
	gotCopy := runScan(t, []int64{7, 1, 2, 3}, Copy)
	wantCopy := []int64{7, 7, 7, 7}
	for i := range wantMax {
		if gotMax[i] != wantMax[i] || gotMin[i] != wantMin[i] {
			t.Fatalf("max/min scan wrong at %d", i)
		}
	}
	for i := range wantCopy {
		if gotCopy[i] != wantCopy[i] {
			t.Fatalf("copy scan wrong at %d: %v", i, gotCopy)
		}
	}
}

func TestScanSingleAndEmpty(t *testing.T) {
	if got := runScan(t, []int64{42}, Add); got[0] != 42 {
		t.Fatal("singleton scan wrong")
	}
	c := boolcircuit.New()
	if out := Scan(c, nil, Add); len(out) != 0 {
		t.Fatal("empty scan should be empty")
	}
}

func runSegScan(t *testing.T, keys, vals []int64, op Op) []int64 {
	t.Helper()
	c := boolcircuit.New()
	keyWires := make([][]int, len(keys))
	valWires := make([]int, len(vals))
	var inputs []int64
	for i := range keys {
		kw := c.Input()
		vw := c.Input()
		inputs = append(inputs, keys[i], vals[i])
		keyWires[i] = []int{kw}
		valWires[i] = vw
	}
	for _, w := range SegmentedScan(c, keyWires, valWires, op) {
		c.MarkOutput(w)
	}
	out, err := c.EvaluateCtx(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSegmentedScanSum(t *testing.T) {
	keys := []int64{1, 1, 1, 2, 2, 3, 3, 3, 3}
	vals := []int64{1, 1, 1, 5, 5, 2, 2, 2, 2}
	got := runSegScan(t, keys, vals, Add)
	want := []int64{1, 2, 3, 5, 10, 2, 4, 6, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("segscan[%d] = %d, want %d (all %v)", i, got[i], want[i], got)
		}
	}
}

func TestSegmentedScanCopy(t *testing.T) {
	// The primary-key-join pattern: first element of each segment carries
	// the payload; Copy propagates it through the segment.
	keys := []int64{1, 1, 2, 2, 2}
	vals := []int64{100, 0, 200, 0, 0}
	got := runSegScan(t, keys, vals, Copy)
	want := []int64{100, 100, 200, 200, 200}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("copy segscan = %v", got)
		}
	}
}

// TestSegmentedScanReference: random segmented inputs vs a direct loop.
func TestSegmentedScanReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 30; iter++ {
		n := 1 + rng.Intn(14)
		keys := make([]int64, n)
		vals := make([]int64, n)
		k := int64(0)
		for i := range keys {
			if i == 0 || rng.Intn(3) == 0 {
				k++
			}
			keys[i] = k
			vals[i] = int64(rng.Intn(10))
		}
		got := runSegScan(t, keys, vals, Add)
		acc := int64(0)
		for i := range keys {
			if i == 0 || keys[i] != keys[i-1] {
				acc = 0
			}
			acc += vals[i]
			if got[i] != acc {
				t.Fatalf("iter %d pos %d: got %d want %d", iter, i, got[i], acc)
			}
		}
	}
}

func TestSegmentedScanMultiColumnKeys(t *testing.T) {
	c := boolcircuit.New()
	// Keys (1,1), (1,1), (1,2): first two share a segment.
	var inputs []int64
	keyWires := make([][]int, 3)
	valWires := make([]int, 3)
	data := [][3]int64{{1, 1, 10}, {1, 1, 20}, {1, 2, 5}}
	for i, d := range data {
		a, b, v := c.Input(), c.Input(), c.Input()
		inputs = append(inputs, d[0], d[1], d[2])
		keyWires[i] = []int{a, b}
		valWires[i] = v
	}
	for _, w := range SegmentedScan(c, keyWires, valWires, Add) {
		c.MarkOutput(w)
	}
	got, err := c.EvaluateCtx(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{10, 30, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("multi-key segscan = %v", got)
		}
	}
}

func TestMaskKeys(t *testing.T) {
	c := boolcircuit.New()
	s1 := boolcircuit.Slot{Valid: c.Input(), Cols: []int{c.Input()}}
	s2 := boolcircuit.Slot{Valid: c.Input(), Cols: []int{c.Input()}}
	keys := MaskKeys(c, []boolcircuit.Slot{s1, s2}, []int{0}, -999)
	for _, ks := range keys {
		for _, w := range ks {
			c.MarkOutput(w)
		}
	}
	got, err := c.EvaluateCtx(context.Background(), []int64{1, 42, 0, 42})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 || got[1] != -999 {
		t.Fatalf("MaskKeys = %v", got)
	}
}

func TestKeyWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := boolcircuit.New()
	SegmentedScan(c, [][]int{{c.Input()}, {c.Input(), c.Input()}}, []int{c.Input(), c.Input()}, Add)
}

// TestScanSizeNLogN: the scan circuit size is O(N log N).
func TestScanSizeNLogN(t *testing.T) {
	gatesFor := func(n int) int {
		c := boolcircuit.New()
		Scan(c, c.Inputs(n), Add)
		return c.Size()
	}
	g64, g512 := gatesFor(64), gatesFor(512)
	// N log N ratio: (512·9)/(64·6) = 12; quadratic would be 64.
	if r := float64(g512) / float64(g64); r > 20 {
		t.Fatalf("scan growth ratio %f too large", r)
	}
}
