package sortnet

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"circuitql/internal/boolcircuit"
)

// buildAndSort constructs a circuit sorting rows (each row = values, with
// validity flags), evaluates it, and returns the output rows as
// (valid, cols...) tuples.
func buildAndSort(t *testing.T, rows [][]int64, valid []bool, keys []int) [][]int64 {
	t.Helper()
	c := boolcircuit.New()
	width := len(rows[0])
	slots := make([]boolcircuit.Slot, len(rows))
	var inputs []int64
	for i := range rows {
		s := boolcircuit.Slot{Valid: c.Input(), Cols: make([]int, width)}
		v := int64(0)
		if valid == nil || valid[i] {
			v = 1
		}
		inputs = append(inputs, v)
		for j := 0; j < width; j++ {
			s.Cols[j] = c.Input()
			inputs = append(inputs, rows[i][j])
		}
		slots[i] = s
	}
	var less Less
	if keys == nil {
		less = AllColsLess(width)
	} else {
		less = KeyLess(keys)
	}
	out := Sort(c, slots, less)
	for _, s := range out {
		c.MarkOutput(s.Valid)
		for _, w := range s.Cols {
			c.MarkOutput(w)
		}
	}
	vals, err := c.EvaluateCtx(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	res := make([][]int64, len(rows))
	for i := range res {
		res[i] = vals[i*(width+1) : (i+1)*(width+1)]
	}
	return res
}

func TestSortSmall(t *testing.T) {
	rows := [][]int64{{3}, {1}, {2}}
	got := buildAndSort(t, rows, nil, nil)
	want := []int64{1, 2, 3}
	for i, w := range want {
		if got[i][0] != 1 || got[i][1] != w {
			t.Fatalf("got[%d] = %v, want valid %d", i, got[i], w)
		}
	}
}

func TestSortDummiesLast(t *testing.T) {
	rows := [][]int64{{5}, {1}, {9}, {2}}
	valid := []bool{true, false, true, false}
	got := buildAndSort(t, rows, valid, nil)
	// Valid 5, 9 first (ascending), then the two dummies.
	if got[0][0] != 1 || got[0][1] != 5 || got[1][0] != 1 || got[1][1] != 9 {
		t.Fatalf("valid prefix wrong: %v", got)
	}
	if got[2][0] != 0 || got[3][0] != 0 {
		t.Fatalf("dummies not last: %v", got)
	}
}

func TestSortMultiKeyLex(t *testing.T) {
	rows := [][]int64{{2, 1, 100}, {1, 9, 200}, {2, 0, 300}, {1, 2, 400}}
	got := buildAndSort(t, rows, nil, []int{0, 1})
	// lexicographic by (col0, col1): (1,2) < (1,9) < (2,0) < (2,1)
	want := [][]int64{{1, 2, 400}, {1, 9, 200}, {2, 0, 300}, {2, 1, 100}}
	for i := range want {
		if got[i][0] != 1 {
			t.Fatalf("row %d invalid", i)
		}
		for j := range want[i] {
			if got[i][j+1] != want[i][j] {
				t.Fatalf("got[%d] = %v, want %v", i, got[i][1:], want[i])
			}
		}
	}
}

func TestSortNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 3, 5, 6, 7, 9, 13} {
		rng := rand.New(rand.NewSource(int64(n)))
		rows := make([][]int64, n)
		vals := make([]int64, n)
		for i := range rows {
			v := int64(rng.Intn(50))
			rows[i] = []int64{v}
			vals[i] = v
		}
		got := buildAndSort(t, rows, nil, nil)
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for i := range vals {
			if got[i][0] != 1 || got[i][1] != vals[i] {
				t.Fatalf("n=%d: got[%d] = %v, want %d", n, i, got[i], vals[i])
			}
		}
	}
}

// TestSortRandomProperty: random instances with random validity match a
// reference sort (valid ascending first, dummies last, as multisets).
func TestSortRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 20; iter++ {
		n := 1 + rng.Intn(12)
		rows := make([][]int64, n)
		valid := make([]bool, n)
		var validVals []int64
		for i := range rows {
			rows[i] = []int64{int64(rng.Intn(10)), int64(rng.Intn(10))}
			valid[i] = rng.Intn(3) > 0
			if valid[i] {
				validVals = append(validVals, rows[i][0]*100+rows[i][1])
			}
		}
		got := buildAndSort(t, rows, valid, []int{0, 1})
		sort.Slice(validVals, func(i, j int) bool { return validVals[i] < validVals[j] })
		for i, v := range validVals {
			if got[i][0] != 1 || got[i][1]*100+got[i][2] != v {
				t.Fatalf("iter %d: position %d = %v, want %d", iter, i, got[i], v)
			}
		}
		for i := len(validVals); i < n; i++ {
			if got[i][0] != 0 {
				t.Fatalf("iter %d: dummy not last", iter)
			}
		}
	}
}

// TestSortIsOblivious: circuit built once evaluates correctly on many
// inputs (size fixed, data independent).
func TestSortIsOblivious(t *testing.T) {
	c := boolcircuit.New()
	n, width := 6, 1
	slots := make([]boolcircuit.Slot, n)
	for i := range slots {
		slots[i] = boolcircuit.Slot{Valid: c.Input(), Cols: []int{c.Input()}}
	}
	out := Sort(c, slots, AllColsLess(width))
	for _, s := range out {
		c.MarkOutput(s.Valid)
		c.MarkOutput(s.Cols[0])
	}
	size := c.Size()
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 5; iter++ {
		inputs := make([]int64, 2*n)
		var want []int64
		for i := 0; i < n; i++ {
			inputs[2*i] = 1
			inputs[2*i+1] = int64(rng.Intn(100))
			want = append(want, inputs[2*i+1])
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got, err := c.EvaluateCtx(context.Background(), inputs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[2*i+1] != want[i] {
				t.Fatalf("iter %d mismatch", iter)
			}
		}
	}
	if c.Size() != size {
		t.Fatal("size changed during evaluation")
	}
}

func TestComparatorCount(t *testing.T) {
	if ComparatorCount(1) != 0 {
		t.Fatal("k=1 should need no comparators")
	}
	if got := ComparatorCount(2); got != 1 {
		t.Fatalf("k=2: %d", got)
	}
	if got := ComparatorCount(4); got != 6 {
		t.Fatalf("k=4: %d", got)
	}
	if got := ComparatorCount(8); got != 24 {
		t.Fatalf("k=8: %d", got)
	}
	// Padding: k=5 uses the n=8 network.
	if ComparatorCount(5) != ComparatorCount(8) {
		t.Fatal("padding mismatch")
	}
}

// TestSizeIsKLog2K: network size grows as O(K log² K) — the Õ(K) bound.
func TestSizeIsKLog2K(t *testing.T) {
	gatesFor := func(n int) int {
		c := boolcircuit.New()
		slots := make([]boolcircuit.Slot, n)
		for i := range slots {
			slots[i] = boolcircuit.Slot{Valid: c.Input(), Cols: []int{c.Input()}}
		}
		Sort(c, slots, AllColsLess(1))
		return c.Size()
	}
	g64, g256 := gatesFor(64), gatesFor(256)
	// Ratio should be about 4·(64/36) ≈ 7.1, certainly below 16 (what a
	// quadratic network would give).
	if ratio := float64(g256) / float64(g64); ratio > 12 {
		t.Fatalf("sort size ratio %f suggests super-K·log²K growth", ratio)
	}
}
