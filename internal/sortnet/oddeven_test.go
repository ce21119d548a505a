package sortnet

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"circuitql/internal/boolcircuit"
)

func runOddEven(t *testing.T, vals []int64) []int64 {
	t.Helper()
	c := boolcircuit.New()
	slots := make([]boolcircuit.Slot, len(vals))
	var inputs []int64
	for i, v := range vals {
		slots[i] = boolcircuit.Slot{Valid: c.Input(), Cols: []int{c.Input()}}
		inputs = append(inputs, 1, v)
	}
	out := SortOddEven(c, slots, AllColsLess(1))
	for _, s := range out {
		c.MarkOutput(s.Cols[0])
	}
	got, err := c.EvaluateCtx(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestOddEvenSortsCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for _, n := range []int{1, 2, 3, 5, 8, 13, 16, 27} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(100) - 50)
		}
		got := runOddEven(t, vals)
		want := append([]int64(nil), vals...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: got %v want %v", n, got, want)
			}
		}
	}
}

func TestOddEvenDummiesLast(t *testing.T) {
	c := boolcircuit.New()
	slots := make([]boolcircuit.Slot, 4)
	inputs := []int64{0, 9, 1, 5, 0, 1, 1, 3}
	for i := range slots {
		slots[i] = boolcircuit.Slot{Valid: c.Input(), Cols: []int{c.Input()}}
	}
	out := SortOddEven(c, slots, AllColsLess(1))
	for _, s := range out {
		c.MarkOutput(s.Valid)
		c.MarkOutput(s.Cols[0])
	}
	got, err := c.EvaluateCtx(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	// Valid 3, 5 first; two dummies last.
	if got[0] != 1 || got[1] != 3 || got[2] != 1 || got[3] != 5 || got[4] != 0 || got[6] != 0 {
		t.Fatalf("got %v", got)
	}
}

// TestOddEvenBeatsBitonic: the odd-even network uses fewer comparators
// (the ablation's claim).
func TestOddEvenBeatsBitonic(t *testing.T) {
	for _, k := range []int{8, 64, 512, 4096} {
		oe, bi := OddEvenComparatorCount(k), ComparatorCount(k)
		if oe >= bi {
			t.Fatalf("k=%d: odd-even %d not below bitonic %d", k, oe, bi)
		}
	}
	// Known small values: n=4 -> 5 comparators (vs bitonic 6).
	if OddEvenComparatorCount(4) != 5 {
		t.Fatalf("OEM(4) = %d, want 5", OddEvenComparatorCount(4))
	}
	if OddEvenComparatorCount(1) != 0 {
		t.Fatal("OEM(1) should be 0")
	}
}

// TestOddEvenGateCountMatchesFormula: the circuit built matches the
// comparator-count formula.
func TestOddEvenGateCountsTrackFormula(t *testing.T) {
	gatesFor := func(sorter func(*boolcircuit.Circuit, []boolcircuit.Slot, Less) []boolcircuit.Slot, n int) int {
		c := boolcircuit.New()
		slots := make([]boolcircuit.Slot, n)
		for i := range slots {
			slots[i] = boolcircuit.Slot{Valid: c.Input(), Cols: []int{c.Input()}}
		}
		sorter(c, slots, AllColsLess(1))
		return c.Size()
	}
	gOE := gatesFor(SortOddEven, 128)
	gBI := gatesFor(Sort, 128)
	if gOE >= gBI {
		t.Fatalf("odd-even gates %d not below bitonic %d at k=128", gOE, gBI)
	}
}
