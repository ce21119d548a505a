package boolcircuit

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

func evalOne(t *testing.T, build func(c *Circuit) int, inputs ...int64) int64 {
	t.Helper()
	c := New()
	ins := c.Inputs(len(inputs))
	_ = ins
	out := build(c)
	c.MarkOutput(out)
	got, err := c.EvaluateCtx(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	return got[0]
}

func TestArithmeticGates(t *testing.T) {
	c := New()
	a, b := c.Input(), c.Input()
	c.MarkOutput(c.Add(a, b))
	c.MarkOutput(c.Sub(a, b))
	c.MarkOutput(c.Mul(a, b))
	c.MarkOutput(c.ModC(a, b))
	out, err := c.EvaluateCtx(context.Background(), []int64{17, 5})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{22, 12, 85, 2}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %d, want %d", i, out[i], want[i])
		}
	}
}

func TestModSemantics(t *testing.T) {
	c := New()
	a, b := c.Input(), c.Input()
	c.MarkOutput(c.ModC(a, b))
	cases := [][3]int64{{7, 2, 1}, {-7, 2, 1}, {7, 0, 0}, {-3, 5, 2}}
	for _, cs := range cases {
		out, err := c.EvaluateCtx(context.Background(), []int64{cs[0], cs[1]})
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != cs[2] {
			t.Errorf("%d mod %d = %d, want %d", cs[0], cs[1], out[0], cs[2])
		}
	}
}

func TestComparisons(t *testing.T) {
	c := New()
	a, b := c.Input(), c.Input()
	c.MarkOutput(c.Eq(a, b))
	c.MarkOutput(c.Lt(a, b))
	c.MarkOutput(c.Le(a, b))
	c.MarkOutput(c.Gt(a, b))
	c.MarkOutput(c.Ge(a, b))
	c.MarkOutput(c.Ne(a, b))
	check := func(x, y int64, want [6]int64) {
		out, err := c.EvaluateCtx(context.Background(), []int64{x, y})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Errorf("(%d,%d) out[%d] = %d, want %d", x, y, i, out[i], want[i])
			}
		}
	}
	check(3, 5, [6]int64{0, 1, 1, 0, 0, 1})
	check(5, 5, [6]int64{1, 0, 1, 0, 1, 0})
	check(7, 5, [6]int64{0, 0, 0, 1, 1, 1})
	check(-2, 1, [6]int64{0, 1, 1, 0, 0, 1})
}

func TestMux(t *testing.T) {
	c := New()
	cond, a, b := c.Input(), c.Input(), c.Input()
	c.MarkOutput(c.Mux(cond, a, b))
	out, _ := c.EvaluateCtx(context.Background(), []int64{1, 10, 20})
	if out[0] != 10 {
		t.Fatalf("mux(1) = %d", out[0])
	}
	out, _ = c.EvaluateCtx(context.Background(), []int64{0, 10, 20})
	if out[0] != 20 {
		t.Fatalf("mux(0) = %d", out[0])
	}
	out, _ = c.EvaluateCtx(context.Background(), []int64{5, 10, 20}) // any nonzero selects a
	if out[0] != 10 {
		t.Fatalf("mux(5) = %d", out[0])
	}
}

func TestStructuralHashing(t *testing.T) {
	c := New()
	a, b := c.Input(), c.Input()
	x := c.Add(a, b)
	y := c.Add(a, b)
	if x != y {
		t.Fatal("identical gates not shared")
	}
	if c.Const(7) != c.Const(7) {
		t.Fatal("constants not shared")
	}
	if c.Const(7) == c.Const(8) {
		t.Fatal("distinct constants shared")
	}
	// Inputs are never shared.
	if a == b {
		t.Fatal("inputs shared")
	}
}

func TestDepthTracking(t *testing.T) {
	c := New()
	a := c.Input()
	if c.Depth() != 0 {
		t.Fatal("input should have depth 0")
	}
	x := c.Add(a, c.Const(1)) // depth 1
	y := c.Mul(x, x)          // depth 2
	c.MarkOutput(y)
	if c.Depth() != 2 {
		t.Fatalf("Depth = %d, want 2", c.Depth())
	}
}

func TestBitwiseAndBool(t *testing.T) {
	c := New()
	a, b := c.Input(), c.Input()
	c.MarkOutput(c.And(a, b))
	c.MarkOutput(c.Or(a, b))
	c.MarkOutput(c.Xor(a, b))
	c.MarkOutput(c.Not(a))
	c.MarkOutput(c.NotB(c.Bool(a)))
	out, _ := c.EvaluateCtx(context.Background(), []int64{0b1100, 0b1010})
	if out[0] != 0b1000 || out[1] != 0b1110 || out[2] != 0b0110 {
		t.Fatalf("bitwise = %v", out[:3])
	}
	if out[3] != ^int64(0b1100) {
		t.Fatalf("not = %d", out[3])
	}
	if out[4] != 0 { // a nonzero -> Bool=1 -> NotB=0
		t.Fatalf("notb = %d", out[4])
	}
}

func TestEvaluateInputCountMismatch(t *testing.T) {
	c := New()
	c.Input()
	if _, err := c.EvaluateCtx(context.Background(), nil); err == nil {
		t.Fatal("expected input count error")
	}
}

func TestInvalidWirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := New()
	c.Add(0, 5)
}

// Property: circuit arithmetic agrees with Go semantics on random values.
func TestArithmeticProperty(t *testing.T) {
	c := New()
	a, b := c.Input(), c.Input()
	c.MarkOutput(c.Add(a, b))
	c.MarkOutput(c.Mul(a, b))
	c.MarkOutput(c.Lt(a, b))
	f := func(x, y int64) bool {
		out, err := c.EvaluateCtx(context.Background(), []int64{x, y})
		if err != nil {
			return false
		}
		lt := int64(0)
		if x < y {
			lt = 1
		}
		return out[0] == x+y && out[1] == x*y && out[2] == lt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// TestObliviousnessByConstruction: the same circuit object evaluates any
// input vector; gate order, size, and depth are fixed before data exists.
func TestObliviousnessByConstruction(t *testing.T) {
	c := New()
	a, b := c.Input(), c.Input()
	c.MarkOutput(c.Mux(c.Lt(a, b), a, b))
	sizeBefore, depthBefore := c.Size(), c.Depth()
	for i := 0; i < 10; i++ {
		if _, err := c.EvaluateCtx(context.Background(), []int64{int64(i), int64(10 - i)}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Size() != sizeBefore || c.Depth() != depthBefore {
		t.Fatal("evaluation changed the circuit")
	}
}

func TestStats(t *testing.T) {
	c := New()
	a := c.Input()
	c.MarkOutput(c.Add(a, c.Const(1)))
	st := c.StatsOf()
	if st.Inputs != 1 || st.Gates != 3 || st.Depth != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestSlotClone(t *testing.T) {
	s := Slot{Valid: 1, Cols: []int{2, 3}}
	c := s.CloneCols()
	c.Cols[0] = 9
	if s.Cols[0] != 2 {
		t.Fatal("CloneCols not deep")
	}
}

func TestOpString(t *testing.T) {
	if OpMux.String() != "mux" || Op(200).String() != "Op(200)" {
		t.Fatal("Op.String wrong")
	}
}

func TestEvalOneHelper(t *testing.T) {
	got := evalOne(t, func(c *Circuit) int { return c.Add(0, 1) }, 4, 5)
	if got != 9 {
		t.Fatalf("helper = %d", got)
	}
}
