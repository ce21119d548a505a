package boolcircuit

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"testing"
)

// randomCircuit builds a deterministic pseudo-random circuit with the
// given numbers of inputs and gates.
func randomCircuit(seed int64, inputs, gates int) *Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := New()
	wires := c.Inputs(inputs)
	wires = append(wires, c.Const(3), c.Const(-7))
	for len(c.gates) < gates {
		a := wires[rng.Intn(len(wires))]
		b := wires[rng.Intn(len(wires))]
		var w int
		switch rng.Intn(8) {
		case 0:
			w = c.Add(a, b)
		case 1:
			w = c.Sub(a, b)
		case 2:
			w = c.Mul(a, b)
		case 3:
			w = c.And(a, b)
		case 4:
			w = c.Xor(a, b)
		case 5:
			w = c.Eq(a, b)
		case 6:
			w = c.Lt(a, b)
		default:
			cw := wires[rng.Intn(len(wires))]
			w = c.Mux(cw, a, b)
		}
		wires = append(wires, w)
	}
	for i := 0; i < 5 && i < len(wires); i++ {
		c.MarkOutput(wires[len(wires)-1-i])
	}
	return c
}

func TestSerializeRoundTrip(t *testing.T) {
	c := randomCircuit(7, 12, 3000)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Size() != c.Size() || c2.Depth() != c.Depth() || c2.NumInputs() != c.NumInputs() {
		t.Fatalf("shape mismatch: %d/%d/%d vs %d/%d/%d",
			c2.Size(), c2.Depth(), c2.NumInputs(), c.Size(), c.Depth(), c.NumInputs())
	}
	rng := rand.New(rand.NewSource(9))
	inputs := make([]int64, c.NumInputs())
	for i := range inputs {
		inputs[i] = rng.Int63n(2000) - 1000
	}
	want, err := c.EvaluateCtx(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.EvaluateCtx(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output %d differs after round trip", i)
		}
	}
	// A loaded circuit is still buildable (hash table rebuilt).
	x := c2.Add(0, 0)
	if x != c2.Add(0, 0) {
		t.Fatal("structural hashing lost after load")
	}
}

func TestSerializeNegativeConstants(t *testing.T) {
	c := New()
	a := c.Input()
	c.MarkOutput(c.Add(a, c.Const(-1234567)))
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c2.EvaluateCtx(context.Background(), []int64{67})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != -1234500 {
		t.Fatalf("got %d", out[0])
	}
}

func TestReadRejectsCorrupt(t *testing.T) {
	c := randomCircuit(3, 4, 50)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := [][]byte{
		{},                 // empty
		[]byte("XXXX"),     // bad magic
		good[:len(good)/2], // truncated
		append(append([]byte{}, good[:4]...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F), // huge count
	}
	for i, b := range cases {
		if _, err := Read(bytes.NewReader(b)); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
}

func TestReadRejectsForwardReference(t *testing.T) {
	// Hand-craft: 1 gate that reads wire 5 (forward).
	var buf bytes.Buffer
	buf.WriteString("CQC1")
	buf.WriteByte(1)           // gateCount = 1
	buf.WriteByte(byte(OpNot)) // op
	buf.WriteByte(6)           // operand 5 (+1)
	buf.WriteByte(0)           // outputs
	if _, err := Read(&buf); err == nil {
		t.Fatal("forward reference accepted")
	}
}

// TestReadRejectsAbsentOperand: an operand the op uses cannot be the
// absent wire -1. Accepted, it reached every reader of the circuit as an
// index: a version-1 plan body with one made vm.Compile panic in the
// store's migration.
func TestReadRejectsAbsentOperand(t *testing.T) {
	for op, arity := range map[Op]int{OpNot: 1, OpAdd: 2, OpMux: 3} {
		var buf bytes.Buffer
		buf.WriteString("CQC1")
		buf.WriteByte(2) // gateCount = 2
		buf.WriteByte(byte(OpInput))
		buf.WriteByte(byte(op))
		buf.WriteByte(0) // absent (-1 + 1)
		for k := 1; k < arity; k++ {
			buf.WriteByte(1) // wire 0 (+1)
		}
		buf.WriteByte(1) // one output: wire 1
		buf.WriteByte(1)
		if _, err := Read(&buf); err == nil {
			t.Errorf("%v gate with an absent operand accepted", op)
		}
	}
}

func BenchmarkEvaluateSequential(b *testing.B) {
	c := randomCircuit(11, 32, 200000)
	inputs := make([]int64, c.NumInputs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EvaluateCtx(context.Background(), inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendSizesItsBuffer: uvarintLen, which sizes Append's one growth,
// is the length binary.AppendUvarint writes at every width boundary, and
// Append keeps what its buffer already held.
func TestAppendSizesItsBuffer(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<21 - 1, 1 << 21, 1<<63 - 1, 1<<64 - 1} {
		if got, want := uvarintLen(v), len(binary.AppendUvarint(nil, v)); got != want {
			t.Errorf("uvarintLen(%d) = %d, want %d", v, got, want)
		}
	}
	c := randomCircuit(7, 40, 20000)
	prefix := []byte("envelope")
	b := c.Append(append([]byte(nil), prefix...))
	var w bytes.Buffer
	if _, err := c.WriteTo(&w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b[:len(prefix)], prefix) || !bytes.Equal(b[len(prefix):], w.Bytes()) {
		t.Fatal("Append after a prefix does not hold the prefix and then what WriteTo writes")
	}
}
