package boolcircuit

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Circuit serialization: the outsourced-query and MPC scenarios ship a
// compiled circuit to another party, so circuits need a stable wire
// format. The format is versioned and self-contained:
//
//	magic "CQC1"
//	uvarint gateCount, then per gate: op byte, operand uvarints
//	  (operand+1, so the absent operand -1 encodes as 0), and for
//	  constants the value as a zig-zag varint;
//	uvarint outputCount, then output wire uvarints.
//
// Inputs are implicit (gates with OpInput, in order); depth is rebuilt
// on load, the hash-consing index lazily if the circuit grows again.

const magic = "CQC1"

// WriteTo serializes the circuit. It implements io.WriterTo.
func (c *Circuit) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	n, err := bw.WriteString(magic)
	written += int64(n)
	if err != nil {
		return written, err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		k := binary.PutUvarint(buf[:], v)
		n, err := bw.Write(buf[:k])
		written += int64(n)
		return err
	}
	putVarint := func(v int64) error {
		k := binary.PutVarint(buf[:], v)
		n, err := bw.Write(buf[:k])
		written += int64(n)
		return err
	}

	if err := putUvarint(uint64(len(c.gates))); err != nil {
		return written, err
	}
	for _, g := range c.gates {
		if err := bw.WriteByte(byte(g.Op)); err != nil {
			return written, err
		}
		written++
		switch g.Op {
		case OpInput:
			// no operands
		case OpConst:
			if err := putVarint(g.K); err != nil {
				return written, err
			}
		case OpNot:
			if err := putUvarint(uint64(g.A + 1)); err != nil {
				return written, err
			}
		case OpMux:
			for _, op := range [3]int32{g.C, g.A, g.B} {
				if err := putUvarint(uint64(op + 1)); err != nil {
					return written, err
				}
			}
		default:
			for _, op := range [2]int32{g.A, g.B} {
				if err := putUvarint(uint64(op + 1)); err != nil {
					return written, err
				}
			}
		}
	}
	if err := putUvarint(uint64(len(c.outputs))); err != nil {
		return written, err
	}
	for _, o := range c.outputs {
		if err := putUvarint(uint64(o)); err != nil {
			return written, err
		}
	}
	return written, bw.Flush()
}

// decoder reads varints off an in-memory artifact. Decoding from a
// slice instead of through bufio.Reader/io.ByteReader interface calls is
// what keeps plan loading — which is all Read — several times cheaper
// than the compile it replaces.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) byte() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	d.off += max(n, 0)
	return v, varintErr(n)
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.off:])
	d.off += max(n, 0)
	return v, varintErr(n)
}

func varintErr(n int) error {
	switch {
	case n > 0:
		return nil
	case n == 0:
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("boolcircuit: varint overflows 64 bits")
}

// operand reads one operand of gate i: a wire below i, or -1 (absent).
func (d *decoder) operand(i int) (int32, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(i) {
		return 0, fmt.Errorf("boolcircuit: gate %d reads forward wire %d", i, int64(v)-1)
	}
	return int32(v) - 1, nil
}

// Read deserializes a circuit written by WriteTo, which must be all
// that is left of r, rebuilding depth information; the hash-consing
// index is left to the first push.
func Read(r io.Reader) (*Circuit, error) {
	var data []byte
	if mem, ok := r.(interface{ Bytes() []byte }); ok {
		// An in-memory source (the plan store hands over a bytes.Buffer)
		// is decoded in place.
		data = mem.Bytes()
	} else {
		var err error
		if data, err = io.ReadAll(r); err != nil {
			return nil, fmt.Errorf("boolcircuit: reading artifact: %w", err)
		}
	}
	if len(data) < len(magic) {
		return nil, fmt.Errorf("boolcircuit: reading header: %w", io.ErrUnexpectedEOF)
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("boolcircuit: bad magic %q", data[:len(magic)])
	}
	d := &decoder{buf: data, off: len(magic)}
	gateCount, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("boolcircuit: gate count: %w", err)
	}
	// Every gate takes at least its op byte, which also keeps a corrupt
	// count from sizing the allocations below.
	if gateCount > maxGates || gateCount > uint64(len(data)-d.off) {
		return nil, fmt.Errorf("boolcircuit: unreasonable gate count %d", gateCount)
	}
	c := New()
	c.gates = make([]Gate, gateCount)
	c.depth = make([]int32, gateCount)

	for i := range c.gates {
		opByte, err := d.byte()
		if err != nil {
			return nil, fmt.Errorf("boolcircuit: gate %d: %w", i, err)
		}
		g := Gate{Op: Op(opByte), A: -1, B: -1, C: -1}
		switch g.Op {
		case OpInput:
			c.inputs = append(c.inputs, i)
		case OpConst:
			g.K, err = d.varint()
		case OpNot:
			g.A, err = d.operand(i)
		case OpMux:
			if g.C, err = d.operand(i); err == nil {
				if g.A, err = d.operand(i); err == nil {
					g.B, err = d.operand(i)
				}
			}
		case OpAdd, OpSub, OpMul, OpMod, OpAnd, OpOr, OpXor, OpEq, OpLt:
			if g.A, err = d.operand(i); err == nil {
				g.B, err = d.operand(i)
			}
		default:
			return nil, fmt.Errorf("boolcircuit: gate %d has unknown op %d", i, opByte)
		}
		if err != nil {
			return nil, fmt.Errorf("boolcircuit: gate %d: %w", i, err)
		}
		// Rebuild depth and bookkeeping exactly as push does.
		var dep int32
		for _, op := range [3]int32{g.A, g.B, g.C} {
			if op >= 0 && c.depth[op] > dep {
				dep = c.depth[op]
			}
		}
		if g.Op != OpInput && g.Op != OpConst {
			dep++
		}
		c.gates[i] = g
		c.depth[i] = dep
		c.maxDep = max(c.maxDep, dep)
	}
	// The hash-consing index is only needed if the circuit grows again;
	// c has none, and the first push would build it (see reindex), so
	// read-to-evaluate stays cheap.

	outCount, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("boolcircuit: output count: %w", err)
	}
	if outCount > gateCount {
		return nil, fmt.Errorf("boolcircuit: %d outputs for %d gates", outCount, gateCount)
	}
	c.outputs = make([]int, outCount)
	for i := range c.outputs {
		v, err := d.uvarint()
		if err != nil {
			return nil, fmt.Errorf("boolcircuit: output %d: %w", i, err)
		}
		if v >= gateCount {
			return nil, fmt.Errorf("boolcircuit: output wire %d out of range", v)
		}
		c.outputs[i] = int(v)
	}
	return c, nil
}
