// Package bitblast lowers word-level oblivious circuits (package
// boolcircuit) to literal Boolean circuits: every wire carries 0 or 1
// and every gate is AND, OR, XOR, NOT, or a single-bit MUX. This makes
// the paper's strict §4.1 model — one bit per wire, O(log u) wires per
// tuple value — concrete rather than estimated: word gates expand into
// textbook combinational logic (ripple-carry adders, borrow-chain
// comparators, shift-add multipliers, restoring dividers), and the
// result is still a boolcircuit.Circuit, so the existing evaluator,
// depth accounting, serialization, and Brent scheduling all apply.
//
// Numbers are two's-complement, least-significant bit first. Blasting at
// width w is exact for circuits whose values fit in w bits; the compiled
// query circuits use the full 64-bit domain (the dummy sentinel sits at
// MinInt64/2), so end-to-end validations run at width 64.
package bitblast

import (
	"context"
	"fmt"

	"circuitql/internal/boolcircuit"
	"circuitql/internal/guard"
	"circuitql/internal/obs"
)

// word is a little-endian vector of bit wires.
type word []int

// blaster carries the conversion state.
type blaster struct {
	src   *boolcircuit.Circuit
	dst   *boolcircuit.Circuit
	width int
	zero  int
	one   int
}

// Result pairs the Boolean circuit with its I/O layout.
type Result struct {
	C     *boolcircuit.Circuit
	Width int
	// Inputs/outputs expand positionally: word input i becomes bit
	// inputs [i·Width, (i+1)·Width), LSB first; likewise outputs.
}

// BlastCtx converts the word-level circuit to a pure Boolean circuit at
// the given bit width (1-64). The expansion runs inside an obs bitblast
// span that counts the bit-level gates produced; every 256 word gates it
// polls ctx and checks the circuit built so far against any guard.Budget
// gate cap (one word gate is up to a few thousand bit gates).
func BlastCtx(ctx context.Context, src *boolcircuit.Circuit, width int) (_ *Result, err error) {
	ctx, sp := obs.StartSpan(ctx, obs.StageBitblast)
	res, err := blast(ctx, src, width)
	if res != nil {
		sp.AddInt(obs.CounterGates, int64(res.C.Size()))
	}
	sp.SetError(err)
	sp.End()
	return res, err
}

func blast(ctx context.Context, src *boolcircuit.Circuit, width int) (*Result, error) {
	if width < 1 || width > 64 {
		return nil, fmt.Errorf("bitblast: width %d out of range [1, 64]", width)
	}
	budget := guard.FromContext(ctx)
	b := &blaster{src: src, dst: boolcircuit.New(), width: width}
	b.zero = b.dst.Const(0)
	b.one = b.dst.Const(1)

	words := make([]word, src.Size())
	for id := 0; id < src.Size(); id++ {
		if id&0xff == 0 {
			if err := budget.CheckGates(ctx, b.dst.Size()); err != nil {
				return nil, err
			}
		}
		g := src.GateAt(id)
		var w word
		switch g.Op {
		case boolcircuit.OpInput:
			w = make(word, width)
			for i := range w {
				w[i] = b.dst.Input()
			}
		case boolcircuit.OpConst:
			w = b.constant(g.K)
		case boolcircuit.OpAdd:
			w, _ = b.add(words[g.A], words[g.B], b.zero)
		case boolcircuit.OpSub:
			w = b.sub(words[g.A], words[g.B])
		case boolcircuit.OpMul:
			w = b.mul(words[g.A], words[g.B])
		case boolcircuit.OpMod:
			// Mod by a constant power of two (the circuits' common case:
			// parity) is just the low bits in two's complement.
			if mg := src.GateAt(int(g.B)); mg.Op == boolcircuit.OpConst && mg.K > 0 && mg.K&(mg.K-1) == 0 {
				w = b.maskLow(words[g.A], mg.K)
			} else {
				w = b.mod(words[g.A], words[g.B])
			}
		case boolcircuit.OpAnd:
			w = b.bitwise(words[g.A], words[g.B], b.dst.And)
		case boolcircuit.OpOr:
			w = b.bitwise(words[g.A], words[g.B], b.dst.Or)
		case boolcircuit.OpXor:
			w = b.bitwise(words[g.A], words[g.B], b.dst.Xor)
		case boolcircuit.OpNot:
			w = make(word, width)
			for i := range w {
				w[i] = b.not(words[g.A][i])
			}
		case boolcircuit.OpEq:
			w = b.boolWord(b.eq(words[g.A], words[g.B]))
		case boolcircuit.OpLt:
			w = b.boolWord(b.lt(words[g.A], words[g.B]))
		case boolcircuit.OpMux:
			w = b.mux(b.nonzero(words[g.C]), words[g.A], words[g.B])
		default:
			return nil, fmt.Errorf("bitblast: unsupported op %v", g.Op)
		}
		words[id] = w
	}
	for _, o := range src.Outputs() {
		for _, bit := range words[o] {
			b.dst.MarkOutput(bit)
		}
	}
	return &Result{C: b.dst, Width: width}, nil
}

func (b *blaster) constant(k int64) word {
	w := make(word, b.width)
	for i := range w {
		if k>>uint(i)&1 != 0 {
			w[i] = b.one
		} else {
			w[i] = b.zero
		}
	}
	return w
}

func (b *blaster) bitwise(x, y word, op func(int, int) int) word {
	w := make(word, b.width)
	for i := range w {
		w[i] = op(x[i], y[i])
	}
	return w
}

func (b *blaster) not(x int) int { return b.dst.Xor(x, b.one) }

// add is a ripple-carry adder; it returns the sum and the carry chain's
// final two carries (for overflow detection by the caller: cOut is the
// carry out of the sign bit, cPrev the carry into it).
func (b *blaster) add(x, y word, carryIn int) (word, [2]int) {
	d := b.dst
	w := make(word, b.width)
	c := carryIn
	var cPrev int
	for i := 0; i < b.width; i++ {
		axb := d.Xor(x[i], y[i])
		w[i] = d.Xor(axb, c)
		cPrev = c
		c = d.Or(d.And(x[i], y[i]), d.And(c, axb))
	}
	return w, [2]int{c, cPrev}
}

// sub computes x - y as x + ¬y + 1.
func (b *blaster) sub(x, y word) word {
	ny := make(word, b.width)
	for i := range ny {
		ny[i] = b.not(y[i])
	}
	w, _ := b.add(x, ny, b.one)
	return w
}

// eq returns the single-bit x == y.
func (b *blaster) eq(x, y word) int {
	d := b.dst
	acc := b.one
	for i := 0; i < b.width; i++ {
		acc = d.And(acc, b.not(d.Xor(x[i], y[i])))
	}
	return acc
}

// lt returns the single-bit signed x < y: the sign of (x - y) corrected
// by the subtraction overflow V = (x_s ⊕ y_s) ∧ (x_s ⊕ diff_s).
func (b *blaster) lt(x, y word) int {
	d := b.dst
	ny := make(word, b.width)
	for i := range ny {
		ny[i] = b.not(y[i])
	}
	diff, _ := b.add(x, ny, b.one)
	s := b.width - 1
	v := d.And(d.Xor(x[s], y[s]), d.Xor(x[s], diff[s]))
	return d.Xor(diff[s], v)
}

// nonzero returns the OR of all bits.
func (b *blaster) nonzero(x word) int {
	acc := b.zero
	for _, bit := range x {
		acc = b.dst.Or(acc, bit)
	}
	return acc
}

// boolWord embeds a single bit as the word value 0/1.
func (b *blaster) boolWord(bit int) word {
	w := make(word, b.width)
	w[0] = bit
	for i := 1; i < b.width; i++ {
		w[i] = b.zero
	}
	return w
}

// mux selects x when cond=1, else y, bit by bit.
func (b *blaster) mux(cond int, x, y word) word {
	d := b.dst
	w := make(word, b.width)
	for i := range w {
		// y ⊕ cond·(x ⊕ y): one AND, two XOR per bit.
		w[i] = d.Xor(y[i], d.And(cond, d.Xor(x[i], y[i])))
	}
	return w
}

// mul is the shift-add multiplier (low width bits of the product, which
// matches the word evaluator's wrapping semantics).
func (b *blaster) mul(x, y word) word {
	acc := b.constant(0)
	shifted := x
	for i := 0; i < b.width; i++ {
		// acc += y_i ? shifted : 0.
		masked := make(word, b.width)
		for j := range masked {
			masked[j] = b.dst.And(shifted[j], y[i])
		}
		acc, _ = b.add(acc, masked, b.zero)
		// shifted <<= 1.
		next := make(word, b.width)
		next[0] = b.zero
		copy(next[1:], shifted[:b.width-1])
		shifted = next
	}
	return acc
}

// mod implements the word evaluator's semantics: non-negative result,
// x mod 0 = 0, via restoring division of |x| by |y| and a sign fix. The
// divider keeps its remainder in width bits, which is exact whenever
// |y| ≤ 2^(width-2) — comfortably covering the circuits' only use of
// Mod (parity, modulus 2); larger moduli would need a width+1 register.
func (b *blaster) mod(x, y word) word {
	d := b.dst
	s := b.width - 1
	negX := x[s]
	negY := y[s]
	ax := b.mux(negX, b.neg(x), x)
	ay := b.mux(negY, b.neg(y), y)

	// Restoring division: remainder register, one compare-subtract per
	// bit from the top.
	rem := b.constant(0)
	for i := b.width - 1; i >= 0; i-- {
		// rem = (rem << 1) | ax_i.
		shifted := make(word, b.width)
		shifted[0] = ax[i]
		copy(shifted[1:], rem[:b.width-1])
		rem = shifted
		// if rem >= ay: rem -= ay. Magnitudes fit in width-1 bits, so
		// the unsigned compare is the signed one here.
		ge := b.not(b.lt(rem, ay))
		sub := b.sub(rem, ay)
		rem = b.mux(ge, sub, rem)
	}

	// Go's % gives r with the dividend's sign; expr semantics then add
	// |y| when the result is negative: result = (x ≥ 0 or r = 0) ? r :
	// |y| - r, and y = 0 yields 0.
	rIsZero := b.eq(rem, b.constant(0))
	adj := b.sub(ay, rem)
	useRem := d.Or(b.not(negX), rIsZero)
	res := b.mux(useRem, rem, adj)
	yZero := b.eq(y, b.constant(0))
	return b.mux(yZero, b.constant(0), res)
}

// maskLow keeps the low log2(m) bits (x mod m for m a power of two).
func (b *blaster) maskLow(x word, m int64) word {
	k := 0
	for int64(1)<<uint(k) < m {
		k++
	}
	w := make(word, b.width)
	for i := range w {
		if i < k {
			w[i] = x[i]
		} else {
			w[i] = b.zero
		}
	}
	return w
}

// neg returns two's-complement negation.
func (b *blaster) neg(x word) word {
	nx := make(word, b.width)
	for i := range nx {
		nx[i] = b.not(x[i])
	}
	w, _ := b.add(nx, b.constant(0), b.one)
	return w
}

// PackWords expands word inputs into bit inputs for a blasted circuit.
func PackWords(vals []int64, width int) []int64 {
	out := make([]int64, 0, len(vals)*width)
	for _, v := range vals {
		for i := 0; i < width; i++ {
			out = append(out, (v>>uint(i))&1)
		}
	}
	return out
}

// UnpackWords reassembles word outputs from bit outputs (sign-extending
// from the top bit).
func UnpackWords(bits []int64, width int) []int64 {
	out := make([]int64, 0, len(bits)/width)
	for i := 0; i+width <= len(bits); i += width {
		var v uint64
		for j := 0; j < width; j++ {
			if bits[i+j] != 0 {
				v |= 1 << uint(j)
			}
		}
		// Sign extend.
		if width < 64 && v&(1<<uint(width-1)) != 0 {
			v |= ^uint64(0) << uint(width)
		}
		out = append(out, int64(v))
	}
	return out
}
