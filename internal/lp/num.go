package lp

import (
	"math"
	"math/big"
	"math/bits"
)

// num is an exact rational. While it fits it is n/d in lowest terms with
// d > 0 and |n| ≤ MaxInt64, zero being the zero value; an operation whose
// int64 arithmetic would overflow computes in big.Rat instead, and the
// result stays there only while it still does not fit. A big value is
// never modified once stored, so nums copy freely.
type num struct {
	n, d int64
	big  *big.Rat
}

var one, minusOne = num{n: 1, d: 1}, num{n: -1, d: 1}

// shrink wraps r, which the result may keep, word-sized if it fits.
func shrink(r *big.Rat) num {
	n, d := r.Num(), r.Denom()
	if !n.IsInt64() || !d.IsInt64() || n.Int64() == math.MinInt64 {
		return num{big: r}
	}
	if n.Sign() == 0 {
		return num{}
	}
	return num{n: n.Int64(), d: d.Int64()}
}

// fromRat converts a caller's value; r is not kept.
func fromRat(r *big.Rat) num {
	a := shrink(r)
	if a.big != nil {
		a.big = new(big.Rat).Set(r)
	}
	return a
}

// rat returns a's value for reading; it may be a's own big.Rat.
func (a num) rat() *big.Rat {
	switch {
	case a.big != nil:
		return a.big
	case a.n == 0:
		return new(big.Rat)
	}
	return big.NewRat(a.n, a.d)
}

func (a num) sign() int {
	switch {
	case a.big != nil:
		return a.big.Sign()
	case a.n > 0:
		return 1
	case a.n < 0:
		return -1
	}
	return 0
}

func (a num) neg() num {
	if a.big != nil {
		return num{big: new(big.Rat).Neg(a.big)}
	}
	a.n = -a.n
	return a
}

func (a num) cmp(b num) int {
	if a.big != nil || b.big != nil {
		return a.rat().Cmp(b.rat())
	}
	sa, sb := a.sign(), b.sign()
	switch {
	case sa < sb:
		return -1
	case sa > sb:
		return 1
	case sa == 0:
		return 0
	}
	// Same non-zero sign: |a.n|·b.d against |b.n|·a.d, in 128 bits.
	ah, al := bits.Mul64(abs(a.n), uint64(b.d))
	bh, bl := bits.Mul64(abs(b.n), uint64(a.d))
	if ah == bh {
		ah, bh = al, bl
	}
	switch {
	case ah < bh:
		return -sa
	case ah > bh:
		return sa
	}
	return 0
}

func (a num) add(b num) num {
	switch {
	case a.big != nil || b.big != nil:
	case a.n == 0:
		return b
	case b.n == 0:
		return a
	default:
		g := int64(gcd(uint64(a.d), uint64(b.d)))
		ad, bd := a.d/g, b.d/g
		x, ok1 := mul64(a.n, bd)
		y, ok2 := mul64(b.n, ad)
		d, ok3 := mul64(a.d, bd)
		s, ok4 := add64(x, y)
		if ok1 && ok2 && ok3 && ok4 {
			if s == 0 {
				return num{}
			}
			r := int64(gcd(abs(s), uint64(d)))
			return num{n: s / r, d: d / r}
		}
	}
	return shrink(new(big.Rat).Add(a.rat(), b.rat()))
}

func (a num) sub(b num) num { return a.add(b.neg()) }

func (a num) mul(b num) num {
	switch {
	case a.big != nil || b.big != nil:
	case a.n == 0 || b.n == 0:
		return num{}
	default:
		g1 := int64(gcd(abs(a.n), uint64(b.d)))
		g2 := int64(gcd(abs(b.n), uint64(a.d)))
		n, ok1 := mul64(a.n/g1, b.n/g2)
		d, ok2 := mul64(a.d/g2, b.d/g1)
		if ok1 && ok2 {
			return num{n: n, d: d}
		}
	}
	return shrink(new(big.Rat).Mul(a.rat(), b.rat()))
}

// quo returns a/b for b ≠ 0.
func (a num) quo(b num) num {
	switch {
	case b.big != nil:
		return shrink(new(big.Rat).Quo(a.rat(), b.big))
	case b.n < 0:
		return a.mul(num{n: -b.d, d: -b.n})
	}
	return a.mul(num{n: b.d, d: b.n})
}

func abs(a int64) uint64 {
	if a < 0 {
		return uint64(-a)
	}
	return uint64(a)
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// mul64 returns a·b and whether its magnitude fits in MaxInt64.
func mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(abs(a), abs(b))
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), true
	}
	return int64(lo), true
}

// add64 returns a+b and whether it neither wrapped nor is MinInt64.
func add64(a, b int64) (int64, bool) {
	s := a + b
	return s, (s > a) == (b > 0) && s != math.MinInt64
}
