package opt

import "circuitql/internal/boolcircuit"

// boolMultiPassRef is the optimizer BoolCtx replaced, kept as the
// reference the one-pass version is held against: rebuild the output
// cone through the builder again and again until a pass stops shrinking
// the circuit, adopting a pass only if it is smaller, or as small and
// shallower. It is the old loop verbatim, minus ctx; the rewrite table it
// loops over is the only one there is, boolcircuit's rewriting builder.
func boolMultiPassRef(c *boolcircuit.Circuit) *boolcircuit.Circuit {
	best := c
	for pass := 0; pass < maxPasses; pass++ {
		next := boolPassRef(best)
		if next.Size() > best.Size() ||
			(next.Size() == best.Size() && next.Depth() >= best.Depth()) {
			break
		}
		best = next
	}
	return best
}

func boolPassRef(c *boolcircuit.Circuit) *boolcircuit.Circuit {
	n := c.Size()
	outs := c.Outputs()
	live := make([]bool, n)
	for _, o := range outs {
		live[o] = true
	}
	for i := n - 1; i >= 0; i-- {
		if !live[i] {
			continue
		}
		g := c.GateAt(i)
		for _, op := range [3]int32{g.A, g.B, g.C} {
			if op >= 0 {
				live[op] = true
			}
		}
	}

	nc := boolcircuit.NewRewriting()
	m := make([]int, n)
	for i := 0; i < n; i++ {
		g := c.GateAt(i)
		switch {
		case g.Op == boolcircuit.OpInput:
			m[i] = nc.Input()
		case live[i]:
			m[i] = build(nc, g, m)
		default:
			m[i] = -1
		}
	}
	for _, o := range outs {
		nc.MarkOutput(m[o])
	}
	return nc
}
