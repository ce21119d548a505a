// Package mpcsim executes a Boolean circuit under a simulated two-party
// GMW protocol [18] — the secure-computation deployment of Section 1
// made concrete. Each wire is XOR-secret-shared between party 0 and
// party 1; XOR and NOT are evaluated locally; AND gates consume a Beaver
// triple from a trusted dealer and cost one opening (d = x⊕a, e = y⊕b)
// each, with all AND gates of one circuit level sharing a communication
// round. OR gates are rewritten by De Morgan.
//
// The simulation is honest-but-curious and the cryptography (OT for
// triple generation) is out of scope — substituted by the dealer, as
// DESIGN.md documents. What the package *does* establish, and the tests
// check, is the structural security property circuits buy: the protocol
// transcript's shape (which wires are opened, in which rounds, how many
// bits flow) is identical for every input, and each party's view is
// masked by fresh random triples.
package mpcsim

import (
	"fmt"
	"math/rand"

	"circuitql/internal/boolcircuit"
)

// Transcript records what an observer of the protocol sees.
type Transcript struct {
	ANDGates int64 // triples consumed
	BitsSent int64 // total bits exchanged in openings (4 per AND)
	Rounds   int   // communication rounds = multiplicative depth
	// Openings is the flattened sequence of opened masked bits (d, e per
	// AND gate in gate order). Its values are masked by the dealer's
	// randomness; its LENGTH and position structure are input
	// independent, which TestTranscriptShapeIsOblivious verifies.
	Openings []byte
}

// Run executes the circuit on the given input bits under 2-party GMW.
// owner[i] says which party holds input bit i (it contributes the real
// bit XOR a random mask as the other party's share). The dealer's and
// the sharing randomness derive from seed. Returns the reconstructed
// output bits and the transcript.
//
// The circuit must be Boolean — every wire 0/1, gates among
// INPUT/CONST/AND/OR/XOR — which is what bitblast.BlastCtx produces.
func Run(c *boolcircuit.Circuit, inputs []int64, owner []int, seed int64) ([]int64, Transcript, error) {
	if len(inputs) != c.NumInputs() {
		return nil, Transcript{}, fmt.Errorf("mpcsim: got %d inputs, want %d", len(inputs), c.NumInputs())
	}
	if len(owner) != len(inputs) {
		return nil, Transcript{}, fmt.Errorf("mpcsim: got %d owners, want %d", len(owner), len(inputs))
	}
	dealer := rand.New(rand.NewSource(seed))

	type share struct{ s0, s1 byte }
	shares := make([]share, c.Size())
	andDepth := make([]int, c.Size())
	var tr Transcript

	nextInput := 0
	for id := 0; id < c.Size(); id++ {
		g := c.GateAt(id)
		switch g.Op {
		case boolcircuit.OpInput:
			bit := byte(inputs[nextInput] & 1)
			if inputs[nextInput] != 0 && inputs[nextInput] != 1 {
				return nil, Transcript{}, fmt.Errorf("mpcsim: input %d is not a bit", nextInput)
			}
			mask := byte(dealer.Intn(2))
			if owner[nextInput] == 0 {
				shares[id] = share{s0: bit ^ mask, s1: mask}
			} else {
				shares[id] = share{s0: mask, s1: bit ^ mask}
			}
			nextInput++
		case boolcircuit.OpConst:
			if g.K != 0 && g.K != 1 {
				return nil, Transcript{}, fmt.Errorf("mpcsim: non-boolean constant %d", g.K)
			}
			shares[id] = share{s0: byte(g.K), s1: 0}
		case boolcircuit.OpXor:
			a, b := shares[g.A], shares[g.B]
			shares[id] = share{s0: a.s0 ^ b.s0, s1: a.s1 ^ b.s1}
			andDepth[id] = maxInt(andDepth[g.A], andDepth[g.B])
		case boolcircuit.OpAnd, boolcircuit.OpOr:
			x, y := shares[g.A], shares[g.B]
			if g.Op == boolcircuit.OpOr {
				// x ∨ y = ¬(¬x ∧ ¬y); NOT flips party 0's share.
				x.s0 ^= 1
				y.s0 ^= 1
			}
			// Beaver triple (a, b, ab), each value XOR-shared.
			ta, tb := byte(dealer.Intn(2)), byte(dealer.Intn(2))
			tc := ta & tb
			a0, b0, c0 := byte(dealer.Intn(2)), byte(dealer.Intn(2)), byte(dealer.Intn(2))
			a1, b1, c1 := ta^a0, tb^b0, tc^c0
			// Each party opens its shares of d = x⊕a and e = y⊕b.
			d0, e0 := x.s0^a0, y.s0^b0
			d1, e1 := x.s1^a1, y.s1^b1
			d, e := d0^d1, e0^e1
			tr.Openings = append(tr.Openings, d0, e0, d1, e1)
			tr.BitsSent += 4
			tr.ANDGates++
			// z = c ⊕ d·b ⊕ e·a ⊕ d·e (the constant d·e goes to party 0).
			z0 := c0 ^ d&b0 ^ e&a0 ^ d&e
			z1 := c1 ^ d&b1 ^ e&a1
			if g.Op == boolcircuit.OpOr {
				z0 ^= 1 // final negation of De Morgan
			}
			shares[id] = share{s0: z0, s1: z1}
			andDepth[id] = maxInt(andDepth[g.A], andDepth[g.B]) + 1
		default:
			return nil, Transcript{}, fmt.Errorf("mpcsim: gate %d has non-boolean op %v (bit-blast first)", id, g.Op)
		}
		if d := andDepth[id]; d > tr.Rounds {
			tr.Rounds = d
		}
	}

	outs := c.Outputs()
	result := make([]int64, len(outs))
	for i, o := range outs {
		result[i] = int64(shares[o].s0 ^ shares[o].s1)
	}
	return result, tr, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
