// Package opt is the circuit optimizer: semantics-preserving passes over
// the paper's two circuit layers, applied between compilation and the
// plan cache.
//
// The paper's headline results (Theorems 1-5) are all statements about
// circuit *size* against the polymatroid bound, but the constructions of
// Sections 4-5 are emitted verbatim by the compiler, so measured sizes
// carry avoidable constant factors. Knowledge-compilation practice
// (Amarilli & Capelli; Amarilli, Monet & Senellart) treats hash-consed,
// deduplicated circuits as the canonical representation; this package
// adopts that here.
//
// Relational passes (Rel):
//
//   - common-subexpression elimination: structurally identical gates
//     (same kind, inputs, parameters, schema, AND declared bound — the
//     bound is part of the wire contract, so only wires with the same
//     contract merge) are shared;
//   - algebraic rewrites: union-with-empty elision, join-with-empty and
//     select-false emptiness propagation (declared bounds tightened to 0,
//     shrinking every downstream oblivious capacity), double-projection
//     collapse, identity-projection and no-op-cap forwarding;
//   - dead-gate elimination from the output cone (relcircuit.Prune).
//
// Word level: the rewrite table — constant folding and algebraic
// identities (x+0, x·0, x·1, x&x, x|x, x^x, ¬¬x, mux with constant or
// equal arms, constant-chain collapse for +, ^, &, |), commutative
// normalization, and global value numbering through the structural hash
// — is not in this package. It is boolcircuit's rewriting builder
// (boolcircuit.NewRewriting), and it has two drivers:
//
//   - a served compile lowers straight through that builder and then only
//     sweeps the gates folding left unused (core.CompileQueryOptsCtx,
//     boolcircuit.Prune); no raw circuit is built and nothing is hashed
//     twice;
//   - BoolCtx, here, is for circuits that were built some other way — a
//     deserialized circuit, a raw lowering, a fuzzer's: it replays the
//     output cone through a rewriting builder, sweeps, and adopts the
//     result if it improves.
//
// Either way depths are recomputed as gates are built, so the vm
// compiler sees tighter, wider levels.
//
// Every pass preserves input-wire allocation order and output marking
// order, so packing layouts, output offsets, and serialized artifacts
// remain valid. Soundness is established empirically by the
// differential oracle (oracle_test.go in the root package) and
// FuzzOptimize, and the size accounting by the golden tests.
package opt

import "time"

// Report summarizes one optimization run for observability and the
// cost-aware plan cache. No raw word circuit is materialized — the
// lowering folds as it builds (boolcircuit.NewRewriting) — so the
// word-level "before" numbers are the circuit as built, before the
// sweep: WordGatesBefore/WordDepthBefore already include every builder-
// time rewrite, and WordReduction is the share the sweep removed, not
// the optimizer's whole yield. The raw count is what a NoOpt compile of
// the same query builds (TestReductionFloor measures against that).
// Elapsed covers the relational passes and the sweep; the folding has no
// time of its own, it is part of the lowering.
type Report struct {
	RelGatesBefore, RelGatesAfter   int
	RelDepthBefore, RelDepthAfter   int
	WordGatesBefore, WordGatesAfter int
	WordDepthBefore, WordDepthAfter int
	Elapsed                         time.Duration
}

// WordReduction returns the fractional word-gate reduction in [0, 1].
func (r Report) WordReduction() float64 {
	if r.WordGatesBefore == 0 {
		return 0
	}
	return 1 - float64(r.WordGatesAfter)/float64(r.WordGatesBefore)
}

// RelReduction returns the fractional relational-gate reduction.
func (r Report) RelReduction() float64 {
	if r.RelGatesBefore == 0 {
		return 0
	}
	return 1 - float64(r.RelGatesAfter)/float64(r.RelGatesBefore)
}

// maxPasses bounds the rewrite→CSE→prune fixpoint loop of Rel and of the
// test-only multi-pass reference (BoolCtx itself is one pass). Each pass
// only shrinks the circuit, so the loop terminates on its own; the cap is
// a backstop against a pathological slow convergence.
const maxPasses = 8
