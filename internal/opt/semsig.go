package opt

import (
	"context"
	"slices"

	"circuitql/internal/boolcircuit"
	"circuitql/internal/guard"
)

// Semantic CSE via probabilistic equivalence signatures.
//
// Structural hashing (BoolCtx) merges only syntactically identical
// gates. Semantically equal but structurally different subcircuits —
// Bool(x) over a wire already known to be 0/1, And(Const 1, e) for a
// 0/1 e, Mul vs And on 0/1 operands, reassociated And-chains — survive
// it. The pass here follows the prob_equiv_signature technique from
// knowledge compilation: evaluate every gate on K seeded random input
// vectors, bucket gates whose K-value signatures agree, and treat each
// bucket as a set of merge candidates.
//
// Signatures alone are not a proof: distinct rarely-true predicates
// (two unrelated Eq gates, say) share the all-zero signature on most
// vectors, and two inequivalent gates that differ on few inputs
// (adjacent thresholds, say) agree on any fixed vector family with
// probability near 1. A candidate pair is therefore merged only when a
// bounded exact prover confirms equivalence, so the rewrite is sound.

// SemConfig configures semantic CSE. The zero value selects the
// defaults: K=4 signature vectors and a fixed seed.
type SemConfig struct {
	// K is the number of random signature vectors (default 4).
	K int
	// Seed seeds the signature PRNG (default semDefaultSeed). The same
	// seed always produces the same vectors, keeping the pass
	// deterministic.
	Seed uint64
	// ProofBudget bounds prover steps per candidate pair (default 256).
	ProofBudget int
	// MaxCandidates bounds how many same-signature candidates are tried
	// per gate (default 12); large degenerate buckets (all-zero
	// signatures) stay cheap.
	MaxCandidates int
}

const (
	semDefaultSeed   = 0x5eed5161a72e50ff // fixed: pass must be deterministic
	semDefaultK      = 4
	semDefaultBudget = 128
	semDefaultCand   = 8
	// maxSemPasses bounds semPass iterations. Merges cascade within one
	// rebuild (operands of merged gates map to shared wires, so emit's
	// structural hash folds the downstream cone in the same pass); later
	// passes only catch stragglers the candidate cap deferred.
	maxSemPasses = 3
)

func (cfg SemConfig) withDefaults() SemConfig {
	if cfg.K <= 0 {
		cfg.K = semDefaultK
	}
	if cfg.Seed == 0 {
		cfg.Seed = semDefaultSeed
	}
	if cfg.ProofBudget <= 0 {
		cfg.ProofBudget = semDefaultBudget
	}
	if cfg.MaxCandidates <= 0 {
		cfg.MaxCandidates = semDefaultCand
	}
	return cfg
}

// SemStats summarizes one semantic-CSE run.
type SemStats struct {
	// Merges counts gate merges adopted beyond structural hashing, each
	// confirmed by the exact prover.
	Merges int
	// Candidates counts candidate pairs the prover examined.
	Candidates int
	// K echoes the signature vector count used.
	K int
}

// BoolSem optimizes a word-level circuit like BoolCtx and additionally
// merges semantically equivalent gates found by probabilistic
// signatures. It preserves BoolCtx's contract — input allocation order,
// output marking order, value on every input vector, ctx and budget
// polling with typed guard errors — and its monotone guarantee: the
// result is never larger or deeper than BoolCtx's. The returned stats
// cover the adopted semantic merges.
func BoolSem(ctx context.Context, c *boolcircuit.Circuit, cfg SemConfig) (*boolcircuit.Circuit, SemStats, error) {
	cfg = cfg.withDefaults()
	stats := SemStats{K: cfg.K}
	best, err := BoolCtx(ctx, c)
	if err != nil {
		return nil, stats, err
	}
	for pass := 0; pass < maxSemPasses; pass++ {
		next, st, err := semPass(ctx, best, cfg)
		if err != nil {
			return nil, stats, err
		}
		if st.Merges == 0 {
			break
		}
		// Merges orphan the gates they replaced (the Bool(x) sandwich's
		// Eq, say); semPass folds forward like BoolCtx's rebuild, so the
		// same liveness sweep and compaction finish the pass.
		if next, err = next.Prune(ctx); err != nil {
			return nil, stats, err
		}
		if !improves(next, best) {
			break
		}
		best = next
		stats.Merges += st.Merges
		stats.Candidates += st.Candidates
	}
	return best, stats, nil
}

// splitmix64 is the SplitMix64 PRNG step: deterministic, seedable, and
// dependency-free.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// semInputVector fills one signature vector: a mix of tiny-domain
// values (so equality predicates fire on some vectors and distinct
// predicates separate) and full-word values (so arithmetic gates
// separate). Even-indexed vectors draw from {0,1,2}; odd ones mix
// small and full words per input.
func semInputVector(vec int, n int, state *uint64) []int64 {
	out := make([]int64, n)
	for i := range out {
		r := splitmix64(state)
		if vec%2 == 0 {
			out[i] = int64(r % 3)
		} else if r&3 == 0 {
			out[i] = int64(r >> 2 % 5)
		} else {
			out[i] = int64(splitmix64(state))
		}
	}
	return out
}

// evalVector evaluates every gate of c on one input vector with exactly
// the evaluator's semantics (boolcircuit.EvaluateCtx), returning the
// per-gate values. It polls ctx every 4096 gates.
func evalVector(ctx context.Context, c *boolcircuit.Circuit, inputs []int64) ([]int64, error) {
	n := c.Size()
	vals := make([]int64, n)
	next := 0
	for i := 0; i < n; i++ {
		if i&0xfff == 0 {
			if err := guard.Poll(ctx); err != nil {
				return nil, err
			}
		}
		g := c.GateAt(i)
		switch g.Op {
		case boolcircuit.OpInput:
			vals[i] = inputs[next]
			next++
		case boolcircuit.OpConst:
			vals[i] = g.K
		case boolcircuit.OpMux:
			if vals[g.C] != 0 {
				vals[i] = vals[g.A]
			} else {
				vals[i] = vals[g.B]
			}
		case boolcircuit.OpNot:
			vals[i] = ^vals[g.A]
		default:
			vals[i] = foldBin(g.Op, vals[g.A], vals[g.B])
		}
	}
	return vals, nil
}

// Signatures returns the per-gate signature matrix: sigs[i] holds gate
// i's values on k seeded random input vectors. domain > 0 draws every
// input uniformly from [0, domain) — the statistical harness uses this
// to compare observed collision rates against analytic bounds — while
// domain <= 0 selects the optimizer's mixed small/full-word
// distribution. The evaluation polls ctx every 4096 gates.
func Signatures(ctx context.Context, c *boolcircuit.Circuit, k int, seed uint64, domain int64) ([][]int64, error) {
	state := seed
	sigs := make([][]int64, c.Size())
	for i := range sigs {
		sigs[i] = make([]int64, k)
	}
	for v := 0; v < k; v++ {
		var in []int64
		if domain > 0 {
			in = make([]int64, c.NumInputs())
			for i := range in {
				in[i] = int64(splitmix64(&state) % uint64(domain))
			}
		} else {
			in = semInputVector(v, c.NumInputs(), &state)
		}
		vals, err := evalVector(ctx, c, in)
		if err != nil {
			return nil, err
		}
		for i, x := range vals {
			sigs[i][v] = x
		}
	}
	return sigs, nil
}

// sigKey hashes one gate's signature row to a bucket key (FNV-1a).
// Hash collisions only waste prover candidates; they cannot cause a
// false merge.
func sigKey(row []int64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, v := range row {
		x := uint64(v)
		for s := 0; s < 64; s += 8 {
			h ^= (x >> uint(s)) & 0xff
			h *= 0x100000001b3
		}
	}
	return h
}

// is01Analysis computes, per gate, whether its value is provably in
// {0,1} on every input vector: comparisons are 0/1 by definition, And
// with one 0/1 operand clears every high bit, and Or/Xor/Mul/Mux
// preserve 0/1 when all data operands are 0/1. The analysis is sound
// (never claims 0/1 wrongly); signatures play no part in it.
func is01Analysis(c *boolcircuit.Circuit) []bool {
	n := c.Size()
	is01 := make([]bool, n)
	for i := 0; i < n; i++ {
		g := c.GateAt(i)
		switch g.Op {
		case boolcircuit.OpConst:
			is01[i] = g.K == 0 || g.K == 1
		case boolcircuit.OpEq, boolcircuit.OpLt:
			is01[i] = true
		case boolcircuit.OpAnd:
			is01[i] = is01[g.A] || is01[g.B]
		case boolcircuit.OpOr, boolcircuit.OpXor, boolcircuit.OpMul:
			is01[i] = is01[g.A] && is01[g.B]
		case boolcircuit.OpMux:
			is01[i] = is01[g.A] && is01[g.B]
		}
	}
	return is01
}

// semCtx carries the analysis state shared by the prover during one
// semPass over one (old) circuit.
type semCtx struct {
	c     *boolcircuit.Circuit
	sigs  [][]int64
	is01  []bool
	cls   []uint8 // lazily computed opClass per gate (0 = unset)
	steps int
}

// opClass buckets gates by the root shape the prover compares under:
// the normalized operation, with the two logical-not spellings
// (Eq(x,0) and Xor(x,1) over 0/1 x) folded into one class so the
// cross-op rule still gets candidates. Only same-class pairs can prove
// equal, so candidate filtering on the class is lossless.
func (s *semCtx) opClass(i int) uint8 {
	if s.cls[i] != 0 {
		return s.cls[i]
	}
	c := uint8(0)
	if _, ok := s.notOperand(i); ok {
		c = 64 // shared logical-not class
	} else {
		op, _, _, _ := s.normOp(i)
		c = uint8(op) + 1
	}
	s.cls[i] = c
	return c
}

func (s *semCtx) gate(i int) boolcircuit.Gate { return s.c.GateAt(i) }

func (s *semCtx) constVal(i int) (int64, bool) {
	if g := s.gate(i); g.Op == boolcircuit.OpConst {
		return g.K, true
	}
	return 0, false
}

// deref follows value-preserving simplifications down to a canonical
// existing wire: Bool(x) → x and Mux(c,1,0) → c on 0/1 wires, And/Or/
// Xor/Add/Mul identities with constants, double logical/bitwise
// negation. Every step maps a wire to an older wire computing the same
// value, so the walk terminates.
func (s *semCtx) deref(i int) int {
	for {
		g := s.gate(i)
		next := -1
		switch g.Op {
		case boolcircuit.OpXor:
			a, b := int(g.A), int(g.B)
			if next = s.xorDeref(a, b); next < 0 {
				next = s.xorDeref(b, a)
			}
		case boolcircuit.OpAnd:
			a, b := int(g.A), int(g.B)
			if next = s.andDeref(a, b); next < 0 {
				next = s.andDeref(b, a)
			}
		case boolcircuit.OpOr:
			a, b := int(g.A), int(g.B)
			if next = s.orDeref(a, b); next < 0 {
				next = s.orDeref(b, a)
			}
		case boolcircuit.OpAdd:
			a, b := int(g.A), int(g.B)
			if k, ok := s.constVal(b); ok && k == 0 {
				next = a
			} else if k, ok := s.constVal(a); ok && k == 0 {
				next = b
			}
		case boolcircuit.OpMul:
			a, b := int(g.A), int(g.B)
			if next = s.mulDeref(a, b); next < 0 {
				next = s.mulDeref(b, a)
			}
		case boolcircuit.OpNot:
			if in := s.gate(int(g.A)); in.Op == boolcircuit.OpNot {
				next = int(in.A)
			}
		case boolcircuit.OpMux:
			a, b, cond := int(g.A), int(g.B), int(g.C)
			ka, aConst := s.constVal(a)
			kb, bConst := s.constVal(b)
			switch {
			case a == b:
				next = a
			case aConst && bConst && ka == 1 && kb == 0 && s.is01[cond]:
				next = cond // Mux(c,1,0) ≡ c for 0/1 c
			default:
				if k, ok := s.constVal(cond); ok {
					if k != 0 {
						next = a
					} else {
						next = b
					}
				}
			}
		}
		if next < 0 {
			return i
		}
		i = next
	}
}

// xorDeref simplifies Xor(a, b) given the operand split (a data, b
// possibly constant); -1 when no rule applies.
func (s *semCtx) xorDeref(a, b int) int {
	kb, bConst := s.constVal(b)
	if !bConst {
		if a == b {
			return -1 // Xor(x,x) handled by caller only via const 0 wire; no existing wire guaranteed
		}
		return -1
	}
	if kb == 0 {
		return a
	}
	if kb == 1 {
		ga := s.gate(a)
		// NotB(NotB(x)) → x.
		if ga.Op == boolcircuit.OpXor {
			if k, ok := s.constVal(int(ga.B)); ok && k == 1 {
				return int(ga.A)
			}
			if k, ok := s.constVal(int(ga.A)); ok && k == 1 {
				return int(ga.B)
			}
		}
		// Bool(x) = Xor(Eq(x, 0), 1) → x when x is 0/1.
		if ga.Op == boolcircuit.OpEq {
			if k, ok := s.constVal(int(ga.B)); ok && k == 0 && s.is01[ga.A] {
				return int(ga.A)
			}
			if k, ok := s.constVal(int(ga.A)); ok && k == 0 && s.is01[ga.B] {
				return int(ga.B)
			}
		}
	}
	return -1
}

// andDeref simplifies And(a, b) for a possibly-constant b; -1 when no
// rule applies.
func (s *semCtx) andDeref(a, b int) int {
	if a == b {
		return a
	}
	kb, bConst := s.constVal(b)
	if !bConst {
		return -1
	}
	switch {
	case kb == -1:
		return a
	case kb == 0:
		return b // And(x, 0) ≡ 0: the const wire itself
	case kb == 1 && s.is01[a]:
		return a // And(x, 1) ≡ x for 0/1 x — wiresEqual's seed conjunct
	}
	return -1
}

// orDeref simplifies Or(a, b) for a possibly-constant b.
func (s *semCtx) orDeref(a, b int) int {
	if a == b {
		return a
	}
	kb, bConst := s.constVal(b)
	if !bConst {
		return -1
	}
	switch {
	case kb == 0:
		return a
	case kb == -1:
		return b
	case kb == 1 && s.is01[a]:
		return b // Or(x, 1) ≡ 1 for 0/1 x
	}
	return -1
}

// mulDeref simplifies Mul(a, b) for a possibly-constant b.
func (s *semCtx) mulDeref(a, b int) int {
	kb, bConst := s.constVal(b)
	if !bConst {
		return -1
	}
	switch kb {
	case 1:
		return a
	case 0:
		return b
	}
	return -1
}

// normOp maps a gate to the canonical operation the prover compares
// under: Mul on 0/1 operands is And, Mux(c, x, 0) with 0/1 c is
// Mul/And of (c, x).
func (s *semCtx) normOp(i int) (op boolcircuit.Op, a, b int, ok bool) {
	g := s.gate(i)
	switch g.Op {
	case boolcircuit.OpMul:
		if s.is01[g.A] && s.is01[g.B] {
			return boolcircuit.OpAnd, int(g.A), int(g.B), true
		}
	case boolcircuit.OpMux:
		cond := int(g.C)
		if !s.is01[cond] {
			break
		}
		if k, okc := s.constVal(int(g.B)); okc && k == 0 {
			// Mux(c, x, 0) ≡ c·x; ≡ And(c, x) when x is 0/1 too.
			if s.is01[g.A] {
				return boolcircuit.OpAnd, cond, int(g.A), true
			}
			return boolcircuit.OpMul, cond, int(g.A), true
		}
	}
	return g.Op, int(g.A), int(g.B), false
}

// acFlatten collects the leaf multiset of an associative-commutative
// operator chain rooted at wire i, dereferencing as it goes. Chains are
// cut at 16 leaves to bound work.
func (s *semCtx) acFlatten(op boolcircuit.Op, i int, out []int) []int {
	i = s.deref(i)
	g := s.gate(i)
	gop, a, b, norm := s.normOp(i)
	if gop == op && (g.Op == op || norm) && len(out) < 16 {
		out = s.acFlatten(op, a, out)
		out = s.acFlatten(op, b, out)
		return out
	}
	return append(out, i)
}

// semMaxDepth caps prover recursion: successful proofs are shallow
// (root-shape match plus leaf identity), so deep searches almost
// always fail and only burn budget.
const semMaxDepth = 6

// equal attempts to prove wires i and j of the old circuit compute the
// same value on every input vector. It is sound: true is only returned
// on a successful proof. Budget or depth exhaustion and unknown shapes
// return false.
func (s *semCtx) equal(i, j, depth int) bool {
	i, j = s.deref(i), s.deref(j)
	if i == j {
		return true
	}
	if i > j {
		i, j = j, i
	}
	// Unequal signatures are a definitive disproof (a witness vector).
	for v := range s.sigs[i] {
		if s.sigs[i][v] != s.sigs[j][v] {
			return false
		}
	}
	if s.steps <= 0 || depth >= semMaxDepth {
		return false
	}
	s.steps--
	// No memo table: the budget and depth caps already bound the work,
	// and at millions of gates the map traffic costs far more than the
	// occasional re-derivation it saves. Recursion is well-founded
	// (operand ids strictly decrease), so a cycle cannot occur.
	return s.equalStep(i, j, depth)
}

func (s *semCtx) equalStep(i, j, depth int) bool {
	gi, gj := s.gate(i), s.gate(j)
	if gi.Op == boolcircuit.OpConst && gj.Op == boolcircuit.OpConst {
		return gi.K == gj.K
	}
	if gi.Op == boolcircuit.OpInput || gj.Op == boolcircuit.OpInput {
		return false // distinct inputs are free variables
	}
	opI, aI, bI, _ := s.normOp(i)
	opJ, aJ, bJ, _ := s.normOp(j)

	// Cross-op: Eq(x, 0) ≡ Xor(y, 1) (logical not) when x ≡ y and x is 0/1.
	if x, ok := s.notOperand(i); ok {
		if y, ok2 := s.notOperand(j); ok2 {
			return s.equal(x, y, depth+1)
		}
	}

	if opI != opJ {
		return false
	}
	switch opI {
	case boolcircuit.OpAdd, boolcircuit.OpMul, boolcircuit.OpAnd,
		boolcircuit.OpOr, boolcircuit.OpXor:
		var bi, bj [48]int // leaf cap 16 + recursion slack; append never grows
		li := s.acFlatten(opI, aI, bi[:0])
		li = s.acFlatten(opI, bI, li)
		lj := s.acFlatten(opJ, aJ, bj[:0])
		lj = s.acFlatten(opJ, bJ, lj)
		return s.matchMultisets(opI, li, lj, depth)
	case boolcircuit.OpEq:
		return (s.equal(aI, aJ, depth+1) && s.equal(bI, bJ, depth+1)) ||
			(s.equal(aI, bJ, depth+1) && s.equal(bI, aJ, depth+1))
	case boolcircuit.OpSub, boolcircuit.OpMod, boolcircuit.OpLt:
		return s.equal(aI, aJ, depth+1) && s.equal(bI, bJ, depth+1)
	case boolcircuit.OpNot:
		return s.equal(aI, aJ, depth+1)
	case boolcircuit.OpMux:
		return s.equal(int(s.gate(i).C), int(s.gate(j).C), depth+1) &&
			s.equal(aI, aJ, depth+1) && s.equal(bI, bJ, depth+1)
	}
	return false
}

// notOperand recognizes the two logical-negation shapes over a 0/1
// operand x — Eq(x, Const 0) and Xor(x, Const 1) — returning x.
func (s *semCtx) notOperand(i int) (int, bool) {
	g := s.gate(i)
	switch g.Op {
	case boolcircuit.OpEq:
		if k, ok := s.constVal(int(g.B)); ok && k == 0 && s.is01[g.A] {
			return int(g.A), true
		}
		if k, ok := s.constVal(int(g.A)); ok && k == 0 && s.is01[g.B] {
			return int(g.B), true
		}
	case boolcircuit.OpXor:
		if k, ok := s.constVal(int(g.B)); ok && k == 1 && s.is01[g.A] {
			return int(g.A), true
		}
		if k, ok := s.constVal(int(g.A)); ok && k == 1 && s.is01[g.B] {
			return int(g.B), true
		}
	}
	return -1, false
}

// matchMultisets proves two AC-leaf multisets equal: identical ids
// cancel first (including duplicate counts — And/Or are idempotent
// only gate-wise, which deref already canonicalized), then leftovers
// pair up greedily through the prover. For the idempotent operators
// And/Or a leaf repeated on one side only is absorbed.
func (s *semCtx) matchMultisets(op boolcircuit.Op, li, lj []int, depth int) bool {
	idem := op == boolcircuit.OpAnd || op == boolcircuit.OpOr
	if idem {
		li = dedupInts(li)
		lj = dedupInts(lj)
	}
	// Cancel identical wires.
	used := make([]bool, len(lj))
	var rest []int
	for _, x := range li {
		found := false
		for k, y := range lj {
			if !used[k] && x == y {
				used[k] = true
				found = true
				break
			}
		}
		if !found {
			rest = append(rest, x)
		}
	}
	var restJ []int
	for k, y := range lj {
		if !used[k] {
			restJ = append(restJ, y)
		}
	}
	if len(rest) != len(restJ) {
		return false
	}
	usedJ := make([]bool, len(restJ))
	for _, x := range rest {
		found := false
		for k, y := range restJ {
			if !usedJ[k] && s.equal(x, y, depth+1) {
				usedJ[k] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func dedupInts(xs []int) []int {
	seen := make(map[int]bool, len(xs))
	out := xs[:0:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// semPass rebuilds c exactly like BoolCtx's fold-forward pass — same
// liveness, input allocation, constant folding, hash-consing, output
// marking — and additionally maps each live gate onto an earlier gate
// with the same signature when the prover establishes equivalence,
// skipping the gate's emission entirely.
func semPass(ctx context.Context, c *boolcircuit.Circuit, cfg SemConfig) (*boolcircuit.Circuit, SemStats, error) {
	st := SemStats{K: cfg.K}
	sigs, err := Signatures(ctx, c, cfg.K, cfg.Seed, 0)
	if err != nil {
		return nil, st, err
	}
	sctx := &semCtx{
		c:    c,
		sigs: sigs,
		is01: is01Analysis(c),
		cls:  make([]uint8, c.Size()),
	}

	buckets := make(map[uint64][]int)
	nc, err := rebuild(ctx, c, func(i int, m []int) int {
		// Root dereference: the gate simplifies in place to an older
		// wire (Bool over a 0/1 wire, And with Const 1, Mux(c,1,0), ...)
		// — a proven merge with no prover search.
		if w := sctx.deref(i); w != i && m[w] >= 0 {
			st.Merges++
			return m[w]
		}
		// The bucket key folds in the root-shape class: same-signature
		// candidates with an incompatible root shape cannot be proven
		// equal, so they never need to meet.
		key := sigKey(sctx.sigs[i]) ^ (uint64(sctx.opClass(i)) * 0x9e3779b97f4a7c15)
		tried := 0
		for _, j := range buckets[key] {
			if tried >= cfg.MaxCandidates {
				break
			}
			if m[j] < 0 || !slices.Equal(sctx.sigs[i], sctx.sigs[j]) {
				continue
			}
			tried++
			st.Candidates++
			sctx.steps = cfg.ProofBudget
			if sctx.equal(i, j, 0) {
				st.Merges++
				return m[j]
			}
		}
		// Not merged: the gate is emitted and becomes a candidate for the
		// gates after it.
		buckets[key] = append(buckets[key], i)
		return -1
	})
	return nc, st, err
}
