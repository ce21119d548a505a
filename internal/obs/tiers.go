package obs

import "sync/atomic"

// The tiers the ledger counts, in degradation order: the engine's
// ladder is vm → ram, the facade's EvaluateResilient oblivious →
// relational → ram. The names match the facade and engine tier
// constants.
var tierNames = [...]string{"vm", "oblivious", "relational", "ram"}

const numTiers = len(tierNames)

func tierIndex(tier string) int {
	for i, n := range tierNames {
		if n == tier {
			return i
		}
	}
	return -1
}

// TierLedger counts evaluation-tier activity process-wide: one attempt
// per tier tried, one serve for the tier that answered, and one
// fallback for every serve by a tier other than the first attempted.
// Both the engine's evaluate ladder and the facade's EvaluateResilient
// record here, so the exposed counters agree with every TierReport
// regardless of which path evaluated. All methods are lock-free.
type TierLedger struct {
	attempts  [numTiers]atomic.Int64
	serves    [numTiers]atomic.Int64
	fallbacks [numTiers]atomic.Int64
}

// Tiers is the process-wide ledger (the one /metrics exposes).
var Tiers TierLedger

// Attempt records that tier was tried.
func (l *TierLedger) Attempt(tier string) {
	if i := tierIndex(tier); i >= 0 {
		l.attempts[i].Add(1)
	}
}

// Serve records that tier produced the answer; fellBack marks it a
// degradation (an earlier tier was attempted and failed).
func (l *TierLedger) Serve(tier string, fellBack bool) {
	i := tierIndex(tier)
	if i < 0 {
		return
	}
	l.serves[i].Add(1)
	if fellBack {
		l.fallbacks[i].Add(1)
	}
}

// TierCounts is a snapshot of one tier's counters.
type TierCounts struct {
	Tier      string
	Attempts  int64
	Serves    int64
	Fallbacks int64
}

// Snapshot returns the ledger's counters in degradation order.
func (l *TierLedger) Snapshot() [numTiers]TierCounts {
	var out [numTiers]TierCounts
	for i := range out {
		out[i] = TierCounts{
			Tier:      tierNames[i],
			Attempts:  l.attempts[i].Load(),
			Serves:    l.serves[i].Load(),
			Fallbacks: l.fallbacks[i].Load(),
		}
	}
	return out
}

// Families adapts the ledger for a Registry.
func (l *TierLedger) Families() []Family {
	snap := l.Snapshot()
	att := Family{Name: "circuitql_eval_tier_attempts_total", Help: "Evaluation-tier attempts (engine ladder and EvaluateResilient).", Type: TypeCounter}
	srv := Family{Name: "circuitql_eval_tier_served_total", Help: "Evaluations answered per tier.", Type: TypeCounter}
	fb := Family{Name: "circuitql_eval_tier_fallbacks_total", Help: "Serves that degraded past an earlier failing tier.", Type: TypeCounter}
	for _, tc := range snap {
		lbl := []Label{{"tier", tc.Tier}}
		att.Samples = append(att.Samples, Sample{Labels: lbl, Value: float64(tc.Attempts)})
		srv.Samples = append(srv.Samples, Sample{Labels: lbl, Value: float64(tc.Serves)})
		fb.Samples = append(fb.Samples, Sample{Labels: lbl, Value: float64(tc.Fallbacks)})
	}
	return []Family{att, srv, fb}
}
