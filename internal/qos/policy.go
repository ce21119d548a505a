package qos

// Level grades how full the admission lanes are.
type Level int

// Load levels. LevelCritical keeps the value 2 it has always been
// exported under (circuitql_qos_degradation_level); 1 was a level whose
// only measure — compiling without the optimizer — was deleted, because
// it left a fingerprint with two possible plans.
const (
	// LevelNormal: nothing is shed that the lanes have room for.
	LevelNormal Level = 0
	// LevelCritical: under ShedAdaptive, below-normal-priority requests
	// are shed at admission.
	LevelCritical Level = 2
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelNormal:
		return "normal"
	case LevelCritical:
		return "critical"
	}
	return "unknown"
}

// Load is a point-in-time picture of the admission lanes, assembled by
// the engine from its queues.
type Load struct {
	HitQueue  int // requests queued in the hit lane
	HitDepth  int // hit-lane queue capacity
	MissQueue int // requests queued in the miss lane
	MissDepth int // miss-lane queue capacity
}

// Level grades the load: critical once the fuller lane's queue is at
// least three-quarters full. Deterministic: same Load, same answer.
func (l Load) Level() Level {
	// q/d ≥ ¾ in integers; a lane without a queue is never full.
	full := func(q, d int) bool { return d > 0 && 4*q >= 3*d }
	if full(l.HitQueue, l.HitDepth) || full(l.MissQueue, l.MissDepth) {
		return LevelCritical
	}
	return LevelNormal
}
