package opt

// BoolMultiPassRef exposes the test-only multi-pass reference optimizer
// to the external test package, which may import core (core imports opt,
// so the in-package tests cannot).
var BoolMultiPassRef = boolMultiPassRef

// Replay exposes BoolCtx's first half, before the sweep and the adoption
// rule, so the fixpoint test can look at what a second optimization would
// build and not only at whether it was adopted.
var Replay = replay
