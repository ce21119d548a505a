package opt

// BoolMultiPassRef exposes the test-only multi-pass reference optimizer
// to the external test package, which may import core (core imports opt,
// so the in-package tests cannot).
var BoolMultiPassRef = boolMultiPassRef
