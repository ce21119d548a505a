package lp

// What the external test package (which may import internal/bound and
// internal/ghd, as this one may not) needs of the in-package test code.
var (
	CheckAgainstReference = checkAgainstReference
	RandomProblem         = randomProblem
	RefSolve              = refSolve
)
