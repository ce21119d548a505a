package store

import (
	"bytes"
	"context"
	"fmt"

	"circuitql/internal/core"
	"circuitql/internal/vm"
)

// migrateV1 reads the body of a version-1 artifact — the swept word
// circuit with its specs (core.ObliviousCircuit's format) — into a: the
// circuit's vm program is compiled once, here, and the circuit dropped,
// so a holds what a version-2 file of the same plan decodes to. The
// program is taken from its own encoding, so it is validated as every
// decoded program is, whatever circuit the file held. The version-1
// header's charge lacked the program's footprint, and it had no depth;
// both come from the circuit. Store.GetPlan then rewrites the file in
// the current format.
func (a *PlanArtifact) migrateV1(body []byte) error {
	obliv, err := core.ReadObliviousCircuit(bytes.NewBuffer(body))
	if err != nil {
		return fmt.Errorf("store: plan circuit: %w", err)
	}
	// Store.GetPlan's signature carries no context (the frozen bench/
	// module links it), so none reaches this compile; the file's size
	// bounds it.
	compiled, err := vm.Compile(context.TODO(), obliv.C)
	if err != nil {
		return fmt.Errorf("store: plan circuit: %w", err)
	}
	prog, err := vm.DecodeProgram(compiled.Append(nil))
	if err != nil {
		return fmt.Errorf("store: plan circuit: %w", err)
	}
	if a.Gates < 1 {
		a.Gates = max(1, int64(obliv.C.Size()))
	}
	a.Gates += progCharge(prog)
	a.Depth = obliv.C.Depth()
	obliv.C = nil
	a.Obliv, a.Prog, a.migrated = obliv, prog, true
	return nil
}
