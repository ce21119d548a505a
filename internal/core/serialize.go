package core

import (
	"encoding/json"
	"fmt"
	"io"

	"circuitql/internal/boolcircuit"
)

// Oblivious-circuit serialization, the body of a version-1 stored plan,
// which internal/store still reads and migrates (a version-2 plan holds
// the specs and the vm program instead of the circuit). Format: a JSON header (input/output specs)
// preceded by its varint-free fixed-width length line, then the
// boolcircuit wire format.

type artifactHeader struct {
	Version int          `json:"version"`
	Inputs  []InputSpec  `json:"inputs"`
	Outputs []OutputSpec `json:"outputs"`
}

// WriteTo serializes the oblivious circuit with its metadata.
func (oc *ObliviousCircuit) WriteTo(w io.Writer) (int64, error) {
	b, err := oc.Append(nil)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

// Append appends what WriteTo writes to b and returns the extended
// slice (see boolcircuit.Circuit.Append).
func (oc *ObliviousCircuit) Append(b []byte) ([]byte, error) {
	head, err := json.Marshal(artifactHeader{Version: 1, Inputs: oc.Inputs, Outputs: oc.Outputs})
	if err != nil {
		return nil, err
	}
	b = fmt.Appendf(b, "CQOC %10d\n", len(head))
	b = append(b, head...)
	return oc.C.Append(b), nil
}

// ReadObliviousCircuit deserializes an artifact written by WriteTo.
func ReadObliviousCircuit(r io.Reader) (*ObliviousCircuit, error) {
	var headLen int
	prefix := make([]byte, len("CQOC ")+10+1)
	if _, err := io.ReadFull(r, prefix); err != nil {
		return nil, fmt.Errorf("core: artifact prefix: %w", err)
	}
	if _, err := fmt.Sscanf(string(prefix), "CQOC %d\n", &headLen); err != nil {
		return nil, fmt.Errorf("core: bad artifact prefix %q", prefix)
	}
	if headLen < 2 || headLen > 1<<28 {
		return nil, fmt.Errorf("core: unreasonable header length %d", headLen)
	}
	head := make([]byte, headLen)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("core: artifact header: %w", err)
	}
	var h artifactHeader
	if err := json.Unmarshal(head, &h); err != nil {
		return nil, fmt.Errorf("core: artifact header: %w", err)
	}
	if h.Version != 1 {
		return nil, fmt.Errorf("core: unsupported artifact version %d", h.Version)
	}
	c, err := boolcircuit.Read(r)
	if err != nil {
		return nil, err
	}
	oc := &ObliviousCircuit{C: c, Inputs: h.Inputs, Outputs: h.Outputs}
	if err := oc.CheckSpecs(c.NumInputs(), len(c.Outputs())); err != nil {
		return nil, err
	}
	return oc, nil
}

// CheckSpecs cross-checks the input and output specs against the words
// they lay out: numInputs input words, numOutputs output words. Each
// spec must fit in what is left of the words before it is summed, so a
// hostile capacity can neither overflow the sums nor point a decode past
// the outputs.
func (oc *ObliviousCircuit) CheckSpecs(numInputs, numOutputs int) error {
	wires := 0
	for _, in := range oc.Inputs {
		w, ok := specWidth(in.Capacity, in.Schema, numInputs-wires)
		if !ok {
			return fmt.Errorf("core: artifact input %q (capacity %d, schema %q) does not fit the circuit", in.Name, in.Capacity, in.Schema)
		}
		wires += w
	}
	if wires != numInputs {
		return fmt.Errorf("core: artifact metadata expects %d input wires, circuit has %d", wires, numInputs)
	}
	// Each output spec must start where lower lays it out: right after
	// the one before it.
	outWires := 0
	for _, o := range oc.Outputs {
		w, ok := specWidth(o.Capacity, o.Schema, numOutputs-outWires)
		if !ok || o.Offset != outWires {
			return fmt.Errorf("core: artifact output of gate %d (offset %d, capacity %d, schema %q) does not fit the circuit from wire %d",
				o.Gate, o.Offset, o.Capacity, o.Schema, outWires)
		}
		outWires += w
	}
	if outWires != numOutputs {
		return fmt.Errorf("core: artifact metadata expects %d output wires, circuit has %d", outWires, numOutputs)
	}
	return nil
}

// specWidth returns the wires a relation of the given capacity and
// schema lays out, capacity·(1+len(schema)), and whether the spec is
// sound: at most left wires, over distinct non-empty attribute names
// (what relation.New demands of a decoded output).
func specWidth(capacity int, schema []string, left int) (int, bool) {
	if capacity < 0 || (capacity > 0 && 1+len(schema) > left/capacity) {
		return 0, false
	}
	seen := make(map[string]bool, len(schema))
	for _, a := range schema {
		if a == "" || seen[a] {
			return 0, false
		}
		seen[a] = true
	}
	return capacity * (1 + len(schema)), true
}
