// Package store is the persistence layer under the serving engine: a
// plan-artifact store that makes compiled plans durable across process
// restarts, and a checksummed columnar relation format for databases
// kept on disk.
//
// The knowledge-compilation view of the paper's circuits treats a
// compiled plan as a durable, reusable object — the circuit *is* the
// asset, and what the store keeps of it is the vm program it compiles
// to, which every reader runs — so the store gives it the lifecycle of one: a versioned,
// checksummed on-disk format keyed by the canonical fingerprint of the
// (query, degree-constraint) pair, written atomically (temp file +
// rename) so a crash mid-write can never corrupt a visible artifact,
// and indexed by the directory itself: the artifact files are the
// index.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"circuitql/internal/core"
	"circuitql/internal/guard"
	"circuitql/internal/query"
	"circuitql/internal/vm"
)

// PlanFormatVersion is the on-disk plan-artifact format version. Any
// incompatible change to EncodePlan's layout must bump it — the golden
// format-compatibility test pins this version's artifact byte for byte
// and fails the build otherwise. Version 1 artifacts, which held the
// swept word circuit instead of its program, still decode (v1.go).
const PlanFormatVersion = 2

// planMagic opens every plan artifact file.
const planMagic = "CQPS"

// maxPlanBytes caps how large a plan artifact the decoder will read:
// adversarial headers must not drive allocation. 1 GiB comfortably
// clears the largest catalog plan (star3 at bound 6 is ~70 MB).
const maxPlanBytes = 1 << 30

// PlanArtifact is one persisted plan: the query pair it was compiled
// on (as re-parseable text, so integrity can be verified by
// canonicalizing), the packing specs, and the vm program every reader
// runs. Neither circuit layer is persisted: the relational gates carry
// closures (predicates, map expressions) with no wire format, and the
// word circuit is what the program was compiled from. A loaded plan is
// served exactly as a freshly compiled one, by the vm tier and then the
// RAM tier.
type PlanArtifact struct {
	// FP is the canonical fingerprint the plan is stored under.
	FP query.Fingerprint
	// QueryText is the query the circuit was compiled on, in datalog
	// syntax (core.Compiled.Query.String()): the canonical query for an
	// engine plan, the caller's own for a facade artifact. Parsing and
	// canonicalizing it must reproduce FP.
	QueryText string
	// DCText is the constraint set the circuit was compiled for, in
	// ParseDC syntax.
	DCText string
	// RelOutput is the relational gate id whose output spec carries the
	// query answer (core.Compiled.RelOutput).
	RelOutput int
	// Gates is the plan-cache charge the plan was compiled with (Charge),
	// so a warm-loaded entry costs exactly what the compiled one did.
	Gates int64
	// Depth is the swept word circuit's depth.
	Depth int
	// Obliv carries the packing specs (Inputs, Outputs). Its circuit C
	// is set only on an artifact FromCompiled built, and is not stored.
	Obliv *core.ObliviousCircuit
	// Prog is the plan's vm program.
	Prog *vm.Program

	// migrated marks an artifact decoded from a version-1 file, which
	// Store.GetPlan rewrites in the current format.
	migrated bool
}

// planHeader is the JSON header inside the binary envelope.
type planHeader struct {
	Version   int               `json:"version"`
	FP        string            `json:"fingerprint"`
	Query     string            `json:"query"`
	DC        string            `json:"dc,omitempty"`
	RelOutput int               `json:"rel_output"`
	Gates     int64             `json:"gates"`
	Depth     int               `json:"depth"`
	Inputs    []core.InputSpec  `json:"inputs"`
	Outputs   []core.OutputSpec `json:"outputs"`
}

// EncodePlan serializes a plan artifact:
//
//	magic "CQPS"
//	uvarint body length, body:
//	  uvarint header length, header JSON (version, fingerprint,
//	    compiled-on query/DC text, rel output, cache charge, depth,
//	    input and output specs)
//	  vm program (vm.Program.Append)
//	SHA-256 of everything preceding it (32 bytes)
//
// The encoding is deterministic: equal artifacts encode to equal bytes,
// which the format-compatibility golden test relies on.
func EncodePlan(a *PlanArtifact) ([]byte, error) {
	if a == nil || a.Obliv == nil || a.Prog == nil {
		return nil, fmt.Errorf("%w: store: nil plan artifact", guard.ErrInvalidInput)
	}
	head, err := json.Marshal(planHeader{
		Version:   PlanFormatVersion,
		FP:        a.FP.String(),
		Query:     a.QueryText,
		DC:        a.DCText,
		RelOutput: a.RelOutput,
		Gates:     a.Gates,
		Depth:     a.Depth,
		Inputs:    a.Obliv.Inputs,
		Outputs:   a.Obliv.Outputs,
	})
	if err != nil {
		return nil, err
	}
	// The body is appended after room for the longest envelope prefix;
	// once its length is known the prefix is written right up against
	// it, and the checksum is taken over the prefix and body in place.
	// A served program encodes in about nine bytes an instruction.
	const room = len(planMagic) + binary.MaxVarintLen64
	buf := make([]byte, room, room+binary.MaxVarintLen64+len(head)+12*a.Prog.Instructions()+sha256.Size)
	buf = binary.AppendUvarint(buf, uint64(len(head)))
	buf = append(buf, head...)
	buf = a.Prog.Append(buf)
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(buf)-room))
	start := room - len(planMagic) - n
	copy(buf[start:], planMagic)
	copy(buf[start+len(planMagic):], lenBuf[:n])
	out := buf[start:]
	sum := sha256.Sum256(out)
	return append(out, sum[:]...), nil
}

// DecodePlan deserializes a plan artifact, verifying the envelope
// checksum, validating the program (vm.DecodeProgram) and
// cross-checking the header's specs against it. A version-1 artifact is
// migrated as it decodes (v1.go). It never panics on adversarial bytes
// (FuzzPlanDecode enforces this); every failure is an error.
func DecodePlan(data []byte) (*PlanArtifact, error) {
	if len(data) < len(planMagic)+1+sha256.Size {
		return nil, fmt.Errorf("store: plan artifact truncated (%d bytes)", len(data))
	}
	if string(data[:len(planMagic)]) != planMagic {
		return nil, fmt.Errorf("store: bad plan magic %q", data[:len(planMagic)])
	}
	rest := data[len(planMagic):]
	bodyLen, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("store: unreadable plan body length")
	}
	if bodyLen > maxPlanBytes {
		return nil, fmt.Errorf("store: unreasonable plan body length %d", bodyLen)
	}
	rest = rest[n:]
	if uint64(len(rest)) != bodyLen+sha256.Size {
		return nil, fmt.Errorf("store: plan artifact is %d bytes past the envelope, want body %d + checksum %d",
			len(rest), bodyLen, sha256.Size)
	}
	body, sum := rest[:bodyLen], rest[bodyLen:]
	want := sha256.Sum256(data[:len(data)-sha256.Size])
	if !bytes.Equal(sum, want[:]) {
		return nil, fmt.Errorf("store: plan checksum mismatch")
	}

	headLen, n := binary.Uvarint(body)
	if n <= 0 || headLen > uint64(len(body)-n) {
		return nil, fmt.Errorf("store: unreadable plan header length")
	}
	var h planHeader
	if err := json.Unmarshal(body[n:n+int(headLen)], &h); err != nil {
		return nil, fmt.Errorf("store: plan header: %w", err)
	}
	fp, err := parseFingerprint(h.FP)
	if err != nil {
		return nil, err
	}
	a := &PlanArtifact{
		FP:        fp,
		QueryText: h.Query,
		DCText:    h.DC,
		RelOutput: h.RelOutput,
		Gates:     h.Gates,
		Depth:     h.Depth,
	}
	rest = body[n+int(headLen):]
	switch h.Version {
	case PlanFormatVersion:
		if a.Prog, err = vm.DecodeProgram(rest); err != nil {
			return nil, fmt.Errorf("store: plan program: %w", err)
		}
		a.Obliv = &core.ObliviousCircuit{Inputs: h.Inputs, Outputs: h.Outputs}
		if err := a.Obliv.CheckSpecs(a.Prog.NumInputs(), a.Prog.NumOutputs()); err != nil {
			return nil, fmt.Errorf("store: plan specs: %w", err)
		}
	case 1:
		if err := a.migrateV1(rest); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("store: unsupported plan format version %d (decoder speaks %d and 1)",
			h.Version, PlanFormatVersion)
	}
	if a.Gates < 1 || a.Depth < 0 {
		return nil, fmt.Errorf("store: plan charge %d, depth %d", a.Gates, a.Depth)
	}
	if h.RelOutput < 0 {
		return nil, fmt.Errorf("store: negative rel output %d", h.RelOutput)
	}
	for _, spec := range a.Obliv.Outputs {
		if spec.Gate == h.RelOutput {
			return a, nil
		}
	}
	return nil, fmt.Errorf("store: rel output %d has no output spec in the plan", h.RelOutput)
}

// ReadPlan reads one plan artifact from r and decodes it as DecodePlan
// does. It reads no further than the length its envelope declares, so a
// stream that runs past its envelope, or declares more than
// maxPlanBytes, fails without being read into memory.
func ReadPlan(r io.Reader) (*PlanArtifact, error) {
	br := bufio.NewReader(r)
	prefix, err := br.Peek(len(planMagic) + binary.MaxVarintLen64)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("store: reading plan: %w", err)
	}
	bodyLen, n := binary.Uvarint(prefix[min(len(prefix), len(planMagic)):])
	if !bytes.HasPrefix(prefix, []byte(planMagic)) || n <= 0 || bodyLen > maxPlanBytes {
		return nil, fmt.Errorf("store: stream does not open with a plan envelope")
	}
	size := int64(len(planMagic)+n) + int64(bodyLen) + sha256.Size
	data, err := io.ReadAll(io.LimitReader(br, size+1))
	if err != nil {
		return nil, fmt.Errorf("store: reading plan: %w", err)
	}
	if int64(len(data)) > size {
		return nil, fmt.Errorf("store: plan stream runs past its %d-byte envelope", size)
	}
	return DecodePlan(data)
}

// FromCompiled builds the persistable artifact for a compiled plan.
// canon must be the canonical form of the pair compiled
// (query.Canonicalize(compiled.Query, compiled.DC)); the header text is
// the compiled-on pair itself, which for an engine plan, compiled on
// canon.Query against canon.DCs, is the canonical text.
func FromCompiled(canon *query.Canonical, compiled *core.Compiled) *PlanArtifact {
	return &PlanArtifact{
		FP:        canon.FP,
		QueryText: compiled.Query.String(),
		DCText:    query.FormatDC(compiled.Query, compiled.DC),
		RelOutput: compiled.RelOutput,
		Gates:     Charge(compiled),
		Depth:     compiled.Obliv.C.Depth(),
		Obliv:     compiled.Obliv,
		Prog:      compiled.Prog,
	}
}

// Charge is a compiled plan's plan-cache charge: its relational and
// word gates plus its vm program's footprint. The engine charges an
// entry it compiles this at insert, and a stored plan carries it.
func Charge(compiled *core.Compiled) int64 {
	return max(1, int64(compiled.Rel.Size()+compiled.Obliv.C.Size())+progCharge(compiled.Prog))
}

// progCharge is a vm program's share of the charge: its value slots
// plus its instruction count, the two buffers that dominate its
// footprint, in the same gate-sized units.
func progCharge(p *vm.Program) int64 {
	return int64(p.Slots() + p.Instructions())
}

// Compiled reassembles an evaluable core.Compiled from the artifact:
// the header's query and constraints are parsed, canonicalized and
// verified against the fingerprint the artifact is stored under, then
// wired back up to the specs and program compiled on them. Rel is nil,
// and so is Obliv.C for a decoded artifact — see PlanArtifact.
// The fingerprint check is the store's semantic integrity check (the
// checksum only covers bytes): a decoder bug, a hand-edited artifact,
// or a fingerprint algorithm change all surface here instead of serving
// wrong plans.
func (a *PlanArtifact) Compiled() (*core.Compiled, *query.Canonical, error) {
	q, err := query.Parse(a.QueryText)
	if err != nil {
		return nil, nil, fmt.Errorf("store: artifact query %q: %w", a.QueryText, err)
	}
	var dcs query.DCSet
	if a.DCText != "" {
		dcs, err = query.ParseDC(q, a.DCText)
		if err != nil {
			return nil, nil, fmt.Errorf("store: artifact constraints %q: %w", a.DCText, err)
		}
	}
	canon, err := query.Canonicalize(q, dcs)
	if err != nil {
		return nil, nil, fmt.Errorf("store: artifact canonicalization: %w", err)
	}
	if canon.FP != a.FP {
		return nil, nil, fmt.Errorf("store: artifact fingerprint %s does not match its query pair (canonicalizes to %s)",
			a.FP.Short(), canon.FP.Short())
	}
	return &core.Compiled{Query: q, DC: dcs, RelOutput: a.RelOutput, Obliv: a.Obliv, Prog: a.Prog}, canon, nil
}

// parseFingerprint decodes the hex fingerprint of a plan header.
func parseFingerprint(s string) (query.Fingerprint, error) {
	var fp query.Fingerprint
	b, err := hex.DecodeString(s)
	if err != nil {
		return fp, fmt.Errorf("store: fingerprint %q: %w", s, err)
	}
	if len(b) != len(fp) {
		return fp, fmt.Errorf("store: fingerprint %q has %d bytes, want %d", s, len(b), len(fp))
	}
	copy(fp[:], b)
	return fp, nil
}
