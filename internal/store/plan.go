// Package store is the persistence layer under the serving engine: a
// plan-artifact store that makes compiled circuits durable across
// process restarts, and a checksummed columnar relation format for
// databases kept on disk.
//
// The knowledge-compilation view of the paper's circuits treats a
// compiled plan as a durable, reusable object — the circuit *is* the
// asset — so the store gives it the lifecycle of one: a versioned,
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
)

// PlanFormatVersion is the on-disk plan-artifact format version. Any
// incompatible change to EncodePlan's layout must bump it — the golden
// format-compatibility test pins version 1 artifacts byte for byte and
// fails the build otherwise.
const PlanFormatVersion = 1

// planMagic opens every plan artifact file.
const planMagic = "CQPS"

// maxPlanBytes caps how large a plan artifact the decoder will read:
// adversarial headers must not drive allocation. 1 GiB comfortably
// clears the largest catalog plan (star3 at bound 6 is ~70 MB).
const maxPlanBytes = 1 << 30

// PlanArtifact is one persisted plan: the query pair it was compiled
// on (as re-parseable text, so integrity can be verified by
// canonicalizing) and the compiled oblivious circuit with its packing
// metadata. The relational-circuit layer is not persisted — its gates
// carry closures (predicates, map expressions) with no wire format — and
// nothing evaluates it: a loaded plan is served exactly as a freshly
// compiled one, by the vm tier and then the RAM tier.
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
	// Gates is the plan-cache charge (relational + oblivious gate count
	// at compile time), so a warm-loaded entry costs what the compiled
	// one did.
	Gates int64
	// WideLevel is the widest oblivious circuit level. The v1 header
	// carries it (wide_level), so it is still written and round-trips,
	// but nothing reads it on load: the engine's only circuit evaluator
	// is the vm program, which does not route on level width.
	WideLevel int
	// Obliv is the compiled oblivious circuit with packing metadata.
	Obliv *core.ObliviousCircuit
}

// planHeader is the JSON header inside the binary envelope.
type planHeader struct {
	Version   int    `json:"version"`
	FP        string `json:"fingerprint"`
	Query     string `json:"query"`
	DC        string `json:"dc,omitempty"`
	RelOutput int    `json:"rel_output"`
	Gates     int64  `json:"gates"`
	WideLevel int    `json:"wide_level"`
}

// EncodePlan serializes a plan artifact:
//
//	magic "CQPS"
//	uvarint body length, body:
//	  uvarint header length, header JSON (version, fingerprint,
//	    compiled-on query/DC text, rel output, gate charge, wide level)
//	  oblivious-circuit artifact (core.ObliviousCircuit wire format)
//	SHA-256 of everything preceding it (32 bytes)
//
// The encoding is deterministic: equal artifacts encode to equal bytes,
// which the format-compatibility golden test relies on.
func EncodePlan(a *PlanArtifact) ([]byte, error) {
	if a == nil || a.Obliv == nil {
		return nil, fmt.Errorf("%w: store: nil plan artifact", guard.ErrInvalidInput)
	}
	head, err := json.Marshal(planHeader{
		Version:   PlanFormatVersion,
		FP:        a.FP.String(),
		Query:     a.QueryText,
		DC:        a.DCText,
		RelOutput: a.RelOutput,
		Gates:     a.Gates,
		WideLevel: a.WideLevel,
	})
	if err != nil {
		return nil, err
	}
	// The body is appended after room for the longest envelope prefix;
	// once its length is known the prefix is written right up against
	// it, and the checksum is taken over the prefix and body in place.
	const room = len(planMagic) + binary.MaxVarintLen64
	buf := make([]byte, room, room+binary.MaxVarintLen64+len(head))
	buf = binary.AppendUvarint(buf, uint64(len(head)))
	buf = append(buf, head...)
	if buf, err = a.Obliv.Append(buf); err != nil {
		return nil, err
	}
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
// checksum and cross-checking the header against the decoded circuit.
// It never panics on adversarial bytes (FuzzPlanDecode enforces this);
// every failure is an error.
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
	if h.Version != PlanFormatVersion {
		return nil, fmt.Errorf("store: unsupported plan format version %d (decoder speaks %d)",
			h.Version, PlanFormatVersion)
	}
	fp, err := parseFingerprint(h.FP)
	if err != nil {
		return nil, err
	}
	obliv, err := core.ReadObliviousCircuit(bytes.NewBuffer(body[n+int(headLen):]))
	if err != nil {
		return nil, fmt.Errorf("store: plan circuit: %w", err)
	}
	if h.RelOutput < 0 {
		return nil, fmt.Errorf("store: negative rel output %d", h.RelOutput)
	}
	found := false
	for _, spec := range obliv.Outputs {
		if spec.Gate == h.RelOutput {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("store: rel output %d has no output spec in the circuit", h.RelOutput)
	}
	a := &PlanArtifact{
		FP:        fp,
		QueryText: h.Query,
		DCText:    h.DC,
		RelOutput: h.RelOutput,
		Gates:     h.Gates,
		WideLevel: h.WideLevel,
		Obliv:     obliv,
	}
	if a.Gates < 1 {
		a.Gates = int64(obliv.C.Size())
		if a.Gates < 1 {
			a.Gates = 1
		}
	}
	return a, nil
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
	gates := int64(compiled.Rel.Size() + compiled.Obliv.C.Size())
	if gates < 1 {
		gates = 1
	}
	wide := 0
	for _, w := range compiled.Obliv.C.LevelSizes() {
		if w > wide {
			wide = w
		}
	}
	return &PlanArtifact{
		FP:        canon.FP,
		QueryText: compiled.Query.String(),
		DCText:    query.FormatDC(compiled.Query, compiled.DC),
		RelOutput: compiled.RelOutput,
		Gates:     gates,
		WideLevel: wide,
		Obliv:     compiled.Obliv,
	}
}

// Compiled reassembles an evaluable core.Compiled from the artifact:
// the header's query and constraints are parsed, canonicalized and
// verified against the fingerprint the artifact is stored under, then
// wired back up to the oblivious circuit compiled on them. The
// relational layer (Rel) is nil — see PlanArtifact. The fingerprint
// check is the store's semantic integrity check (the checksum only
// covers bytes): a decoder bug, a hand-edited artifact, or a fingerprint
// algorithm change all surface here instead of serving wrong plans.
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
	return &core.Compiled{Query: q, DC: dcs, RelOutput: a.RelOutput, Obliv: a.Obliv}, canon, nil
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
