package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"circuitql/internal/query"
)

// ErrNotFound reports a fingerprint with no stored plan.
var ErrNotFound = errors.New("store: plan not found")

// planExt is the plan artifact file suffix; files are named
// <fingerprint-hex><planExt>. The set of such files is the store's
// index: there is no other, so nothing can disagree with it.
const planExt = ".plan"

// tmpExt marks in-progress writes; Open sweeps leftovers from crashes.
const tmpExt = ".tmp"

// Stats is a point-in-time snapshot of a store's counters.
type Stats struct {
	Plans        int   // plans currently indexed
	Hits         int64 // GetPlan calls that found and decoded a plan
	Misses       int64 // GetPlan calls with no stored plan
	Writes       int64 // PutPlan calls that persisted an artifact
	Corrupt      int64 // artifacts dropped for failing checksum/decode
	BytesRead    int64 // artifact bytes read by GetPlan
	BytesWritten int64 // artifact bytes written by PutPlan
}

// Store is a plan-artifact store rooted at one directory. All methods
// are safe for concurrent use. Artifact writes are atomic (temp file +
// rename into place), so readers — including other processes — never
// observe a partial plan, and a crash mid-write leaves at worst a
// *.tmp leftover that the next Open sweeps.
type Store struct {
	dir string

	mu    sync.Mutex
	plans map[query.Fingerprint]struct{}

	hits, misses, writes atomic.Int64
	corrupt              atomic.Int64
	bytesR, bytesW       atomic.Int64

	// slowWrite, when positive, sleeps between writing an artifact's
	// temp file and renaming it into place — a test hook that widens
	// the crash window the atomic rename protects (the crash-recovery
	// CI job SIGKILLs a child inside it).
	slowWrite time.Duration
}

// Open opens (creating if needed) a store rooted at dir and indexes
// the <fingerprint>.plan files present; leftover temp files are
// removed and anything else, such as the MANIFEST.json an older
// release kept, is ignored. Artifacts are not checksummed here —
// Verify does that, and GetPlan verifies on read — so opening a large
// store stays cheap.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, plans: map[query.Fingerprint]struct{}{}}
	if env := os.Getenv("CIRCUITQL_STORE_SLOW_WRITE"); env != "" {
		if d, err := time.ParseDuration(env); err == nil && d > 0 {
			s.slowWrite = d
		}
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		switch {
		case strings.HasSuffix(name, tmpExt):
			// A crash mid-write left this behind; it was never visible.
			os.Remove(filepath.Join(dir, name))
		case strings.HasSuffix(name, planExt):
			if fp, err := parseFingerprint(strings.TrimSuffix(name, planExt)); err == nil {
				s.plans[fp] = struct{}{}
			}
		}
	}
	return s, nil
}

// Len returns how many plans the store indexes.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.plans)
}

// Plans returns the stored fingerprints in deterministic (sorted hex)
// order — the warm-load iteration order.
func (s *Store) Plans() []query.Fingerprint {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]query.Fingerprint, 0, len(s.plans))
	for fp := range s.plans {
		out = append(out, fp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// HasPlan reports whether a plan is stored for fp (without reading it).
func (s *Store) HasPlan(fp query.Fingerprint) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.plans[fp]
	return ok
}

// planPath returns the artifact path for a fingerprint.
func (s *Store) planPath(fp query.Fingerprint) string {
	return filepath.Join(s.dir, fp.String()+planExt)
}

// PutPlan persists a plan artifact under its fingerprint, atomically
// (see write), then indexes it. A plan already stored under the same
// fingerprint is left untouched — artifacts are immutable once visible.
func (s *Store) PutPlan(a *PlanArtifact) error {
	if s.HasPlan(a.FP) {
		return nil
	}
	data, err := EncodePlan(a)
	if err != nil {
		return err
	}
	if err := s.write(a.FP, data); err != nil {
		return err
	}
	s.writes.Add(1)
	s.bytesW.Add(int64(len(data)))

	s.mu.Lock()
	s.plans[a.FP] = struct{}{}
	s.mu.Unlock()
	return nil
}

// write puts data at fp's artifact path: written to a temp file in the
// store directory, synced, and renamed into place.
func (s *Store) write(fp query.Fingerprint, data []byte) error {
	final := s.planPath(fp)
	tmp, err := os.CreateTemp(s.dir, fp.Short()+"-*"+tmpExt)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if s.slowWrite > 0 {
		time.Sleep(s.slowWrite)
	}
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// GetPlan reads, checksums, and decodes the plan stored for fp,
// rewriting a version-1 file as the current version once it has decoded
// it. ErrNotFound when nothing is stored. A plan that fails checksum or
// decode is quarantined: the artifact is removed from the index (and
// the file renamed aside with a .corrupt suffix) so the caller can fall
// back to compiling, and the corrupt counter records it.
func (s *Store) GetPlan(fp query.Fingerprint) (*PlanArtifact, error) {
	s.mu.Lock()
	_, ok := s.plans[fp]
	s.mu.Unlock()
	if !ok {
		s.misses.Add(1)
		return nil, ErrNotFound
	}
	data, err := os.ReadFile(s.planPath(fp))
	if err != nil {
		if os.IsNotExist(err) {
			s.drop(fp, false)
			s.misses.Add(1)
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	a, err := DecodePlan(data)
	if err == nil && a.FP != fp {
		err = fmt.Errorf("store: artifact under %s claims fingerprint %s", fp.Short(), a.FP.Short())
	}
	if err != nil {
		s.corrupt.Add(1)
		s.drop(fp, true)
		return nil, err
	}
	s.hits.Add(1)
	s.bytesR.Add(int64(len(data)))
	if a.migrated {
		// A version-1 file: rewritten in the current format, so the next
		// load reads the program instead of compiling it. A failed rewrite
		// leaves the old file, which still loads, so its error is dropped.
		if data, err := EncodePlan(a); err == nil {
			_ = s.write(fp, data)
		}
	}
	return a, nil
}

// drop removes fp from the index and optionally quarantines its file.
func (s *Store) drop(fp query.Fingerprint, quarantine bool) {
	if quarantine {
		os.Rename(s.planPath(fp), s.planPath(fp)+".corrupt")
	}
	s.mu.Lock()
	delete(s.plans, fp)
	s.mu.Unlock()
}

// VerifyResult reports one artifact's integrity check.
type VerifyResult struct {
	FP  query.Fingerprint
	Err error // nil: checksum, decode, and fingerprint re-derivation all passed
}

// Verify reads and fully checks every indexed artifact: envelope
// checksum, decode, and semantic fingerprint re-derivation (the stored
// canonical text must re-canonicalize to the fingerprint the artifact
// is filed under). The crash-recovery gate runs this after a SIGKILL to
// assert zero corrupt artifacts survived into the visible store.
func (s *Store) Verify() []VerifyResult {
	fps := s.Plans()
	out := make([]VerifyResult, 0, len(fps))
	for _, fp := range fps {
		res := VerifyResult{FP: fp}
		data, err := os.ReadFile(s.planPath(fp))
		if err != nil {
			res.Err = err
		} else if a, err := DecodePlan(data); err != nil {
			res.Err = err
		} else if a.FP != fp {
			res.Err = fmt.Errorf("store: artifact under %s claims fingerprint %s", fp.Short(), a.FP.Short())
		} else if _, _, err := a.Compiled(); err != nil {
			res.Err = err
		}
		out = append(out, res)
	}
	return out
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Plans:        s.Len(),
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Writes:       s.writes.Load(),
		Corrupt:      s.corrupt.Load(),
		BytesRead:    s.bytesR.Load(),
		BytesWritten: s.bytesW.Load(),
	}
}
