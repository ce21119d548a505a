package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"circuitql/internal/guard"
	"circuitql/internal/query"
	"circuitql/internal/relation"
)

// RelFormatVersion is the on-disk columnar relation format version.
// Any incompatible change to WriteColumnar's layout must bump it — the
// golden format-compatibility test pins version 1 artifacts byte for
// byte and fails the build otherwise.
const RelFormatVersion = 1

// relMagic opens every columnar relation file.
const relMagic = "CQR1"

// relExt is the columnar relation file suffix in a database directory.
const relExt = ".col"

// DefaultBlockRows is the number of rows WriteColumnar puts in one
// block; each block carries its own row count, which ReadColumnar
// checks against the header's block size and remaining rows.
const DefaultBlockRows = 1024

// maxRelRows caps the row and dictionary counts the decoder will
// believe, so adversarial headers cannot drive allocation.
const maxRelRows = 1 << 31

// colHeader is the JSON header inside the columnar envelope.
type colHeader struct {
	Version   int      `json:"version"`
	Name      string   `json:"name"`
	Schema    []string `json:"schema"`
	Rows      int64    `json:"rows"`
	BlockRows int      `json:"block_rows"`
}

// WriteColumnar serializes a relation in the columnar format:
//
//	magic "CQR1"
//	uvarint header length, header JSON (version, name, schema, row
//	  count, block size)
//	per column: a sorted dictionary of the column's distinct values —
//	  uvarint count, varint first value, uvarint deltas
//	row blocks, each: uvarint row count, then column-major: that many
//	  uvarint dictionary indexes per column
//	SHA-256 of everything preceding it (32 bytes)
//
// Rows are written in the relation's canonical sorted order and
// dictionaries are sorted, so equal relations encode to equal bytes —
// the format-compatibility golden test relies on that.
func WriteColumnar(w io.Writer, name string, r *relation.Relation) error {
	schema := r.Schema()
	head, err := json.Marshal(colHeader{
		Version:   RelFormatVersion,
		Name:      name,
		Schema:    schema,
		Rows:      int64(r.Len()),
		BlockRows: DefaultBlockRows,
	})
	if err != nil {
		return err
	}

	// Build per-column sorted dictionaries and re-encode every row as
	// dictionary indexes.
	sorted := r.Sorted(schema...)
	dicts := make([][]int64, len(schema))
	lookup := make([]map[int64]uint64, len(schema))
	for c := range schema {
		set := map[int64]struct{}{}
		sorted.Each(func(t relation.Tuple) { set[t[c]] = struct{}{} })
		vals := make([]int64, 0, len(set))
		for v := range set {
			vals = append(vals, v)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		dicts[c] = vals
		lookup[c] = make(map[int64]uint64, len(vals))
		for i, v := range vals {
			lookup[c][v] = uint64(i)
		}
	}

	h := sha256.New()
	out := bufio.NewWriter(io.MultiWriter(w, h))
	var lenBuf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) {
		n := binary.PutUvarint(lenBuf[:], v)
		out.Write(lenBuf[:n])
	}
	out.WriteString(relMagic)
	writeUvarint(uint64(len(head)))
	out.Write(head)
	for _, dict := range dicts {
		writeUvarint(uint64(len(dict)))
		prev := int64(0)
		for i, v := range dict {
			if i == 0 {
				n := binary.PutVarint(lenBuf[:], v)
				out.Write(lenBuf[:n])
			} else {
				writeUvarint(uint64(v - prev))
			}
			prev = v
		}
	}

	rows := sorted.Tuples()
	for start := 0; start < len(rows); start += DefaultBlockRows {
		end := start + DefaultBlockRows
		if end > len(rows) {
			end = len(rows)
		}
		writeUvarint(uint64(end - start))
		for c := range schema {
			for _, t := range rows[start:end] {
				writeUvarint(lookup[c][t[c]])
			}
		}
	}

	if err := out.Flush(); err != nil {
		return err
	}
	sum := h.Sum(nil)
	if _, err := w.Write(sum); err != nil {
		return err
	}
	return nil
}

// ReadColumnar decodes one columnar relation file, returning the name
// its header records and the relation. It checks, in file order: the
// magic; the header's version, row count, block size and schema
// (non-empty, distinct attributes); that every dictionary is strictly
// sorted; every block's row count and dictionary indexes; and last the
// SHA-256 of everything before it, with no bytes after that.
func ReadColumnar(data []byte) (string, *relation.Relation, error) {
	rd := bytes.NewReader(data)
	var magic [len(relMagic)]byte
	if _, err := io.ReadFull(rd, magic[:]); err != nil {
		return "", nil, fmt.Errorf("store: columnar magic: %w", err)
	}
	if string(magic[:]) != relMagic {
		return "", nil, fmt.Errorf("store: bad columnar magic %q", magic[:])
	}
	headLen, err := binary.ReadUvarint(rd)
	if err != nil || headLen > 1<<20 {
		return "", nil, fmt.Errorf("store: unreadable columnar header length")
	}
	headBuf := make([]byte, headLen)
	if _, err := io.ReadFull(rd, headBuf); err != nil {
		return "", nil, fmt.Errorf("store: columnar header: %w", err)
	}
	var h colHeader
	if err := json.Unmarshal(headBuf, &h); err != nil {
		return "", nil, fmt.Errorf("store: columnar header: %w", err)
	}
	if h.Version != RelFormatVersion {
		return "", nil, fmt.Errorf("store: unsupported columnar format version %d (decoder speaks %d)",
			h.Version, RelFormatVersion)
	}
	if h.Rows < 0 || h.Rows > maxRelRows {
		return "", nil, fmt.Errorf("store: unreasonable row count %d", h.Rows)
	}
	if h.BlockRows < 1 || h.BlockRows > 1<<20 {
		return "", nil, fmt.Errorf("store: unreasonable block size %d", h.BlockRows)
	}
	if len(h.Schema) == 0 || len(h.Schema) > 1<<10 {
		return "", nil, fmt.Errorf("store: unreasonable schema width %d", len(h.Schema))
	}
	seen := map[string]struct{}{}
	for _, a := range h.Schema {
		if a == "" {
			return "", nil, fmt.Errorf("store: empty attribute name in columnar header")
		}
		if _, dup := seen[a]; dup {
			return "", nil, fmt.Errorf("store: duplicate attribute %q in columnar header", a)
		}
		seen[a] = struct{}{}
	}

	// Every dictionary entry and every block index takes at least one
	// byte, so a count larger than the bytes left is corrupt; checking
	// that before allocating keeps a hostile header from driving memory.
	dicts := make([][]int64, len(h.Schema))
	for c := range dicts {
		count, err := binary.ReadUvarint(rd)
		if err != nil || count > maxRelRows || count > uint64(rd.Len()) {
			return "", nil, fmt.Errorf("store: unreadable dictionary for column %q", h.Schema[c])
		}
		dict := make([]int64, count)
		prev := int64(0)
		for i := range dict {
			if i == 0 {
				v, err := binary.ReadVarint(rd)
				if err != nil {
					return "", nil, fmt.Errorf("store: dictionary for column %q: %w", h.Schema[c], err)
				}
				dict[i] = v
			} else {
				d, err := binary.ReadUvarint(rd)
				if err != nil {
					return "", nil, fmt.Errorf("store: dictionary for column %q: %w", h.Schema[c], err)
				}
				dict[i] = prev + int64(d)
				if dict[i] <= prev {
					return "", nil, fmt.Errorf("store: dictionary for column %q not strictly sorted", h.Schema[c])
				}
			}
			prev = dict[i]
		}
		dicts[c] = dict
	}

	r := relation.New(h.Schema...)
	width := len(h.Schema)
	var block []int64
	for read := int64(0); read < h.Rows; {
		n64, err := binary.ReadUvarint(rd)
		if err != nil {
			return "", nil, fmt.Errorf("store: columnar block header: %w", err)
		}
		if n64 < 1 || n64 > uint64(h.BlockRows) || int64(n64) > h.Rows-read {
			return "", nil, fmt.Errorf("store: columnar block claims %d rows (block size %d, %d remaining)",
				n64, h.BlockRows, h.Rows-read)
		}
		n := int(n64)
		if n*width > rd.Len() {
			return "", nil, fmt.Errorf("store: columnar block of %d rows overruns the file", n)
		}
		if cap(block) < n*width {
			block = make([]int64, n*width)
		}
		for c, dict := range dicts {
			for i := 0; i < n; i++ {
				idx, err := binary.ReadUvarint(rd)
				if err != nil {
					return "", nil, fmt.Errorf("store: columnar block column %q: %w", h.Schema[c], err)
				}
				if idx >= uint64(len(dict)) {
					return "", nil, fmt.Errorf("store: columnar index %d out of range for column %q (dictionary %d)",
						idx, h.Schema[c], len(dict))
				}
				block[i*width+c] = dict[idx]
			}
		}
		for i := 0; i < n; i++ {
			r.Insert(block[i*width : (i+1)*width]...)
		}
		read += int64(n)
	}

	want := sha256.Sum256(data[:len(data)-rd.Len()])
	var sum [sha256.Size]byte
	if _, err := io.ReadFull(rd, sum[:]); err != nil {
		return "", nil, fmt.Errorf("store: columnar checksum: %w", err)
	}
	if sum != want {
		return "", nil, fmt.Errorf("store: columnar checksum mismatch")
	}
	if rd.Len() != 0 {
		return "", nil, fmt.Errorf("store: trailing bytes after columnar checksum")
	}
	return h.Name, r, nil
}

// relNamePat restricts relation names to filesystem-safe identifiers:
// a columnar database names its files after its relations.
var relNamePat = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// ExportDB writes every relation of db as a columnar file
// (<name>.col) under dir, each written atomically via temp file +
// rename. Existing columnar files for other relation names are left
// alone, so exports can be incremental.
func ExportDB(dir string, db query.Database) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	names := make([]string, 0, len(db))
	for name := range db {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !relNamePat.MatchString(name) {
			return fmt.Errorf("%w: store: relation name %q is not filesystem-safe", guard.ErrInvalidInput, name)
		}
		tmp, err := os.CreateTemp(dir, name+"-*"+tmpExt)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		tmpName := tmp.Name()
		werr := WriteColumnar(tmp, name, db[name])
		if werr == nil {
			werr = tmp.Sync()
		}
		if cerr := tmp.Close(); werr == nil {
			werr = cerr
		}
		if werr == nil {
			werr = os.Rename(tmpName, filepath.Join(dir, name+relExt))
		}
		if werr != nil {
			os.Remove(tmpName)
			return fmt.Errorf("store: exporting %q: %w", name, werr)
		}
	}
	return nil
}

// LoadDB reads a columnar database directory written by ExportDB into
// memory: each <name>.col file, decoded and checked by ReadColumnar,
// becomes relation name. A file whose header records another relation
// name is rejected, so a misfiled copy is never served under its file
// name. Leftover temp files from interrupted exports are removed.
func LoadDB(dir string) (query.Database, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	db := query.Database{}
	for _, ent := range entries {
		file := ent.Name()
		switch {
		case strings.HasSuffix(file, tmpExt):
			os.Remove(filepath.Join(dir, file))
		case strings.HasSuffix(file, relExt):
			want := strings.TrimSuffix(file, relExt)
			data, err := os.ReadFile(filepath.Join(dir, file))
			if err != nil {
				return nil, fmt.Errorf("store: %w", err)
			}
			name, r, err := ReadColumnar(data)
			if err != nil {
				return nil, fmt.Errorf("store: loading %q: %w", want, err)
			}
			if name != want {
				return nil, fmt.Errorf("store: columnar file under %q claims relation %q", want, name)
			}
			db[want] = r
		}
	}
	return db, nil
}
