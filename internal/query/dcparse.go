package query

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// ParseDC parses a textual degree-constraint list against a query. The
// grammar, entries separated by ';' or ',':
//
//	R <= 100        cardinality constraint |R_F| ≤ 100 for atom name R
//	S|B <= 4        degree constraint deg(F_S | {B}) ≤ 4
//	T|AB <= 1       functional dependency {A,B} → rest of T's variables
//
// The attribute set after '|' is written as concatenated variable names
// (single-letter variables) or comma-separated names in parentheses:
// S|(B1,B2) <= 4. A constraint applies to every atom with the given
// name, once per variable set: in R(A,B), R(B,A) both atoms are the
// one set {A,B}, so "R <= 8" is one constraint, as FormatDC wrote it.
func ParseDC(q *Query, src string) (DCSet, error) {
	var out DCSet
	entries := strings.FieldsFunc(src, func(r rune) bool { return r == ';' })
	for _, entry := range entries {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.SplitN(entry, "<=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("query: constraint %q lacks '<='", entry)
		}
		lhs := strings.TrimSpace(parts[0])
		n, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("query: constraint %q: bad bound: %w", entry, err)
		}
		name := lhs
		var condSrc string
		if bar := strings.IndexByte(lhs, '|'); bar >= 0 {
			name = strings.TrimSpace(lhs[:bar])
			condSrc = strings.TrimSpace(lhs[bar+1:])
		}
		var ys []VarSet // the variable sets the entry constrained
		for _, a := range q.Atoms {
			y := a.VarSet()
			if a.Name != name || slices.Contains(ys, y) {
				continue
			}
			ys = append(ys, y)
			x := VarSet(0)
			if condSrc != "" {
				x, err = parseVarSet(q, condSrc)
				if err != nil {
					return nil, fmt.Errorf("query: constraint %q: %w", entry, err)
				}
				if !x.SubsetOf(y) {
					return nil, fmt.Errorf("query: constraint %q: %s not among %s's variables",
						entry, x.Label(q.VarNames), name)
				}
			}
			out = append(out, DegreeConstraint{X: x, Y: y, N: n})
		}
		if len(ys) == 0 {
			return nil, fmt.Errorf("query: constraint %q references unknown relation %q", entry, name)
		}
	}
	if err := out.Validate(q); err != nil {
		return nil, err
	}
	return out, nil
}

// parseVarSet reads either a parenthesized comma-separated variable list
// or a run of single-letter variable names.
func parseVarSet(q *Query, src string) (VarSet, error) {
	var names []string
	if strings.HasPrefix(src, "(") && strings.HasSuffix(src, ")") {
		for _, n := range strings.Split(src[1:len(src)-1], ",") {
			names = append(names, strings.TrimSpace(n))
		}
	} else {
		for _, r := range src {
			names = append(names, string(r))
		}
	}
	s := VarSet(0)
	for _, n := range names {
		v := q.VarIndex(n)
		if v < 0 {
			return 0, fmt.Errorf("unknown variable %q", n)
		}
		s = s.Add(v)
	}
	return s, nil
}

// FormatDC renders a constraint set in the ParseDC grammar, one entry
// per constraint separated by "; ". Attribute sets are always written
// parenthesized so multi-character variable names survive the round
// trip. Constraints whose Y matches no atom render against the empty
// name and will not reparse — DCSet.Validate rejects them anyway.
func FormatDC(q *Query, dcs DCSet) string {
	var b strings.Builder
	for i, dc := range dcs {
		if i > 0 {
			b.WriteString("; ")
		}
		name := ""
		if e := q.EdgeFor(dc.Y); e >= 0 {
			name = q.Atoms[e].Name
		}
		b.WriteString(name)
		if !dc.IsCardinality() {
			b.WriteString("|(")
			for j, n := range dc.X.Names(q.VarNames) {
				if j > 0 {
					b.WriteString(",")
				}
				b.WriteString(n)
			}
			b.WriteString(")")
		}
		b.WriteString(" <= ")
		b.WriteString(strconv.FormatFloat(dc.N, 'g', -1, 64))
	}
	return b.String()
}
