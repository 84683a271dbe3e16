package semantics

import (
	"fmt"
	"slices"
	"strings"

	"xmorph/internal/shape"
	"xmorph/internal/xmltree"
)

// TypeError is the semantic type error of Section VI outcome (1): a guard
// label matches no type in the input shape (and TYPE-FILL is off).
type TypeError struct {
	Label string
	Pos   int
}

func (e *TypeError) Error() string {
	return fmt.Sprintf("guard: type mismatch: label %q matches no type in the data (offset %d)", e.Label, e.Pos)
}

// LabelResolution is one entry of the label-to-type report (Section VIII):
// how a guard label was matched against the input types.
type LabelResolution struct {
	// Label as written in the guard.
	Label string
	// Pos is the label's byte offset in the guard source.
	Pos int
	// Types are the input types the label resolved to, sorted. More than
	// one entry means the label was ambiguous and closeness chose among
	// them (or kept several).
	Types []string
	// Candidates are all input types matching the label before closeness
	// pruning.
	Candidates []string
	// Filled reports that the label matched nothing and TYPE-FILL
	// manufactured a fresh type.
	Filled bool
}

// MatchLabel reports whether a guard label matches a rooted type path.
// Matching is case-insensitive (guards are case-insensitive); a plain
// label matches the last path component, and a dotted label matches a
// dotted suffix of the path ("book.author" distinguishes from
// "journal.author"). The attribute marker "@" is ignored unless the label
// itself carries one.
func MatchLabel(label, typePath string) bool {
	l := strings.ToLower(label)
	p := strings.ToLower(typePath)
	if !strings.Contains(l, xmltree.TypeSep) {
		last := p
		if i := strings.LastIndex(p, xmltree.TypeSep); i >= 0 {
			last = p[i+1:]
		}
		if !strings.HasPrefix(l, "@") {
			last = strings.TrimPrefix(last, "@")
		}
		return l == last
	}
	// Dotted label: suffix match on component boundary, with the final
	// component subject to the same attribute-marker handling.
	lparts := strings.Split(l, xmltree.TypeSep)
	pparts := strings.Split(p, xmltree.TypeSep)
	if len(lparts) > len(pparts) {
		return false
	}
	off := len(pparts) - len(lparts)
	for i, lp := range lparts {
		pp := pparts[off+i]
		if i == len(lparts)-1 && !strings.HasPrefix(lp, "@") {
			pp = strings.TrimPrefix(pp, "@")
		}
		if lp != pp {
			return false
		}
	}
	return true
}

// matchTypes returns the sorted input types matching a label.
func matchTypes(label string, in *shape.Shape) []string {
	var out []string
	for id := 0; id < in.NumTypes(); id++ {
		if t := in.Name(id); MatchLabel(label, t) {
			out = append(out, t)
		}
	}
	slices.Sort(out)
	return out
}

// closestPairs implements the closest-type-pair selection of the extend
// construct (Section VI) and the type analysis of Section VIII: among all
// (parent, child) type pairs it keeps exactly those whose type distance is
// minimal. Both the surviving parents and the surviving children are
// returned.
func closestPairs(parents, children []string) (keptParents, keptChildren []string, pairs [][2]string) {
	if len(parents) == 0 || len(children) == 0 {
		return nil, nil, nil
	}
	min := -1
	for _, p := range parents {
		for _, c := range children {
			d := xmltree.TypeDistance(p, c)
			if min < 0 || d < min {
				min = d
			}
		}
	}
	pSet := map[string]bool{}
	cSet := map[string]bool{}
	for _, p := range parents {
		for _, c := range children {
			if xmltree.TypeDistance(p, c) == min {
				pairs = append(pairs, [2]string{p, c})
				pSet[p] = true
				cSet[c] = true
			}
		}
	}
	for _, p := range parents {
		if pSet[p] {
			keptParents = append(keptParents, p)
		}
	}
	for _, c := range children {
		if cSet[c] {
			keptChildren = append(keptChildren, c)
		}
	}
	return keptParents, keptChildren, pairs
}
