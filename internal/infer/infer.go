// Package infer generates a query guard from an XQuery query — the
// paper's Section X names guard inference as an open problem ("whether a
// guard can be automatically generated from a query"). The inference here
// is syntactic: the label chains the query's path expressions traverse
// become the nested MORPH pattern the query needs. The inferred guard is
// then type-checked against the data like any hand-written guard, so the
// usual information-loss feedback applies.
package infer

import (
	"fmt"
	"sort"
	"strings"

	"xmorph/internal/xq"
)

// node is one label in the inferred shape tree.
type node struct {
	label string
	kids  []*node
}

func (n *node) kid(label string) *node {
	for _, k := range n.kids {
		if k.label == label {
			return k
		}
	}
	k := &node{label: label}
	n.kids = append(n.kids, k)
	return k
}

// FromQuery infers the MORPH guard a query needs. It returns an error when
// the query traverses no paths (nothing to infer).
func FromQuery(query string) (string, error) {
	chains, err := xq.ExtractPaths(query)
	if err != nil {
		return "", err
	}
	// Merge chains into a forest, whether the query reads or navigates.
	root := &node{}
	for _, chain := range chains {
		cur := root
		for _, label := range chain {
			if label == xq.Subtree {
				break
			}
			cur = cur.kid(label)
		}
	}
	if len(root.kids) == 0 {
		return "", fmt.Errorf("infer: the query traverses no label paths")
	}
	sortKids(root)
	var b strings.Builder
	b.WriteString("MORPH")
	for _, r := range root.kids {
		b.WriteString(" ")
		writePattern(&b, r)
	}
	return b.String(), nil
}

// sortKids makes inference deterministic: children sort by label at every
// level (the query's traversal order is preserved only per chain, and
// sibling order does not matter to a guard).
func sortKids(n *node) {
	sort.Slice(n.kids, func(i, j int) bool { return n.kids[i].label < n.kids[j].label })
	for _, k := range n.kids {
		sortKids(k)
	}
}

func writePattern(b *strings.Builder, n *node) {
	b.WriteString(n.label)
	if len(n.kids) == 0 {
		return
	}
	b.WriteString(" [ ")
	for i, k := range n.kids {
		if i > 0 {
			b.WriteString(" ")
		}
		writePattern(b, k)
	}
	b.WriteString(" ]")
}
