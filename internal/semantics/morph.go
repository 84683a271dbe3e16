package semantics

import (
	"fmt"

	"xmorph/internal/guard"
)

// morph evaluates ξ[MORPH pattern]: the output shape is built from scratch
// out of exactly the types the pattern mentions (Section VI).
func (ev *evaluator) morph(st *guard.Stage) (*Target, error) {
	t := &Target{}
	for _, pat := range st.Patterns {
		nodes, err := ev.expandMorph(pat)
		if err != nil {
			return nil, err
		}
		t.Roots = append(t.Roots, nodes...)
	}
	if len(t.Roots) == 0 {
		return nil, fmt.Errorf("semantics: MORPH pattern selected no types")
	}
	return t, nil
}

// expandMorph evaluates one pattern term to its target types. An ambiguous
// label yields one target type per matched input type; closeness pruning
// happens where children attach (the extend construct).
func (ev *evaluator) expandMorph(term *guard.Term) ([]*TNode, error) {
	var nodes []*TNode
	switch term.Kind {
	case guard.TermLabel:
		types, filled, err := ev.resolveLabel(term)
		if err != nil {
			return nil, err
		}
		if filled {
			nodes = []*TNode{{Name: term.Label, Fill: true}}
			break
		}
		for _, ty := range types {
			nodes = append(nodes, NewLeaf(ty))
		}
	case guard.TermNew:
		nodes = []*TNode{{Name: term.Label}}
	case guard.TermClone:
		ops, err := ev.expandMorph(term.Operand)
		if err != nil {
			return nil, err
		}
		for _, n := range ops {
			n.Walk(func(m *TNode) { m.Clone = true })
		}
		nodes = ops
	case guard.TermRestrict:
		ops, err := ev.expandMorph(term.Operand)
		if err != nil {
			return nil, err
		}
		// The operand's children become requirements: they constrain which
		// vertices render but are hidden from the output (Section VI).
		for _, n := range ops {
			n.Require = append(n.Require, n.Kids...)
			n.Kids = nil
		}
		nodes = ops
	case guard.TermChildren, guard.TermDescendants:
		return nil, fmt.Errorf("semantics: %s is only meaningful inside a pattern term's children", term.Kind)
	case guard.TermDrop:
		return nil, fmt.Errorf("semantics: DROP is only meaningful in a MUTATE shape")
	default:
		return nil, fmt.Errorf("semantics: unexpected term kind %v in MORPH", term.Kind)
	}

	return ev.attachKids(term, nodes)
}

// attachKids implements the extend construct ξ[p0 [p1 ... pn]]: each child
// pattern's types connect below the closest parent types; parents that
// lose every closest-pair comparison are pruned (the type analysis of
// Section VIII).
func (ev *evaluator) attachKids(term *guard.Term, parents []*TNode) ([]*TNode, error) {
	for _, kid := range term.Kids {
		switch kid.Kind {
		case guard.TermChildren:
			// label [*]: include the parent type's children from the
			// input shape (one level).
			for _, p := range parents {
				if id, ok := ev.in.ID(p.Source); ok {
					for _, k := range ev.in.Kids(id) {
						if ct := ev.in.Name(k); !p.hasKidSource(ct) {
							p.Attach(NewLeaf(ct))
						}
					}
				}
			}
		case guard.TermDescendants:
			// label [**]: include the parent type's entire input subtree.
			for _, p := range parents {
				if id, ok := ev.in.ID(p.Source); ok {
					ev.copySubtree(p, id)
				}
			}
		default:
			cs, err := ev.expandMorph(kid)
			if err != nil {
				return nil, err
			}
			if parents, err = ev.attachClosest(kid, parents, cs); err != nil {
				return nil, err
			}
			if len(parents) == 0 {
				return nil, fmt.Errorf("semantics: no parent type is closest to pattern %q", kid.String())
			}
		}
	}
	return parents, nil
}

// attachClosest attaches candidate child types to candidate parents,
// keeping only closest (parent, child) type pairs, and returns the
// surviving parents: the manufactured ones and those in a closest pair
// (a pruned parent's earlier attachments go with it). A child goes below
// the first parent it pairs with and a copy of it below every other, so
// the target stays a tree. Manufactured children (NEW / TYPE-FILL) pair
// with every parent, having no source type to measure distance with, and
// so do children of parents that are all manufactured.
func (ev *evaluator) attachClosest(kidTerm *guard.Term, parents []*TNode, kids []*TNode) ([]*TNode, error) {
	pTypes, cTypes := make([]string, 0, len(parents)), make([]string, 0, len(kids))
	for _, p := range parents {
		if p.Source != "" {
			pTypes = append(pTypes, p.Source)
		}
	}
	for _, c := range kids {
		if c.Source != "" {
			cTypes = append(cTypes, c.Source)
		}
	}
	everyPair := len(pTypes) == 0 || len(cTypes) < len(kids)
	_, keptC, pairs := closestPairs(pTypes, cTypes)
	if lbl := labelOf(kidTerm); lbl != nil && !everyPair {
		ev.recordKept(lbl, keptC)
	}
	pairSet := map[[2]string]bool{}
	for _, pr := range pairs {
		pairSet[pr] = true
	}

	var survivors []*TNode
	for _, p := range parents {
		kept := p.Source == ""
		for _, c := range kids {
			if !everyPair && !pairSet[[2]string{p.Source, c.Source}] {
				continue
			}
			if c.parent != nil { // placed below an earlier parent
				var err error
				if c, err = ev.copyOf(c); err != nil {
					return nil, err
				}
			}
			p.Attach(c)
			kept = true
		}
		if kept {
			survivors = append(survivors, p)
		}
	}
	return survivors, nil
}

// hasKidSource reports whether n already has a child with the given source
// type (deduplication between explicit kids and * expansions).
func (n *TNode) hasKidSource(src string) bool {
	for _, k := range n.Kids {
		if k.Source == src {
			return true
		}
	}
	return false
}

// copySubtree mirrors the input shape's subtree below type id onto p,
// skipping types already present as explicit kids.
func (ev *evaluator) copySubtree(p *TNode, id int) {
	for _, k := range ev.in.Kids(id) {
		if ct := ev.in.Name(k); !p.hasKidSource(ct) {
			c := NewLeaf(ct)
			p.Attach(c)
			ev.copySubtree(c, k)
		}
	}
}

// identity mirrors the entire input shape as a target (the starting
// point of MUTATE and TRANSLATE): each root type with its [**] copy.
func (ev *evaluator) identity() *Target {
	t := &Target{}
	for _, r := range ev.in.Roots() {
		n := NewLeaf(r)
		id, _ := ev.in.ID(r)
		ev.copySubtree(n, id)
		t.Roots = append(t.Roots, n)
	}
	return t
}

// labelOf returns the label term inside a (possibly wrapped) term, or nil.
func labelOf(t *guard.Term) *guard.Term {
	for t != nil {
		switch t.Kind {
		case guard.TermLabel:
			return t
		case guard.TermClone, guard.TermRestrict, guard.TermDrop:
			t = t.Operand
		default:
			return nil
		}
	}
	return nil
}
