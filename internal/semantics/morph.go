package semantics

import (
	"fmt"

	"xmorph/internal/guard"
	"xmorph/internal/shape"
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
				if p.Source == "" {
					continue
				}
				for _, ct := range ev.in.Children(p.Source) {
					if p.hasKidSource(ct) {
						continue
					}
					p.Attach(NewLeaf(ct))
				}
			}
		case guard.TermDescendants:
			// label [**]: include the parent type's entire input subtree.
			for _, p := range parents {
				if p.Source == "" {
					continue
				}
				ev.copySubtree(p, p.Source)
			}
		default:
			cs, err := ev.expandMorph(kid)
			if err != nil {
				return nil, err
			}
			parents = ev.attachClosest(kid, parents, cs)
			if len(parents) == 0 {
				return nil, fmt.Errorf("semantics: no parent type is closest to pattern %q", kid.String())
			}
		}
	}
	return parents, nil
}

// attachClosest attaches candidate child types to candidate parents,
// keeping only closest (parent, child) type pairs, and returns the
// surviving parents.
func (ev *evaluator) attachClosest(kidTerm *guard.Term, parents []*TNode, kids []*TNode) []*TNode {
	// Manufactured children (NEW / TYPE-FILL) attach to every parent; they
	// have no source type to measure distance with.
	if len(kids) > 0 && kids[0].Source == "" {
		for i, p := range parents {
			for _, c := range kids {
				if i == 0 {
					p.Attach(c)
				} else {
					p.Attach(c.Copy())
				}
			}
		}
		return parents
	}
	// Manufactured parents adopt every child candidate.
	allManufactured := true
	for _, p := range parents {
		if p.Source != "" {
			allManufactured = false
			break
		}
	}
	if allManufactured {
		for i, p := range parents {
			for _, c := range kids {
				if i == 0 {
					p.Attach(c)
				} else {
					p.Attach(c.Copy())
				}
			}
		}
		return parents
	}

	pTypes := make([]string, 0, len(parents))
	for _, p := range parents {
		if p.Source != "" {
			pTypes = append(pTypes, p.Source)
		}
	}
	cTypes := make([]string, 0, len(kids))
	for _, c := range kids {
		cTypes = append(cTypes, c.Source)
	}
	keptP, keptC, pairs := closestPairs(dedupe(pTypes), dedupe(cTypes))
	if lbl := labelOf(kidTerm); lbl != nil {
		ev.recordKept(lbl, keptC)
	}
	keptPSet := map[string]bool{}
	for _, p := range keptP {
		keptPSet[p] = true
	}
	pairSet := map[[2]string]bool{}
	for _, pr := range pairs {
		pairSet[pr] = true
	}

	var survivors []*TNode
	for _, p := range parents {
		if p.Source != "" && !keptPSet[p.Source] {
			continue // pruned parent; its earlier attachments go with it
		}
		survivors = append(survivors, p)
		first := true
		for _, c := range kids {
			if !pairSet[[2]string{p.Source, c.Source}] {
				continue
			}
			if first {
				p.Attach(c)
				first = false
			} else {
				p.Attach(c.Copy())
			}
		}
	}
	return survivors
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

// copySubtree mirrors the input shape's subtree below srcType onto p,
// skipping types already present as explicit kids.
func (ev *evaluator) copySubtree(p *TNode, srcType string) {
	for _, ct := range ev.in.Children(srcType) {
		if p.hasKidSource(ct) {
			continue
		}
		c := NewLeaf(ct)
		p.Attach(c)
		ev.copySubtree(c, ct)
	}
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

func dedupe(ss []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// fullTarget mirrors an entire input shape as a target (the starting point
// of MUTATE and TRANSLATE): every input type becomes a sourced target type
// in its original arrangement.
func fullTarget(in *shape.Shape) (*Target, map[string]*TNode) {
	t := &Target{}
	idx := make(map[string]*TNode, in.NumTypes())
	var build func(id int) *TNode
	build = func(id int) *TNode {
		n := NewLeaf(in.Name(id))
		idx[n.Source] = n
		for _, k := range in.Kids(id) {
			n.Attach(build(k))
		}
		return n
	}
	for _, r := range in.Roots() {
		id, _ := in.ID(r)
		t.Roots = append(t.Roots, build(id))
	}
	return t, idx
}
