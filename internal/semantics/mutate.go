package semantics

import (
	"fmt"

	"xmorph/internal/guard"
	"xmorph/internal/xmltree"
)

// mutate evaluates ξ[MUTATE pattern]: the entire input shape is the
// starting point, and the pattern re-arranges the parts it mentions,
// leaving the rest unchanged (Section III; re-parenting rule documented in
// DESIGN.md).
func (ev *evaluator) mutate(st *guard.Stage) (*Target, error) {
	t := ev.identity()
	idx := make(map[string]*TNode, ev.in.NumTypes())
	t.Walk(func(n *TNode) { idx[n.Source] = n })
	m := &mutator{ev: ev, t: t, idx: idx}
	for _, pat := range st.Patterns {
		if _, err := m.apply(pat, nil); err != nil {
			return nil, err
		}
	}
	if len(t.Roots) == 0 {
		return nil, fmt.Errorf("semantics: MUTATE dropped every type")
	}
	return t, nil
}

// translate evaluates ξ[TRANSLATE dictionary]: an identity arrangement with
// the matching types renamed (Section VI — the translation renames every
// type sharing the matched base type, clones included).
func (ev *evaluator) translate(st *guard.Stage) (*Target, error) {
	t := ev.identity()
	for _, r := range st.Renames {
		matched := false
		t.Walk(func(n *TNode) {
			if MatchLabel(r.From, n.Source) {
				n.Name = r.To
				matched = true
			}
		})
		if !matched && !ev.typeFill {
			return nil, &TypeError{Label: r.From, Pos: st.Pos}
		}
	}
	return t, nil
}

// mutator applies MUTATE pattern terms to a full target.
type mutator struct {
	ev  *evaluator
	t   *Target
	idx map[string]*TNode // source type -> its (unique) target node
}

// apply applies one pattern term under the given context nodes (nil at the
// top of the pattern) and returns the target nodes the term resolved to.
func (m *mutator) apply(term *guard.Term, ctx []*TNode) ([]*TNode, error) {
	switch term.Kind {
	case guard.TermLabel:
		nodes, err := m.resolveNodes(term, ctx)
		if err != nil {
			return nil, err
		}
		if ctx != nil {
			if err := m.reparentClosest(nodes, ctx); err != nil {
				return nil, err
			}
		}
		return m.applyKids(term, nodes)

	case guard.TermDrop:
		nodes, err := m.resolveDropTarget(term.Operand)
		if err != nil {
			return nil, err
		}
		for _, n := range nodes {
			m.t.Remove(n)
			if n.Source != "" {
				delete(m.idx, n.Source)
			}
		}
		return nil, nil

	case guard.TermNew:
		return m.applyNew(term, ctx)

	case guard.TermClone:
		if ctx == nil {
			return nil, fmt.Errorf("semantics: CLONE needs an enclosing pattern term in MUTATE")
		}
		ops, err := m.resolveNodes(labelOrErr(term.Operand), nil)
		if err != nil {
			return nil, err
		}
		var clones []*TNode
		for _, p := range ctx {
			for _, o := range ops {
				c, err := m.ev.copyOf(o)
				if err != nil {
					return nil, err
				}
				c.Walk(func(x *TNode) { x.Clone = true })
				p.Attach(c)
				clones = append(clones, c)
			}
		}
		return clones, nil

	case guard.TermRestrict:
		nodes, err := m.resolveNodes(labelOrErr(term.Operand), ctx)
		if err != nil {
			return nil, err
		}
		// The operand's kids become requirements on the restricted type.
		for _, kid := range term.Operand.Kids {
			lbl := labelOf(kid)
			if lbl == nil {
				return nil, fmt.Errorf("semantics: RESTRICT requirement must be a label pattern, got %q", kid.String())
			}
			types, filled, err := m.ev.resolveLabel(lbl)
			if err != nil {
				return nil, err
			}
			if filled {
				continue
			}
			for _, n := range nodes {
				_, kept, _ := closestPairs([]string{n.Source}, types)
				for _, kt := range kept {
					req, err := requireTree(kid, kt, m.ev)
					if err != nil {
						return nil, err
					}
					n.addRequire(req)
				}
			}
		}
		if ctx != nil {
			if err := m.reparentClosest(nodes, ctx); err != nil {
				return nil, err
			}
		}
		return m.applyKids(term, nodes)

	case guard.TermChildren, guard.TermDescendants:
		// The whole shape is already present under MUTATE.
		return nil, fmt.Errorf("semantics: %s is redundant in a MUTATE shape", term.Kind)
	}
	return nil, fmt.Errorf("semantics: unexpected term kind %v in MUTATE", term.Kind)
}

// applyKids recurses into a term's bracketed children with the resolved
// nodes as context.
func (m *mutator) applyKids(term *guard.Term, nodes []*TNode) ([]*TNode, error) {
	for _, kid := range term.Kids {
		if _, err := m.apply(kid, nodes); err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

// resolveNodes resolves a label term to existing target nodes, pruning
// ambiguous candidates by closeness to the context types.
func (m *mutator) resolveNodes(term *guard.Term, ctx []*TNode) ([]*TNode, error) {
	if term == nil || term.Kind != guard.TermLabel {
		return nil, fmt.Errorf("semantics: expected a label in MUTATE pattern")
	}
	types, filled, err := m.ev.resolveLabel(term)
	if err != nil {
		return nil, err
	}
	if filled {
		// TYPE-FILL: manufacture a fresh type below the context (or as a
		// new root).
		n := &TNode{Name: term.Label, Fill: true}
		if len(ctx) > 0 {
			ctx[0].Attach(n)
		} else {
			m.t.Roots = append(m.t.Roots, n)
		}
		return []*TNode{n}, nil
	}
	if len(ctx) > 0 {
		ctxTypes := make([]string, 0, len(ctx))
		for _, c := range ctx {
			if c.Source != "" {
				ctxTypes = append(ctxTypes, c.Source)
			}
		}
		if len(ctxTypes) > 0 {
			_, kept, _ := closestPairs(ctxTypes, types)
			m.ev.recordKept(term, kept)
			types = kept
		}
	}
	var nodes []*TNode
	for _, ty := range types {
		if n, ok := m.idx[ty]; ok {
			nodes = append(nodes, n)
		}
	}
	if len(nodes) == 0 {
		return nil, &TypeError{Label: term.Label, Pos: term.Pos}
	}
	return nodes, nil
}

// resolveDropTarget resolves DROP's operand. The operand's kids are
// context only: DROP title [ book ] removes the title type closest to a
// book type.
func (m *mutator) resolveDropTarget(op *guard.Term) ([]*TNode, error) {
	if op == nil || op.Kind != guard.TermLabel {
		return nil, fmt.Errorf("semantics: DROP expects a label pattern")
	}
	types, filled, err := m.ev.resolveLabel(op)
	if err != nil {
		return nil, err
	}
	if filled {
		return nil, nil // dropping a type that does not exist: no-op
	}
	for _, kid := range op.Kids {
		lbl := labelOf(kid)
		if lbl == nil {
			return nil, fmt.Errorf("semantics: DROP context must be labels, got %q", kid.String())
		}
		kts, kFilled, err := m.ev.resolveLabel(lbl)
		if err != nil {
			return nil, err
		}
		if kFilled {
			continue
		}
		kept, _, _ := closestPairs(types, kts)
		m.ev.recordKept(op, kept)
		types = kept
	}
	var nodes []*TNode
	for _, ty := range types {
		if n, ok := m.idx[ty]; ok {
			nodes = append(nodes, n)
		}
	}
	return nodes, nil
}

// applyNew wraps pattern children in a manufactured element: the NEW node
// takes the position of its first resolved child, which moves below it
// (DESIGN.md's documented choice, reproducing "wraps each author in a
// scribe").
func (m *mutator) applyNew(term *guard.Term, ctx []*TNode) ([]*TNode, error) {
	nd := &TNode{Name: term.Label}
	switch {
	case len(term.Kids) > 0:
		first, err := m.resolveNodes(labelOrErr(term.Kids[0]), ctx)
		if err != nil {
			return nil, err
		}
		anchor := first[0]
		if p := anchor.Parent(); p != nil {
			anchor.Detach()
			p.Attach(nd)
		} else {
			m.t.detachNode(anchor)
			m.t.Roots = append(m.t.Roots, nd)
		}
		nd.Attach(anchor)
		for _, extra := range first[1:] {
			if err := m.t.Reparent(nd, extra); err != nil {
				return nil, err
			}
		}
		for _, kid := range term.Kids[1:] {
			if _, err := m.apply(kid, []*TNode{nd}); err != nil {
				return nil, err
			}
		}
		// Recurse into the first kid's own children.
		if _, err := m.applyKids(term.Kids[0], first); err != nil {
			return nil, err
		}
	case len(ctx) > 0:
		ctx[0].Attach(nd)
	default:
		m.t.Roots = append(m.t.Roots, nd)
	}
	return []*TNode{nd}, nil
}

// reparentClosest moves each resolved node below its closest context node.
func (m *mutator) reparentClosest(nodes, ctx []*TNode) error {
	for _, n := range nodes {
		best := ctx[0]
		if n.Source != "" {
			bestD := -1
			for _, c := range ctx {
				if c.Source == "" {
					continue
				}
				d := xmltree.TypeDistance(c.Source, n.Source)
				if bestD < 0 || d < bestD {
					best, bestD = c, d
				}
			}
		}
		if best == n {
			continue
		}
		if err := m.t.Reparent(best, n); err != nil {
			return err
		}
	}
	return nil
}

// requireTree builds the requirement node of source type kt for a
// RESTRICT pattern kid, its own children nested below it.
func requireTree(kid *guard.Term, kt string, ev *evaluator) (*TNode, error) {
	n := NewLeaf(kt)
	for _, sub := range kid.Kids {
		lbl := labelOf(sub)
		if lbl == nil {
			return nil, fmt.Errorf("semantics: RESTRICT requirement must be a label pattern, got %q", sub.String())
		}
		types, filled, err := ev.resolveLabel(lbl)
		if err != nil {
			return nil, err
		}
		if filled {
			continue
		}
		_, kept, _ := closestPairs([]string{kt}, types)
		for _, st := range kept {
			k, err := requireTree(sub, st, ev)
			if err != nil {
				return nil, err
			}
			n.Attach(k)
		}
	}
	return n, nil
}

// labelOrErr returns the term if it is a label (or unwraps to one), for
// constructs that require label operands.
func labelOrErr(t *guard.Term) *guard.Term {
	if l := labelOf(t); l != nil {
		return l
	}
	return t
}
