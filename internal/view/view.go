// Package view maintains a materialized transformation — the mitigation
// Section VIII sketches for the cost of physical transformation:
// "materializing the transformation and mapping XUpdate operations to
// updates of the transformation".
//
// A View pairs a source document with the rendered output of a guard and
// an index from each source vertex to its output copies (built from the
// renderer's provenance links). Value updates propagate in O(copies).
// Structural updates (insert/delete) are mapped to in-place patches of
// the output: the closest relation is structural and symmetric — two
// vertices are closest exactly when they share the ancestor at their
// types' common-prefix depth — so inserting or deleting a source subtree
// only creates or destroys closest pairs involving the edited vertices,
// never re-pairs surviving ones. The view exploits that locality to
// splice just the affected emissions, falling back to a full lazy
// re-render only when the edit changes what the guard compiles to (or
// the guard uses RESTRICT, whose existence probes a local patch cannot
// re-evaluate).
package view

import (
	"fmt"

	"xmorph/internal/closest"
	"xmorph/internal/core"
	"xmorph/internal/plan"
	"xmorph/internal/render"
	"xmorph/internal/semantics"
	"xmorph/internal/shape"
	"xmorph/internal/xmltree"
)

// View is a materialized guard output kept consistent with its source.
type View struct {
	guard   string
	source  *xmltree.Document
	checked *core.Checked
	// target is the composed target the current output was rendered
	// from and tree its execution tree; prov, rank and gens index into
	// this exact tree.
	target *semantics.Target
	tree   *plan.Tree
	output *xmltree.Document
	// copies maps each source vertex to its rendered copies.
	copies map[*xmltree.Node][]*xmltree.Node
	// prov maps each output node to the occurrence that emitted it (the
	// renderer's annotation, maintained across patches).
	prov map[*xmltree.Node]*plan.Node
	// anchors maps a source vertex to the wrapper instances anchored on
	// it (a manufactured element materializes once per instance of its
	// first sourced child).
	anchors map[*xmltree.Node][]*xmltree.Node
	// rank is each occurrence's emission slot among its parent's kids
	// (roots: the slot in the output root list).
	rank map[*plan.Node]int
	// gens lists, per source type, the occurrences that materialize a
	// new emission when an instance of that type appears.
	gens map[string][]*plan.Node
	// local is the tree-local partner source units are rendered with;
	// unlocal records that it met a join it could not localize.
	local   render.Partners
	unlocal bool
	// incOK reports the target is patchable: no RESTRICT requirements.
	incOK bool
	stale bool
	// renders counts full (re-)renders; patches counts structural
	// updates absorbed in place. Both are exposed for tests/monitoring.
	renders int
	patches int
}

// Materialize compiles the guard against the source and renders the
// initial output.
func Materialize(guardSrc string, source *xmltree.Document) (*View, error) {
	checked, err := core.Check(guardSrc, shape.FromDocument(source), nil)
	if err != nil {
		return nil, err
	}
	v := &View{guard: guardSrc, source: source, checked: checked}
	if err := v.render(); err != nil {
		return nil, err
	}
	return v, nil
}

func (v *View) render() error {
	v.target = v.checked.Plan.ComposedTarget()
	v.tree = plan.Build(v.target)
	out, prov, err := render.RenderAnnotated(v.source, v.tree, nil)
	if err != nil {
		return err
	}
	v.output = out
	v.prov = prov
	v.local = render.NodePartners(v.tree, func(x *xmltree.Node, typ string) []*xmltree.Node {
		ps, ok := partnersOf(x, typ)
		v.unlocal = v.unlocal || !ok
		return ps
	})
	v.scanTarget()
	v.reindexOutput()
	v.stale = false
	v.renders++
	return nil
}

// reindexOutput renumbers the (possibly just patched) output and
// rebuilds the copies and anchors indexes from provenance.
func (v *View) reindexOutput() {
	v.output.Reindex()
	v.copies = map[*xmltree.Node][]*xmltree.Node{}
	v.anchors = map[*xmltree.Node][]*xmltree.Node{}
	for _, n := range v.output.Nodes() {
		if n.Src != nil {
			src := n.Src.Origin()
			v.copies[src] = append(v.copies[src], n)
		}
		if x := v.prov[n]; x != nil && x.First != nil {
			if w := v.driverOf(n); w != nil {
				v.anchors[w] = append(v.anchors[w], n)
			}
		}
	}
}

// scanTarget indexes the execution tree for incremental patching:
// emission slots, the generator list per driving source type, and
// whether the target is patchable at all.
func (v *View) scanTarget() {
	v.rank = map[*plan.Node]int{}
	v.gens = map[string][]*plan.Node{}
	v.incOK = true
	for _, x := range v.tree.Nodes {
		if len(x.TN.Require) > 0 {
			// RESTRICT probes the existence of other emissions; a local
			// patch cannot re-evaluate which old emissions it flips.
			v.incOK = false
		}
	}
	v.scanKids(v.tree.Roots)
}

// scanKids indexes a kid (or root) list and the subtrees below it. Every
// sourced occurrence generates an emission of its own per instance of
// its type, except a wrapper's anchor, which is emitted as part of each
// wrapper instance: there the wrapper is what the instance generates.
func (v *View) scanKids(kids []*plan.Node) {
	for i, x := range kids {
		v.rank[x] = i
		switch {
		case x.First != nil:
			v.gens[x.First.TN.Source] = append(v.gens[x.First.TN.Source], x)
		case x.Sourced && (!x.Anchor):
			v.gens[x.TN.Source] = append(v.gens[x.TN.Source], x)
		}
		v.scanKids(x.Kids)
	}
}

// Output returns the materialized document, re-rendering first if a
// structural update staled the view.
func (v *View) Output() (*xmltree.Document, error) {
	if v.stale {
		// Structural changes may alter the shape; recompile so the guard
		// is re-type-checked against the new shape.
		checked, err := core.Check(v.guard, shape.FromDocument(v.source), nil)
		if err != nil {
			return nil, err
		}
		v.checked = checked
		if err := v.render(); err != nil {
			return nil, err
		}
	}
	return v.output, nil
}

// Renders reports how many full renders the view has performed.
func (v *View) Renders() int { return v.renders }

// Patches reports how many structural updates were absorbed by in-place
// patches instead of re-renders.
func (v *View) Patches() int { return v.patches }

// Stale reports whether a structural update invalidated the
// materialization.
func (v *View) Stale() bool { return v.stale }

// UpdateValue changes a source vertex's text value and propagates it to
// every rendered copy without re-rendering (the XUpdate "update text"
// case). The vertex is addressed by its Dewey number in the source.
func (v *View) UpdateValue(at xmltree.Dewey, newValue string) error {
	n := v.source.NodeAt(at)
	if n == nil {
		return fmt.Errorf("view: no source vertex at %s", at)
	}
	n.Value = newValue
	if v.stale {
		return nil // the next Output re-renders anyway
	}
	for _, c := range v.copies[n] {
		c.Value = newValue
	}
	return nil
}

// InsertSubtree appends a parsed fragment below the source vertex at the
// given Dewey number. When the guard still compiles to the identical
// target over the updated source, the new emissions are spliced into the
// output in place; otherwise the view goes stale and re-renders lazily.
func (v *View) InsertSubtree(at xmltree.Dewey, fragment string) error {
	parent := v.source.NodeAt(at)
	if parent == nil {
		return fmt.Errorf("view: no source vertex at %s", at)
	}
	if parent.Attr {
		return fmt.Errorf("view: cannot insert below an attribute")
	}
	frag, err := xmltree.ParseString(fragment)
	if err != nil {
		return err
	}
	eligible := !v.stale && v.incOK
	node, err := v.source.Graft(parent, frag.Root())
	if err != nil {
		return err
	}
	if !eligible || !v.recheck() {
		v.stale = true
		return nil
	}
	if v.patchInsert(node) {
		v.patches++
	} else {
		v.stale = true
	}
	return nil
}

// DeleteSubtree removes the source vertex at the given Dewey number
// (with its subtree), detaching its emissions from the output in place
// when the guard's compilation is unaffected; otherwise the view goes
// stale.
func (v *View) DeleteSubtree(at xmltree.Dewey) error {
	n := v.source.NodeAt(at)
	if n == nil {
		return fmt.Errorf("view: no source vertex at %s", at)
	}
	if n.Parent == nil {
		return fmt.Errorf("view: cannot delete the document root")
	}
	eligible := !v.stale && v.incOK
	gone := map[*xmltree.Node]bool{}
	n.Walk(func(m *xmltree.Node) bool { gone[m] = true; return true })
	if err := v.source.Remove(n); err != nil {
		return err
	}
	if !eligible || !v.recheck() {
		v.stale = true
		return nil
	}
	v.patchDelete(gone)
	v.patches++
	return nil
}

// Source returns the (possibly updated) source document.
func (v *View) Source() *xmltree.Document { return v.source }

// recheck recompiles the guard against the mutated source's shape. The
// incremental patch is sound only when compilation still produces the
// identical composed target: label resolution, TYPE-FILL and loss
// verdicts all depend on the shape, and any difference means the
// arrangement itself must change.
func (v *View) recheck() bool {
	checked, err := core.Check(v.guard, shape.FromDocument(v.source), nil)
	if err != nil {
		return false
	}
	return sameTarget(v.target, checked.Plan.ComposedTarget())
}

// sameTarget reports whether two composed targets describe the same
// arrangement (adornments aside — cardinalities do not change what the
// renderer emits).
func sameTarget(a, b *semantics.Target) bool {
	if len(a.Roots) != len(b.Roots) {
		return false
	}
	for i := range a.Roots {
		if !sameTNode(a.Roots[i], b.Roots[i]) {
			return false
		}
	}
	return true
}

func sameTNode(a, b *semantics.TNode) bool {
	if a.Name != b.Name || a.Source != b.Source ||
		len(a.Kids) != len(b.Kids) || len(a.Require) != len(b.Require) {
		return false
	}
	for i := range a.Kids {
		if !sameTNode(a.Kids[i], b.Kids[i]) {
			return false
		}
	}
	for i := range a.Require {
		if !sameTNode(a.Require[i], b.Require[i]) {
			return false
		}
	}
	return true
}

// partnersOf returns the closest partners of type T for vertex x, in
// document order: the T-instances sharing x's ancestor at the Dewey
// depth of the two types' common label prefix (exactly the pairs the
// renderer's sort-merge closest join produces, computed locally). The
// relation is symmetric, so this also enumerates the context vertices
// whose emissions x newly joins.
func partnersOf(x *xmltree.Node, T string) ([]*xmltree.Node, bool) {
	l := closest.TypeLCP(x.Type, T)
	if l == 0 {
		return nil, false
	}
	a := x
	for len(a.Dewey) > l {
		a = a.Parent
	}
	var out []*xmltree.Node
	a.Walk(func(n *xmltree.Node) bool {
		if n.Type == T {
			out = append(out, n)
			return false // same-type vertices never nest
		}
		return true
	})
	return out, true
}

// patchInsert splices the emissions generated by the grafted subtree s
// into the output. It reports false (leaving the view to go stale) when
// it meets a join it cannot localize.
func (v *View) patchInsert(s *xmltree.Node) bool {
	inS := map[*xmltree.Node]bool{}
	s.Walk(func(n *xmltree.Node) bool { inS[n] = true; return true })
	ok := true
	s.Walk(func(x *xmltree.Node) bool {
		for _, g := range v.gens[x.Type] {
			if !v.insertEmissions(g, x, inS) {
				ok = false
			}
		}
		return ok
	})
	if !ok {
		return false
	}
	v.reindexOutput()
	return true
}

// insertEmissions materializes generator g's new emission driven by
// source vertex x, splicing one unit into every existing host. Emissions
// whose context vertex lies inside the grafted subtree are skipped: the
// unit built for the enclosing new emission renders them itself.
func (v *View) insertEmissions(g *plan.Node, x *xmltree.Node, inS map[*xmltree.Node]bool) bool {
	p := g.Parent
	if p == nil {
		unit, ok := v.buildUnit(g, x)
		if !ok {
			return false
		}
		idx := v.spliceIndex(v.output.Roots, g, x)
		v.output.Roots = insertAt(v.output.Roots, idx, unit)
		return true
	}
	ctx := p
	if !p.Sourced {
		ctx = p.First // kids of a wrapper instance join from its anchor
	}
	ctxs, ok := partnersOf(x, ctx.TN.Source)
	if !ok {
		return false
	}
	for _, c := range ctxs {
		if inS[c] {
			continue
		}
		for _, h := range v.hostsOf(p, c) {
			unit, ok := v.buildUnit(g, x)
			if !ok {
				return false
			}
			idx := v.spliceIndex(h.Children, g, x)
			h.Children = insertAt(h.Children, idx, unit)
			unit.Parent = h
		}
	}
	return true
}

// hostsOf returns the output nodes that are emissions of occurrence p
// driven by source vertex ctx (copies for sourced occurrences, anchored
// instances for wrappers).
func (v *View) hostsOf(p *plan.Node, ctx *xmltree.Node) []*xmltree.Node {
	cands := v.copies[ctx]
	if !p.Sourced {
		cands = v.anchors[ctx]
	}
	var hosts []*xmltree.Node
	for _, c := range cands {
		if v.prov[c] == p {
			hosts = append(hosts, c)
		}
	}
	return hosts
}

// spliceIndex finds the insertion point for a new emission of g driven
// by x within an output child (or root) list: after every slot that
// renders earlier, and after same-slot emissions with earlier drivers.
func (v *View) spliceIndex(list []*xmltree.Node, g *plan.Node, x *xmltree.Node) int {
	gr := v.rank[g]
	idx := 0
	for _, c := range list {
		o, known := v.prov[c]
		if !known {
			idx++ // foreign node: keep it where it is
			continue
		}
		r := v.rank[o]
		d := v.driverOf(c)
		if r < gr || (r == gr && d != nil && d.Dewey.Compare(x.Dewey) < 0) {
			idx++
			continue
		}
		break
	}
	return idx
}

// driverOf returns the source vertex whose existence an output node's
// emission is tied to: its provenance for sourced emissions, the anchor
// (first sourced child's instance) for wrapper instances, nil for
// static fill elements.
func (v *View) driverOf(c *xmltree.Node) *xmltree.Node {
	if c.Src != nil {
		return c.Src.Origin()
	}
	if x := v.prov[c]; x != nil && x.First != nil {
		for _, k := range c.Children {
			if v.prov[k] == x.First {
				return k.Src.Origin()
			}
		}
	}
	return nil
}

// buildUnit renders one new emission of generator g driven by x as a
// detached subtree: the renderer's own walk, with closest partners
// computed locally. It reports false when a join could not be localized.
func (v *View) buildUnit(g *plan.Node, x *xmltree.Node) (*xmltree.Node, bool) {
	v.unlocal = false
	unit := render.Unit(g, x, v.local, v.prov)
	return unit, !v.unlocal
}

func insertAt(list []*xmltree.Node, i int, n *xmltree.Node) []*xmltree.Node {
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = n
	return list
}

// patchDelete detaches every emission whose driver vertex was deleted.
// Because closest pairs are structural, deleting a source subtree can
// only destroy emissions driven by its vertices (and whatever was
// rendered inside them) — surviving emissions never re-pair.
func (v *View) patchDelete(gone map[*xmltree.Node]bool) {
	var tops []*xmltree.Node
	for _, c := range v.output.Nodes() {
		d := v.driverOf(c)
		if d == nil || !gone[d] {
			continue
		}
		buried := false
		for a := c.Parent; a != nil; a = a.Parent {
			if ad := v.driverOf(a); ad != nil && gone[ad] {
				buried = true
				break
			}
		}
		if !buried {
			tops = append(tops, c)
		}
	}
	for _, c := range tops {
		v.detach(c)
	}
	v.reindexOutput()
}

// detach removes output node c (with its subtree) from the output tree
// and drops its provenance entries.
func (v *View) detach(c *xmltree.Node) {
	if c.Parent == nil {
		for i, r := range v.output.Roots {
			if r == c {
				v.output.Roots = append(v.output.Roots[:i:i], v.output.Roots[i+1:]...)
				break
			}
		}
	} else {
		p := c.Parent
		for i, k := range p.Children {
			if k == c {
				p.Children = append(p.Children[:i:i], p.Children[i+1:]...)
				break
			}
		}
		c.Parent = nil
	}
	c.Walk(func(n *xmltree.Node) bool {
		delete(v.prov, n)
		return true
	})
}
