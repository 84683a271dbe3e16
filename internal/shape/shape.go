// Package shape implements adorned shapes (Definition 3 of the paper): a
// forest of data types with parent/child edges labelled by cardinality
// ranges, the path-cardinality computation (Definition 6), and predicted
// adorned shapes (Definition 7) used by the information-loss analysis.
//
// A shape is a DataGuide adorned with cardinalities: an edge t -> u with
// cardinality n..m records that every node of type t has at least n and at
// most m children of type u.
package shape

import (
	"fmt"
	"sort"
	"strings"

	"xmorph/internal/xmltree"
)

// CardCap saturates cardinality arithmetic; path cardinalities are products
// of edge cardinalities and can otherwise overflow on deep shapes.
const CardCap = 1 << 30

// Card is a cardinality range n..m.
type Card struct {
	Min int
	Max int
}

// One is the 1..1 cardinality, the multiplicative identity of Mul.
var One = Card{Min: 1, Max: 1}

// Mul composes cardinalities along a path: minima and maxima multiply,
// saturating at CardCap.
func (c Card) Mul(o Card) Card {
	return Card{Min: satMul(c.Min, o.Min), Max: satMul(c.Max, o.Max)}
}

func satMul(a, b int) int {
	if a >= CardCap || b >= CardCap {
		return CardCap
	}
	p := a * b
	if p >= CardCap {
		return CardCap
	}
	return p
}

// String renders the range in the paper's n..m notation.
func (c Card) String() string {
	min := fmt.Sprintf("%d", c.Min)
	max := fmt.Sprintf("%d", c.Max)
	if c.Min >= CardCap {
		min = "*"
	}
	if c.Max >= CardCap {
		max = "*"
	}
	return min + ".." + max
}

type edgeKey struct{ parent, child string }

// Shape is an adorned shape: a forest over type names with cardinality-
// labelled edges. The zero value is not usable; call New.
type Shape struct {
	types    map[string]bool
	parent   map[string]string // child -> parent; roots are absent
	children map[string][]string
	card     map[edgeKey]Card
}

// New returns an empty shape.
func New() *Shape { return NewSized(0, 0) }

// NewSized returns an empty shape with room for the given numbers of
// types and edges (and as many parent types as edges).
func NewSized(types, edges int) *Shape {
	return &Shape{
		types:    make(map[string]bool, types),
		parent:   make(map[string]string, edges),
		children: make(map[string][]string, edges),
		card:     make(map[edgeKey]Card, edges),
	}
}

// Fold infers an adorned shape from one pass over a document's nodes in
// document order: Open at each element or attribute, Close when its
// subtree has been seen. It is the only statement of the inference
// rule: an edge's range is the least and greatest number of child-type
// children over all parent-type nodes — so a child type absent below
// some parent has minimum 0 — and a parent's child types keep the order
// in which the document first shows them (the model itself is
// unordered, but identity transforms then render siblings in a familiar
// order). The zero value is ready to use.
//
// Types are rooted type paths, which is what lets the fold keep its
// counts per type instead of per open node: a type has one parent type,
// and two nodes of one type are never ancestor and descendant, so at
// most one node of a parent type is open at a time.
type Fold struct {
	types map[string]*foldType
	order []*foldType // first-encounter order: parents ahead of their children
	open  []*foldType
}

type foldType struct {
	name   string
	parent *foldType
	kids   []*foldType
	closed int  // nodes of this type seen through to their Close
	n      int  // children of this type below the open node of the parent type
	card   Card // over the parent nodes closed so far
}

// Open records a node of type typ below the innermost open node.
func (f *Fold) Open(typ string) {
	t := f.types[typ]
	if t == nil {
		t = &foldType{name: typ}
		if len(f.open) > 0 {
			t.parent = f.open[len(f.open)-1]
			t.parent.kids = append(t.parent.kids, t)
		}
		if f.types == nil {
			f.types = make(map[string]*foldType)
		}
		f.types[typ] = t
		f.order = append(f.order, t)
	}
	t.n++
	f.open = append(f.open, t)
}

// Close ends the innermost open node, folding its child counts into its
// type's edges. A child type first met below a later node of the type
// starts from the zero Card, whose minimum of 0 stands for the earlier
// nodes that had none.
func (f *Fold) Close() {
	t := f.open[len(f.open)-1]
	f.open = f.open[:len(f.open)-1]
	for _, k := range t.kids {
		if t.closed == 0 || k.n < k.card.Min {
			k.card.Min = k.n
		}
		if k.n > k.card.Max {
			k.card.Max = k.n
		}
		k.n = 0
	}
	t.closed++
}

// Walk calls fn for each type folded so far in first-encounter order —
// a parent ahead of its children, and a parent's children in sibling
// order — with its parent type ("" for a root) and the card of the edge
// from it. It builds nothing: the store writes a shape's rows from it.
func (f *Fold) Walk(fn func(typ, parent string, card Card)) {
	for _, t := range f.order {
		parent := ""
		if t.parent != nil {
			parent = t.parent.name
		}
		fn(t.name, parent, t.card)
	}
}

// Shape returns the shape of the nodes folded so far.
func (f *Fold) Shape() *Shape {
	s := New()
	for _, t := range f.order {
		s.AddType(t.name)
		if t.parent != nil {
			s.setEdge(t.parent.name, t.name, t.card)
		}
	}
	return s
}

// FromDocument extracts the adorned shape of a document: one type per
// distinct rooted type path, an edge for each parent/child type pair, and
// for each edge the min and max number of child-type children over all
// parent-type nodes.
func FromDocument(d *xmltree.Document) *Shape {
	var f Fold
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		f.Open(n.Type)
		for _, c := range n.Children {
			walk(c)
		}
		f.Close()
	}
	for _, r := range d.Roots {
		walk(r)
	}
	return f.Shape()
}

// AddType ensures t is a type of the shape (as a root until an edge is
// added).
func (s *Shape) AddType(t string) {
	s.types[t] = true
}

// AddEdge adds (or replaces) the edge parent -> child with the given
// cardinality. Both endpoints are added as types. It returns an error if
// the edge would give child a second parent or create a cycle.
func (s *Shape) AddEdge(parent, child string, c Card) error {
	if parent == child {
		return fmt.Errorf("shape: self edge on %s", parent)
	}
	if p, ok := s.parent[child]; ok && p != parent {
		return fmt.Errorf("shape: type %s already has parent %s", child, p)
	}
	// Cycle check: parent must not be a descendant of child.
	for a := parent; a != ""; a = s.parent[a] {
		if a == child {
			return fmt.Errorf("shape: edge %s -> %s would create a cycle", parent, child)
		}
	}
	s.setEdge(parent, child, c)
	return nil
}

func (s *Shape) setEdge(parent, child string, c Card) {
	s.types[parent] = true
	s.types[child] = true
	if _, ok := s.parent[child]; !ok {
		s.parent[child] = parent
		s.children[parent] = append(s.children[parent], child)
	}
	s.card[edgeKey{parent, child}] = c
}

// ReserveChildren makes room for n more child types of parent, so that
// adding their edges allocates parent's child list once.
func (s *Shape) ReserveChildren(parent string, n int) {
	if kids := s.children[parent]; cap(kids)-len(kids) < n {
		s.children[parent] = append(make([]string, 0, len(kids)+n), kids...)
	}
}

// RemoveSubtree deletes t and every descendant type from the shape.
func (s *Shape) RemoveSubtree(t string) {
	for _, c := range append([]string(nil), s.children[t]...) {
		s.RemoveSubtree(c)
	}
	s.Detach(t)
	delete(s.types, t)
	delete(s.children, t)
}

// Detach removes t's incoming edge, making it a root. It is a no-op for
// roots and unknown types.
func (s *Shape) Detach(t string) {
	p, ok := s.parent[t]
	if !ok {
		return
	}
	delete(s.parent, t)
	delete(s.card, edgeKey{p, t})
	kids := s.children[p]
	for i, k := range kids {
		if k == t {
			s.children[p] = append(kids[:i:i], kids[i+1:]...)
			break
		}
	}
}

// Reparent moves type u (with its subtree) below type t, implementing the
// MUTATE re-parenting rule documented in DESIGN.md: if t lies inside u's
// subtree, t is first spliced out to u's old parent so the move cannot
// create a cycle.
func (s *Shape) Reparent(t, u string, c Card) error {
	if !s.types[t] || !s.types[u] {
		return fmt.Errorf("shape: reparent with unknown type (%s -> %s)", t, u)
	}
	if t == u {
		return fmt.Errorf("shape: cannot reparent %s below itself", u)
	}
	if s.isAncestor(u, t) {
		// Splice t out to u's old parent (or make it a root).
		oldParent, hadParent := s.parent[u]
		s.Detach(t)
		if hadParent {
			s.setEdge(oldParent, t, One)
		}
	}
	s.Detach(u)
	s.setEdge(t, u, c)
	return nil
}

// isAncestor reports whether a is a proper ancestor of b.
func (s *Shape) isAncestor(a, b string) bool {
	for p, ok := s.parent[b]; ok; p, ok = s.parent[p] {
		if p == a {
			return true
		}
	}
	return false
}

// HasType reports whether t is a type of the shape.
func (s *Shape) HasType(t string) bool { return s.types[t] }

// Types returns the sorted set of types (Definition 3's types(S)).
func (s *Shape) Types() []string {
	ts := make([]string, 0, len(s.types))
	for t := range s.types {
		ts = append(ts, t)
	}
	sort.Strings(ts)
	return ts
}

// NumTypes returns the number of types.
func (s *Shape) NumTypes() int { return len(s.types) }

// Roots returns the sorted types with no incoming edge (roots(S)).
func (s *Shape) Roots() []string {
	var rs []string
	for t := range s.types {
		if _, ok := s.parent[t]; !ok {
			rs = append(rs, t)
		}
	}
	sort.Strings(rs)
	return rs
}

// Children returns the child types of t in insertion (document) order.
func (s *Shape) Children(t string) []string { return s.children[t] }

// Parent returns t's parent type and whether it has one.
func (s *Shape) Parent(t string) (string, bool) {
	p, ok := s.parent[t]
	return p, ok
}

// Card returns the cardinality on the edge parent -> child, and whether
// that edge exists.
func (s *Shape) Card(parent, child string) (Card, bool) {
	c, ok := s.card[edgeKey{parent, child}]
	return c, ok
}

// LCA returns the least common ancestor of t and u in the forest, or ""
// when they are in different trees. A type is its own ancestor. The walk
// is allocation-free: the information-loss analysis calls this for every
// ordered pair of types.
func (s *Shape) LCA(t, u string) string {
	dt, du := s.depth(t), s.depth(u)
	for dt > du {
		t = s.parent[t]
		dt--
	}
	for du > dt {
		u = s.parent[u]
		du--
	}
	for t != u {
		pt, okT := s.parent[t]
		pu, okU := s.parent[u]
		if !okT || !okU {
			return ""
		}
		t, u = pt, pu
	}
	return t
}

// depth counts edges from t up to its root.
func (s *Shape) depth(t string) int {
	d := 0
	for {
		p, ok := s.parent[t]
		if !ok {
			return d
		}
		t = p
		d++
	}
}

// PathCard implements Definition 6: the cardinality of the path between
// types t and s, the product of edge cardinalities on the downward path
// from their least common ancestor to s. The upward path from t
// contributes 1..1. If t and s are in different trees the second return is
// false.
func (s *Shape) PathCard(t, target string) (Card, bool) {
	if !s.types[t] || !s.types[target] {
		return Card{}, false
	}
	lca := s.LCA(t, target)
	if lca == "" {
		return Card{}, false
	}
	c := One
	for x := target; x != lca; {
		p := s.parent[x]
		c = c.Mul(s.card[edgeKey{p, x}])
		x = p
	}
	return c, true
}

// Clone returns a deep copy of the shape.
func (s *Shape) Clone() *Shape {
	c := New()
	for t := range s.types {
		c.types[t] = true
	}
	for k, v := range s.parent {
		c.parent[k] = v
	}
	for k, v := range s.children {
		c.children[k] = append([]string(nil), v...)
	}
	for k, v := range s.card {
		c.card[k] = v
	}
	return c
}

// Validate checks the forest conditions: every non-root has exactly one
// recorded parent, parent/children maps agree, and there are no cycles.
func (s *Shape) Validate() error {
	for child, p := range s.parent {
		if !s.types[child] || !s.types[p] {
			return fmt.Errorf("shape: edge %s -> %s references unknown type", p, child)
		}
		found := false
		for _, c := range s.children[p] {
			if c == child {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("shape: edge %s -> %s missing from children index", p, child)
		}
		if _, ok := s.card[edgeKey{p, child}]; !ok {
			return fmt.Errorf("shape: edge %s -> %s missing cardinality", p, child)
		}
	}
	for p, kids := range s.children {
		for _, c := range kids {
			if s.parent[c] != p {
				return fmt.Errorf("shape: children index lists %s under %s but parent is %s", c, p, s.parent[c])
			}
		}
	}
	// Cycle detection: walking up from any type must terminate.
	for t := range s.types {
		seen := map[string]bool{}
		for a := t; ; {
			if seen[a] {
				return fmt.Errorf("shape: cycle through %s", a)
			}
			seen[a] = true
			p, ok := s.parent[a]
			if !ok {
				break
			}
			a = p
		}
	}
	return nil
}

// String renders the shape as an indented forest with cardinalities, e.g.
//
//	data
//	  data.author 1..1
//	    data.author.name 1..1
func (s *Shape) String() string {
	var b strings.Builder
	var walk func(t string, depth int)
	walk = func(t string, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(t)
		if p, ok := s.parent[t]; ok {
			b.WriteString(" ")
			b.WriteString(s.card[edgeKey{p, t}].String())
		}
		b.WriteString("\n")
		for _, c := range s.children[t] {
			walk(c, depth+1)
		}
	}
	for _, r := range s.Roots() {
		walk(r, 0)
	}
	return b.String()
}
