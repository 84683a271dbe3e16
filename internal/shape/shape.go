// Package shape implements adorned shapes (Definition 3 of the paper): a
// forest of data types with parent/child edges labelled by cardinality
// ranges, the path-cardinality computation (Definition 6), and predicted
// adorned shapes (Definition 7) used by the information-loss analysis.
//
// A shape is a DataGuide adorned with cardinalities: an edge t -> u with
// cardinality n..m records that every node of type t has at least n and at
// most m children of type u. Its types are numbered densely from 0, and
// every per-type property is a slice indexed by that id.
package shape

import (
	"fmt"
	"slices"
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

// Forest is a forest over dense ids, each with at most one incoming edge
// and the cardinality on it. Shape keeps its types in one; the loss check
// numbers a stage's target types into another, so that Definition 6 over
// a source shape and over a predicted target is the same code. The zero
// value is an empty forest.
type Forest struct {
	parent []int  // -1 at a root
	into   []Card // the card of the one edge into a type; One at a root
	depth  []int  // edges up to the root
	// Type i's chain, chain[at[i] : at[i]+depth[i]+1], lists the ids from
	// its root down to i; down at the same index k holds the cardinality
	// of the path from the chain's type at depth k down to i, the product
	// of into below it.
	at    []int
	chain []int
	down  []Card
}

// Add appends a type below parent (-1 for a root), the edge into it
// carrying c, and returns its id. parent must be an id already added.
func (f *Forest) Add(parent int, c Card) int {
	id := len(f.parent)
	f.parent = append(f.parent, parent)
	f.into = append(f.into, c)
	f.depth = append(f.depth, -1) // no chain yet
	f.at = append(f.at, 0)
	f.rechain(id)
	return id
}

// rechain writes type id's chain, which extends its parent's: the
// parent's chain must be current. A type that keeps its depth is
// rewritten in place; one that moved gets a new chain appended, and its
// old one stays behind in the arrays, unreferenced.
func (f *Forest) rechain(id int) {
	p, d := f.parent[id], 0
	if p >= 0 {
		d = f.depth[p] + 1
	}
	if d != f.depth[id] {
		f.at[id], f.depth[id] = len(f.chain), d
		for range d + 1 {
			f.chain = append(f.chain, id)
			f.down = append(f.down, One)
		}
	}
	at := f.at[id]
	if p >= 0 {
		copy(f.chain[at:], f.chain[f.at[p]:f.at[p]+d])
		for j, c := range f.down[f.at[p] : f.at[p]+d] {
			f.down[at+j] = c.Mul(f.into[id])
		}
	}
	f.chain[at+d], f.down[at+d] = id, One
}

// PathCard implements Definition 6 in both directions between types t
// and u: the cardinality of the path from t to u and of the path from u
// to t. A path's cardinality is the product of the edge cardinalities on
// the downward leg from the least common ancestor to its end type; the
// upward leg contributes 1..1. ok is false when t and u lie in different
// trees. The two chains share their prefix down to the least common
// ancestor, at whose depth both legs' products are stored, so the walk
// is as long as the ancestor is deep and allocates nothing: the loss
// check calls it for every pair of types.
func (f *Forest) PathCard(t, u int) (tu, ut Card, ok bool) {
	ct := f.chain[f.at[t] : f.at[t]+f.depth[t]+1]
	cu := f.chain[f.at[u] : f.at[u]+f.depth[u]+1]
	if ct[0] != cu[0] {
		return Card{}, Card{}, false
	}
	k := 0
	for k+1 < len(ct) && k+1 < len(cu) && ct[k+1] == cu[k+1] {
		k++
	}
	return f.down[f.at[u]+k], f.down[f.at[t]+k], true
}

// Shape is an adorned shape: a forest of named types with cardinality-
// labelled edges. Type ids are dense, in the order the types were added;
// names are the only keys callers outside the package hold, and one map
// turns them into ids. The zero value is not usable; call New.
type Shape struct {
	f     Forest
	names []string
	kids  [][]int // child ids in sibling order
	ids   map[string]int
}

// New returns an empty shape.
func New() *Shape { return &Shape{ids: map[string]int{}} }

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
	id     int // index in order
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
		t = &foldType{name: typ, id: len(f.order)}
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
	names := make([]string, len(f.order))
	parent := make([]int, len(f.order))
	into := make([]Card, len(f.order))
	for i, t := range f.order {
		names[i], parent[i], into[i] = t.name, -1, One
		if t.parent != nil {
			parent[i], into[i] = t.parent.id, t.card
		}
	}
	return build(names, parent, into)
}

// FromParents returns the shape whose type with id i is named names[i],
// has parent type parent[i] (-1 for a root) and card into[i] on the edge
// from it; a parent's children keep the order of their ids. It takes
// ownership of the slices. It fails when the slices differ in length, a
// parent id is out of range, or the result is not a forest of distinct
// names (Validate).
func FromParents(names []string, parent []int, into []Card) (*Shape, error) {
	n := len(names)
	if len(parent) != n || len(into) != n {
		return nil, fmt.Errorf("shape: %d names, %d parents, %d cards", n, len(parent), len(into))
	}
	for i, p := range parent {
		if p < -1 || p >= n {
			return nil, fmt.Errorf("shape: type %s has parent id %d of %d types", names[i], p, n)
		}
	}
	s := build(names, parent, into)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// build assembles a shape over a forest of distinct names. A type whose
// parents never reach a root (a cycle) is left without a chain, at depth
// -1, which Validate reports.
func build(names []string, parent []int, into []Card) *Shape {
	n := len(names)
	s := &Shape{
		f:     Forest{parent: parent, into: into, depth: make([]int, n), at: make([]int, n)},
		names: names,
		kids:  make([][]int, n),
		ids:   make(map[string]int, n),
	}
	for i := range s.f.depth {
		s.f.depth[i] = -1 // no chain yet
	}
	// One backing array holds every child list, in sibling order.
	count := make([]int, n)
	for _, p := range parent {
		if p >= 0 {
			count[p]++
		}
	}
	flat := make([]int, 0, n)
	for i, c := range count {
		s.kids[i] = flat[len(flat) : len(flat) : len(flat)+c]
		flat = flat[:len(flat)+c]
	}
	for i, p := range parent {
		s.ids[names[i]] = i
		if p >= 0 {
			s.kids[p] = append(s.kids[p], i)
		}
	}
	for i, p := range parent {
		if p < 0 {
			s.rechain(i)
		}
	}
	return s
}

// rechain sets the chains of id's subtree, from id's parent's.
func (s *Shape) rechain(id int) {
	s.f.rechain(id)
	for _, k := range s.kids[id] {
		s.rechain(k)
	}
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
// added) and returns its id.
func (s *Shape) AddType(t string) int {
	if id, ok := s.ids[t]; ok {
		return id
	}
	id := s.f.Add(-1, One)
	s.names = append(s.names, t)
	s.kids = append(s.kids, nil)
	s.ids[t] = id
	return id
}

// AddEdge adds (or replaces) the edge parent -> child with the given
// cardinality. Both endpoints are added as types. It returns an error if
// the edge would give child a second parent or create a cycle.
func (s *Shape) AddEdge(parent, child string, c Card) error {
	if parent == child {
		return fmt.Errorf("shape: self edge on %s", parent)
	}
	p, k := s.AddType(parent), s.AddType(child)
	switch old := s.f.parent[k]; {
	case old >= 0 && old != p:
		return fmt.Errorf("shape: type %s already has parent %s", child, s.names[old])
	case old < 0:
		for a := p; a >= 0; a = s.f.parent[a] {
			if a == k {
				return fmt.Errorf("shape: edge %s -> %s would create a cycle", parent, child)
			}
		}
		s.f.parent[k] = p
		s.kids[p] = append(s.kids[p], k)
	}
	s.f.into[k] = c
	s.rechain(k)
	return nil
}

// ID returns the id of type t, and whether t is a type of the shape.
func (s *Shape) ID(t string) (int, bool) {
	id, ok := s.ids[t]
	return id, ok
}

// Name returns the name of the type with the given id.
func (s *Shape) Name(id int) string { return s.names[id] }

// Kids returns the child ids of a type in sibling order. The slice is the
// shape's own.
func (s *Shape) Kids(id int) []int { return s.kids[id] }

// PathCard is Definition 6 in both directions between the types with ids
// t and u; see Forest.PathCard.
func (s *Shape) PathCard(t, u int) (tu, ut Card, ok bool) { return s.f.PathCard(t, u) }

// PathCardOf is Definition 6 from type from to type to, by name; false
// when either is not a type of the shape or they lie in different trees.
func (s *Shape) PathCardOf(from, to string) (Card, bool) {
	t, okT := s.ids[from]
	u, okU := s.ids[to]
	if !okT || !okU {
		return Card{}, false
	}
	c, _, ok := s.f.PathCard(t, u)
	return c, ok
}

// HasType reports whether t is a type of the shape.
func (s *Shape) HasType(t string) bool {
	_, ok := s.ids[t]
	return ok
}

// Types returns the sorted set of types (Definition 3's types(S)).
func (s *Shape) Types() []string {
	ts := slices.Clone(s.names)
	slices.Sort(ts)
	return ts
}

// NumTypes returns the number of types.
func (s *Shape) NumTypes() int { return len(s.names) }

// Roots returns the sorted types with no incoming edge (roots(S)).
func (s *Shape) Roots() []string {
	var rs []string
	for id, p := range s.f.parent {
		if p < 0 {
			rs = append(rs, s.names[id])
		}
	}
	slices.Sort(rs)
	return rs
}

// Children returns the child types of t in insertion (document) order.
func (s *Shape) Children(t string) []string {
	id, ok := s.ids[t]
	if !ok || len(s.kids[id]) == 0 {
		return nil
	}
	out := make([]string, len(s.kids[id]))
	for i, k := range s.kids[id] {
		out[i] = s.names[k]
	}
	return out
}

// Parent returns t's parent type and whether it has one.
func (s *Shape) Parent(t string) (string, bool) {
	if id, ok := s.ids[t]; ok && s.f.parent[id] >= 0 {
		return s.names[s.f.parent[id]], true
	}
	return "", false
}

// Card returns the cardinality on the edge parent -> child, and whether
// that edge exists.
func (s *Shape) Card(parent, child string) (Card, bool) {
	p, okP := s.ids[parent]
	k, okK := s.ids[child]
	if !okP || !okK || s.f.parent[k] != p {
		return Card{}, false
	}
	return s.f.into[k], true
}

// Validate checks that the shape's slices describe one forest of
// distinct names: every slice has an entry per type, the name map agrees
// with the names, each non-root is listed once among
// its parent's children and every listed child names that parent, and
// each type's depth is one more than its parent's, which rules out a
// cycle.
func (s *Shape) Validate() error {
	n, f := len(s.names), &s.f
	if len(f.parent) != n || len(f.into) != n || len(f.depth) != n || len(f.at) != n || len(s.kids) != n || len(s.ids) != n {
		return fmt.Errorf("shape: %d names but %d parents, %d cards, %d depths, %d chains, %d child lists, %d ids",
			n, len(f.parent), len(f.into), len(f.depth), len(f.at), len(s.kids), len(s.ids))
	}
	listed, roots := 0, 0
	for id, t := range s.names {
		if got, ok := s.ids[t]; !ok || got != id {
			return fmt.Errorf("shape: type %s has id %d, mapped to %d", t, id, got)
		}
		p, want := f.parent[id], 0
		switch {
		case p >= n || p < -1:
			return fmt.Errorf("shape: type %s has parent id %d of %d types", t, p, n)
		case p < 0:
			roots++
		case !slices.Contains(s.kids[p], id):
			return fmt.Errorf("shape: edge %s -> %s missing from children index", s.names[p], t)
		default:
			want = f.depth[p] + 1
		}
		if f.depth[id] != want {
			return fmt.Errorf("shape: type %s at depth %d, want %d", t, f.depth[id], want)
		}
		for _, k := range s.kids[id] {
			if k < 0 || k >= n || f.parent[k] != id {
				return fmt.Errorf("shape: children index lists id %d under %s", k, t)
			}
		}
		listed += len(s.kids[id])
	}
	if listed+roots != n {
		return fmt.Errorf("shape: %d roots and %d listed children over %d types", roots, listed, n)
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
	var walk func(id, depth int)
	walk = func(id, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(s.names[id])
		if s.f.parent[id] >= 0 {
			b.WriteString(" ")
			b.WriteString(s.f.into[id].String())
		}
		b.WriteString("\n")
		for _, k := range s.kids[id] {
			walk(k, depth+1)
		}
	}
	for _, r := range s.Roots() {
		walk(s.ids[r], 0)
	}
	return b.String()
}
