package xmltree

import (
	"sort"
	"strings"
	"sync"
)

// TypeSep separates path components in a rooted type name
// ("dblp.article.author").
const TypeSep = "."

// Node is an element or attribute vertex in a document tree (Definition 1
// gives one closest-graph vertex per element or attribute).
type Node struct {
	// Name is the element or attribute name. Attribute nodes carry a
	// leading "@" ("@id") so that element and attribute types never
	// collide.
	Name string
	// Value is the node's own text content: for an attribute its value,
	// for an element the concatenation of its direct character data.
	Value string
	// Attr marks attribute nodes.
	Attr bool
	// Parent is nil for the root.
	Parent *Node
	// Children holds child elements and attributes in document order
	// (attributes first, as produced by the parser).
	Children []*Node
	// Dewey is the node's prefix number (root = 1).
	Dewey Dewey
	// Type is the rooted type path, the concatenation of names from the
	// root to this node ("dblp.article.author"). Section IV's default
	// typing scheme.
	Type string
	// Ord is the node's document-order index within its document.
	Ord int
	// Src records the source vertex an output node was rendered from
	// (Section V relates the closest graphs of source and transformed
	// instances through this identification). It is nil for parsed or
	// built documents and for manufactured (NEW) output nodes.
	Src *Node
}

// Origin follows the Src chain to the original vertex; for parsed nodes it
// returns the node itself. Composed transformations produce chains.
func (n *Node) Origin() *Node {
	for n.Src != nil {
		n = n.Src
	}
	return n
}

// Distance returns the number of tree edges between n and o (Definition 2's
// distance function). Both nodes must belong to the same document.
func (n *Node) Distance(o *Node) int { return n.Dewey.Distance(o.Dewey) }

// LocalName returns the last component of the node's type path, without the
// attribute marker.
func (n *Node) LocalName() string { return strings.TrimPrefix(n.Name, "@") }

// Text returns the node's text content including descendants' character
// data, in document order. For attributes it is the attribute value.
func (n *Node) Text() string {
	if n.Attr || len(n.Children) == 0 {
		return n.Value
	}
	var b strings.Builder
	n.appendText(&b)
	return b.String()
}

func (n *Node) appendText(b *strings.Builder) {
	b.WriteString(n.Value)
	for _, c := range n.Children {
		if !c.Attr {
			c.appendText(b)
		}
	}
}

// Walk visits n and all descendants in document order. Returning false from
// fn prunes the subtree below the visited node.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Document is a parsed XML document or rendered forest: one or more node
// trees plus per-type indexes. Parsed XML always has a single root;
// rendered transformations may be forests (Figure 2 of the paper shows a
// two-root result), with root i carrying Dewey number [i+1].
type Document struct {
	Roots []*Node
	// nodes lists every vertex in document order.
	nodes []*Node
	// byType maps each type path to its nodes in document order. This is
	// the in-memory analogue of the TypeToSequence table of Section VIII.
	byType map[string][]*Node
	// seqs caches SeqOfType's sequences. Renderers may share one
	// document across goroutines, so it is locked.
	seqMu sync.Mutex
	seqs  map[string]*Seq
}

// Root returns the first root, or nil for an empty document. Parsed XML
// documents always have exactly one root.
func (d *Document) Root() *Node {
	if len(d.Roots) == 0 {
		return nil
	}
	return d.Roots[0]
}

// Nodes returns every vertex in document order. The returned slice is
// shared; callers must not modify it.
func (d *Document) Nodes() []*Node { return d.nodes }

// Size returns the number of vertices (elements and attributes).
func (d *Document) Size() int { return len(d.nodes) }

// Types returns the distinct type paths present in the document, sorted.
func (d *Document) Types() []string {
	ts := make([]string, 0, len(d.byType))
	for t := range d.byType {
		ts = append(ts, t)
	}
	sort.Strings(ts)
	return ts
}

// NodesOfType returns the document-order sequence of nodes with the exact
// type path t. The returned slice is shared; callers must not modify it.
func (d *Document) NodesOfType(t string) []*Node { return d.byType[t] }

// SeqOfType returns the sequence of NodesOfType(t), its keys encoded on
// first use and cached.
func (d *Document) SeqOfType(t string) *Seq {
	d.seqMu.Lock()
	defer d.seqMu.Unlock()
	s, ok := d.seqs[t]
	if !ok {
		seq := NodeSeq(d.byType[t], nil)
		s = &seq
		if d.seqs == nil {
			d.seqs = map[string]*Seq{}
		}
		d.seqs[t] = s
	}
	return s
}

// HasType reports whether any vertex has type path t.
func (d *Document) HasType(t string) bool { return len(d.byType[t]) > 0 }

// TypeDistance returns the minimal tree distance between vertices of the
// two rooted type paths (Section IV's typeDistance). Because every node of
// a rooted type lies on the same label path, the minimum is achieved at the
// deepest shared label prefix:
//
//	typeDistance(t1, t2) = (|t1| - lcp) + (|t2| - lcp)
//
// where lcp is the length of the longest common prefix of the two paths.
// It does not depend on the instance, only on the type paths themselves.
func TypeDistance(t1, t2 string) int {
	p1 := strings.Split(t1, TypeSep)
	p2 := strings.Split(t2, TypeSep)
	n := len(p1)
	if len(p2) < n {
		n = len(p2)
	}
	lcp := 0
	for lcp < n && p1[lcp] == p2[lcp] {
		lcp++
	}
	return (len(p1) - lcp) + (len(p2) - lcp)
}

// TypeDepth returns the number of path components in a rooted type path.
func TypeDepth(t string) int {
	if t == "" {
		return 0
	}
	return strings.Count(t, TypeSep) + 1
}

// TypeLocalName returns the last component of a rooted type path, without
// any attribute marker.
func TypeLocalName(t string) string {
	if i := strings.LastIndex(t, TypeSep); i >= 0 {
		t = t[i+1:]
	}
	return strings.TrimPrefix(t, "@")
}

// TypeParent returns the type path of t's parent type ("" for a root type).
func TypeParent(t string) string {
	if i := strings.LastIndex(t, TypeSep); i >= 0 {
		return t[:i]
	}
	return ""
}

// index rebuilds the document-order and per-type indexes from the tree.
// Parse and Build call it; it is exposed to the package only.
func (d *Document) index() {
	d.nodes = d.nodes[:0]
	d.byType = make(map[string][]*Node)
	d.seqs = nil
	ord := 0
	for _, r := range d.Roots {
		r.Walk(func(n *Node) bool {
			n.Ord = ord
			ord++
			d.nodes = append(d.nodes, n)
			d.byType[n.Type] = append(d.byType[n.Type], n)
			return true
		})
	}
}
