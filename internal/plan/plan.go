// Package plan lays a compiled guard out for execution and classifies it
// for execution strategy. Build turns a composed target into the
// per-occurrence execution tree every output path walks (internal/render
// holds the walk); Classify reads that tree's join axes: a target is
// either streamable — renderable in one Dewey-ordered pass over the
// source type sequences with constant memory — or store-backed, needing
// materialized sort-merge closest joins.
//
// The classification rests on the axis of every closest join the target
// asks for. For a join from parent source type J to node source type S
// (both rooted type paths), TypeLCP(J, S) makes the closest partners of
// a J-vertex v one of four shapes:
//
//   - self (J == S): the single partner is v itself.
//   - down (J a proper path prefix of S): partners are exactly the
//     S-vertices inside v's subtree — a contiguous run of the S
//     sequence, consumable by a forward cursor because consecutive
//     parents of one type have disjoint, document-ordered subtrees.
//   - up (S a proper path prefix of J): the single partner is v's
//     ancestor at depth |S|, i.e. the S-vertex whose Dewey number is
//     v's prefix — an ancestor-stack lookup, no join at all. Rooted
//     type paths guarantee it exists.
//   - cross (neither prefixes the other): partners share a Dewey prefix
//     shorter than both types' depths; enumerating them needs the
//     sort-merge over both whole sequences, and a group of a parents ×
//     t partners re-reads the same partners per parent — not possible
//     in one pass with constant memory.
//
// A target streams iff every rendered join is self/down (or up into a
// leaf), and every RESTRICT requirement chain avoids cross joins.
// Requirement probes are existence checks, so up-axis requirements may
// recurse: their cursors park on the found witness and re-answer
// consistently for repeated probes of the same ancestor.
package plan

import (
	"fmt"
	"strings"

	"xmorph/internal/semantics"
	"xmorph/internal/xmltree"
)

// Axis is the shape of one closest join, derived from the two rooted
// type paths.
type Axis uint8

const (
	// AxisSelf joins a type to itself: the partner is the vertex itself.
	AxisSelf Axis = iota
	// AxisDown joins to a descendant type: partners are the contiguous
	// subtree run of the child sequence.
	AxisDown
	// AxisUp joins to an ancestor type: the partner is the unique
	// ancestor whose Dewey number prefixes the vertex's.
	AxisUp
	// AxisCross joins sibling branches: needs the sort-merge join.
	AxisCross
)

func (a Axis) String() string {
	switch a {
	case AxisSelf:
		return "self"
	case AxisDown:
		return "down"
	case AxisUp:
		return "up"
	default:
		return "cross"
	}
}

// AxisOf classifies the closest join from parent source type join to
// node source type src. An empty join is the root scan: every vertex of
// src is a partner, which behaves like a down-axis run over the whole
// sequence.
func AxisOf(join, src string) Axis {
	if join == src {
		return AxisSelf
	}
	if isPathPrefix(join, src) {
		return AxisDown
	}
	if isPathPrefix(src, join) {
		return AxisUp
	}
	return AxisCross
}

// isPathPrefix reports whether p is a proper component-wise prefix of c.
// The empty path prefixes everything (the root scan).
func isPathPrefix(p, c string) bool {
	if p == "" {
		return c != ""
	}
	return len(c) > len(p) && strings.HasPrefix(c, p) && c[len(p)] == xmltree.TypeSep[0]
}

// Decision is the streamability verdict for one compiled target.
type Decision struct {
	// Streamable reports the target renders in one Dewey-ordered pass.
	Streamable bool
	// Reason names the first blocking join when not streamable.
	Reason string
	// Scans counts the forward cursors a streaming run opens (one per
	// down- or up-axis join, including requirement probes).
	Scans int
}

// String renders the verdict for explain output.
func (d Decision) String() string {
	if d.Streamable {
		return fmt.Sprintf("streamable (%d scans)", d.Scans)
	}
	return "store-backed: " + d.Reason
}

// Node is one occurrence of a target node in the execution tree. The
// tree mirrors the target with one Node per occurrence, not per TNode: a
// TNode shared between two points of the target (label resolution and
// CLONE reuse subtrees) joins along a different axis in each, so each
// occurrence carries its own join and its own executor state.
type Node struct {
	TN *semantics.TNode
	// Parent is the occurrence this one renders under (for a requirement
	// probe, the occurrence it constrains); nil at a root.
	Parent *Node
	// ID indexes per-occurrence executor state (scan cursors, partner
	// runs). IDs are dense over Tree.Nodes.
	ID int
	// Join is the source type whose vertices this occurrence's partners
	// are closest to ("" at a root: every vertex of the type), and Axis
	// the shape of that join. Both are unset on manufactured nodes.
	Join string
	Axis Axis
	// Sourced reports that the occurrence is populated from a source type
	// (TN.Source), as opposed to manufactured by NEW / TYPE-FILL. Like
	// Anchor below it restates what the pointers already say, as a flag
	// the walk can test once per emission without chasing them.
	Sourced bool
	// Attr marks a childless occurrence of an attribute type below a
	// parent: it renders as an attribute of the parent's element. With
	// no parent there is no element to carry it, so a root renders as an
	// element whatever its type.
	Attr bool
	// First is a manufactured node's anchor: its first sourced child. The
	// node materializes once per partner of First, each instance holding
	// that partner's emission, and the other kids join from that partner.
	// First is nil on sourced nodes and on static fill (a manufactured
	// node with no sourced child, rendered once, manufactured kids only).
	// Anchor marks the node that is its parent's First.
	First  *Node
	Anchor bool
	// Kids are the rendered children in emission order: the
	// attribute-rendering kids come first, then the rest in target order,
	// the anchor (a member of Kids) ahead of its siblings.
	Kids []*Node
	// Reqs are the RESTRICT requirement probes: a candidate vertex is
	// rendered only if each has a closest partner satisfying its own Reqs.
	// A probe whose TNode has no source is vacuous.
	Reqs []*Node
}

// Tree is the execution tree of one composed target.
type Tree struct {
	Roots []*Node
	// Nodes lists every occurrence, requirement probes included, indexed
	// by ID.
	Nodes []*Node
}

// Build lays out the execution tree of a composed target. Every rule
// about what renders where lives here, once: the walk that executes the
// tree and the classifier below both only follow it.
func Build(tgt *semantics.Target) *Tree {
	t := &Tree{}
	for _, root := range tgt.Roots {
		t.Roots = append(t.Roots, t.node(root, nil, ""))
	}
	return t
}

func (t *Tree) add(tn *semantics.TNode, parent *Node, join string) *Node {
	x := &Node{TN: tn, Parent: parent, ID: len(t.Nodes), Join: join, Sourced: tn.Source != ""}
	t.Nodes = append(t.Nodes, x)
	return x
}

// node builds the occurrence of tn below parent, joined from source type
// join.
func (t *Tree) node(tn *semantics.TNode, parent *Node, join string) *Node {
	if tn.Source == "" {
		return t.wrapper(tn, parent, join)
	}
	x := t.add(tn, parent, join)
	x.Axis = AxisOf(join, tn.Source)
	x.Attr = parent != nil && len(tn.Kids) == 0 && isAttrType(tn.Source)
	for _, req := range tn.Require {
		x.Reqs = append(x.Reqs, t.require(req, x, tn.Source))
	}
	for _, kid := range tn.Kids {
		x.Kids = append(x.Kids, t.node(kid, x, tn.Source))
	}
	x.attrsFirst()
	return x
}

// wrapper builds a manufactured occurrence. Requirements on manufactured
// nodes are never checked, so none are built.
func (t *Tree) wrapper(tn *semantics.TNode, parent *Node, join string) *Node {
	first := firstSourced(tn)
	if first == nil {
		return t.fill(tn, parent)
	}
	x := t.add(tn, parent, "")
	x.First = t.node(first, x, join)
	x.First.Anchor = true
	x.Kids = append(x.Kids, x.First)
	for _, kid := range tn.Kids {
		if kid != first {
			x.Kids = append(x.Kids, t.node(kid, x, first.Source))
		}
	}
	x.attrsFirst()
	return x
}

// fill builds a static manufactured subtree: below a wrapper with no
// sourced child only manufactured kids render, however deep.
func (t *Tree) fill(tn *semantics.TNode, parent *Node) *Node {
	x := t.add(tn, parent, "")
	for _, kid := range tn.Kids {
		if kid.Source == "" {
			x.Kids = append(x.Kids, t.fill(kid, x))
		}
	}
	return x
}

func (t *Tree) require(req *semantics.TNode, parent *Node, join string) *Node {
	x := t.add(req, parent, join)
	if req.Source == "" {
		return x
	}
	x.Axis = AxisOf(join, req.Source)
	for _, kid := range req.Kids {
		x.Reqs = append(x.Reqs, t.require(kid, x, req.Source))
	}
	return x
}

// attrsFirst moves the attribute-rendering kids ahead of the others,
// keeping each group's order: attributes belong in the start tag, which
// a one-pass writer has finished by the time the first child arrives.
func (x *Node) attrsFirst() {
	attrs := 0
	for i, k := range x.Kids {
		if k.Attr {
			copy(x.Kids[attrs+1:i+1], x.Kids[attrs:i])
			x.Kids[attrs] = k
			attrs++
		}
	}
}

// isAttrType reports whether a rooted type path names an attribute type.
func isAttrType(t string) bool {
	return strings.HasPrefix(t[strings.LastIndex(t, xmltree.TypeSep)+1:], "@")
}

func firstSourced(tn *semantics.TNode) *semantics.TNode {
	for _, k := range tn.Kids {
		if k.Source != "" {
			return k
		}
	}
	return nil
}

// Classify derives the streamability verdict of a composed target.
func Classify(tgt *semantics.Target) Decision { return Build(tgt).Decision() }

// Decision derives the tree's streamability verdict from its join axes:
//
//   - A sourced rendered node must join self or down from its parent's
//     source, or up as a childless leaf (rendering an ancestor's
//     children would re-emit one subtree under many parents).
//   - A manufactured node's anchor must join self or down; static fill
//     always streams.
//   - RESTRICT requirements recurse over self/down/up joins (existence
//     probes only).
//   - Any cross-axis join anywhere makes the target store-backed.
func (t *Tree) Decision() Decision {
	c := &classifier{}
	for _, root := range t.Roots {
		c.node(root)
	}
	return Decision{Streamable: c.reason == "", Reason: c.reason, Scans: c.scans}
}

type classifier struct {
	scans  int
	reason string
}

func (c *classifier) fail(format string, args ...any) {
	if c.reason == "" {
		c.reason = fmt.Sprintf(format, args...)
	}
}

func (c *classifier) node(x *Node) {
	switch {
	case !x.Sourced:
		if f := x.First; f != nil && f.Axis != AxisSelf && f.Axis != AxisDown {
			c.fail("wrapper %q anchors on %s joined %s-axis from %s; streaming needs a self or descendant anchor", x.TN.Name, f.TN.Source, f.Axis, f.Join)
			return
		}
	case x.Axis == AxisDown:
		c.scans++
	case x.Axis == AxisUp:
		c.scans++
		if len(x.Kids) > 0 {
			c.fail("ancestor-axis type %q <- %s cannot stream children: the ancestor's subtree spans many %s parents", x.TN.Name, x.TN.Source, x.Join)
			return
		}
	case x.Axis == AxisCross:
		c.fail("cross-axis closest join %s -> %s needs a sort-merge over both sequences", x.Join, x.TN.Source)
		return
	}
	for _, req := range x.Reqs {
		c.require(req)
	}
	for _, kid := range x.Kids {
		c.node(kid)
	}
}

func (c *classifier) require(req *Node) {
	if !req.Sourced {
		return
	}
	switch req.Axis {
	case AxisDown, AxisUp:
		c.scans++
	case AxisCross:
		c.fail("cross-axis RESTRICT probe %s -> %s needs a sort-merge over both sequences", req.Join, req.TN.Source)
		return
	}
	for _, kid := range req.Reqs {
		c.require(kid)
	}
}
