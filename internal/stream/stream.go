// Package stream is the one-pass streaming executor for streamable
// guards (see internal/plan): the renderer's walk (internal/render) with
// closest partners supplied by Dewey-ordered node scans instead of
// joins, and output written straight to a writer. It holds only a
// bounded set of forward cursors — one per down- or up-axis join — and
// never materializes type sequences, closest.Grouped join graphs, or a
// result tree, so peak memory is independent of document size and the
// first output byte leaves before the first type sequence has been fully
// read.
//
// The invariant that makes one pass suffice: every rendered node's
// parent instances arrive in document order with pairwise-disjoint
// subtrees (they share one type, hence one depth), so each join
// cursor's probe positions only ever move forward — down-axis partner
// runs are consumed in order, and up-axis ancestor lookups advance to
// a non-decreasing Dewey prefix. RESTRICT probes park on their witness
// so a repeated probe of the same vertex re-answers consistently
// without rereading.
//
// The byte output equals Render(...).XML(false) for every target the
// planner marks streamable: the walk and the XML encoder are the
// renderer's own, and the golden corpus in testdata checks that the
// scans find the partners the joins find.
package stream

import (
	"errors"
	"fmt"
	"io"

	"xmorph/internal/obs"
	"xmorph/internal/plan"
	"xmorph/internal/render"
	"xmorph/internal/semantics"
	"xmorph/internal/store"
	"xmorph/internal/xmltree"
)

// ErrNotStreamable reports an Execute call on a target the planner
// classified store-backed; callers should fall back to render.Stream.
var ErrNotStreamable = errors.New("stream: target is not streamable")

// Cursor is a forward-only scan over one type's node sequence in Dewey
// order. Dewey and Value may alias buffers reused across Next calls.
type Cursor interface {
	Next() bool
	Dewey() xmltree.Dewey
	Value() []byte
	Err() error
	Close()
}

// Source opens Dewey-ordered scans of type sequences. Scans of types
// the source does not hold must yield an empty cursor.
type Source interface {
	ScanType(t string) Cursor
}

// FromDoc adapts a shredded store document to a streaming Source: each
// scan decodes nodes straight from the kvstore iterator.
func FromDoc(d *store.Doc) Source { return docSource{d} }

type docSource struct{ d *store.Doc }

func (s docSource) ScanType(t string) Cursor { return s.d.ScanType(t) }

// NodeSource supplies materialized type sequences (render.Source's
// shape); FromNodes adapts it for tests and in-memory documents.
type NodeSource interface {
	NodesOfType(t string) []*xmltree.Node
}

// FromNodes adapts a materialized source (e.g. *xmltree.Document) to a
// streaming Source. Values are copied into a per-cursor reused buffer
// to honor the Cursor aliasing contract.
func FromNodes(doc NodeSource) Source { return nodeSource{doc} }

type nodeSource struct{ doc NodeSource }

func (s nodeSource) ScanType(t string) Cursor {
	return &nodeCursor{nodes: s.doc.NodesOfType(t), idx: -1}
}

type nodeCursor struct {
	nodes []*xmltree.Node
	idx   int
	val   []byte
}

func (c *nodeCursor) Next() bool {
	c.idx++
	if c.idx >= len(c.nodes) {
		return false
	}
	c.val = append(c.val[:0], c.nodes[c.idx].Value...)
	return true
}
func (c *nodeCursor) Dewey() xmltree.Dewey { return c.nodes[c.idx].Dewey }
func (c *nodeCursor) Value() []byte        { return c.val }
func (c *nodeCursor) Err() error           { return nil }
func (c *nodeCursor) Close()               {}

// Execute streams the composed target from src to w in one pass,
// returning the number of elements and attributes written. It fails
// with ErrNotStreamable when the planner rejects the target. When sp is
// non-nil it records nodes, bytes, and cursor count; a nil span is
// free. Write and storage errors — including the final buffered flush —
// are surfaced on the returned error.
func Execute(src Source, tgt *semantics.Target, w io.Writer, sp *obs.Span) (int, error) {
	t := plan.Build(tgt)
	if d := t.Decision(); !d.Streamable {
		return 0, fmt.Errorf("%w: %s", ErrNotStreamable, d.Reason)
	}
	s := openScans(src, t)
	defer s.close()
	n, bytes, err := render.EmitXML(t, s, w)
	if err == nil {
		err = s.err()
	}
	if sp != nil {
		sp.Set("nodes-out", int64(n))
		sp.Set("bytes-out", bytes)
		sp.Set("scans", int64(s.opened))
	}
	return n, err
}

// scans is the scan-backed render.Partners: per occurrence, one forward
// cursor over the occurrence's type sequence (none on the self axis,
// where the partner is the vertex joined from).
type scans struct {
	occ    []scan // indexed by plan.Node.ID
	opened int
}

// scan is one occurrence's cursor and enumeration state.
type scan struct {
	c     Cursor
	valid bool // c is positioned on a node, which at mirrors
	at    render.Vertex
	// from is the vertex of the enumeration in progress; taken records
	// that the cursor's current node (on the self axis, from itself) was
	// handed out, so a down-axis Next steps past it before looking again.
	// An abandoned enumeration therefore leaves the cursor parked on the
	// partner last returned.
	from  *render.Vertex
	taken bool
}

func (sc *scan) advance() {
	if sc.valid = sc.c.Next(); sc.valid {
		sc.at.Dewey, sc.at.Value = sc.c.Dewey(), sc.c.Value()
	}
}

// openScans opens (and primes) a cursor for every join that needs its
// own scan.
func openScans(src Source, t *plan.Tree) *scans {
	s := &scans{occ: make([]scan, len(t.Nodes))}
	for _, x := range t.Nodes {
		if x.Sourced && x.Axis != plan.AxisSelf {
			sc := &s.occ[x.ID]
			sc.c = src.ScanType(x.TN.Source)
			sc.advance()
			s.opened++
		}
	}
	return s
}

func (s *scans) close() {
	for i := range s.occ {
		if c := s.occ[i].c; c != nil {
			c.Close()
		}
	}
}

func (s *scans) err() error {
	for i := range s.occ {
		if c := s.occ[i].c; c != nil && c.Err() != nil {
			return fmt.Errorf("stream: scan: %w", c.Err())
		}
	}
	return nil
}

// Seek moves x's cursor up to v's partners. It only ever moves forward:
// the vertices an occurrence is sought for arrive in document order with
// disjoint subtrees, so down-axis runs are consumed in order and the
// up-axis ancestor never precedes the previous one.
func (s *scans) Seek(x *plan.Node, v *render.Vertex) *render.Vertex {
	sc := &s.occ[x.ID]
	sc.from, sc.taken = v, false
	switch x.Axis {
	case plan.AxisDown:
		for sc.valid && cmpPrefix(sc.at.Dewey, v.Dewey) < 0 {
			sc.advance()
		}
	case plan.AxisUp:
		for sc.valid && cmpPrefix(v.Dewey, sc.at.Dewey) > 0 {
			sc.advance()
		}
	}
	return s.Next(x)
}

func (s *scans) Next(x *plan.Node) *render.Vertex {
	sc := &s.occ[x.ID]
	switch x.Axis {
	case plan.AxisSelf:
		if sc.taken {
			return nil
		}
		sc.taken = true
		return sc.from
	case plan.AxisDown:
		// Partners are the run of the sequence inside from's subtree.
		if sc.taken {
			sc.advance()
		}
		sc.taken = sc.valid && cmpPrefix(sc.at.Dewey, sc.from.Dewey) == 0
	case plan.AxisUp:
		// The unique partner is the ancestor at the type's depth: the
		// vertex whose Dewey number prefixes from's. The cursor stays on
		// it for from's siblings.
		sc.taken = !sc.taken && sc.valid && cmpPrefix(sc.from.Dewey, sc.at.Dewey) == 0
	}
	if !sc.taken {
		return nil
	}
	return &sc.at
}

// cmpPrefix compares d's first len(p) components against p: the result
// orders d's position relative to p's subtree (-1 before, 0 inside or
// at p, +1 past). d must be at least as deep as p.
func cmpPrefix(d, p xmltree.Dewey) int {
	for i, pc := range p {
		if dc := d[i]; dc != pc {
			if dc < pc {
				return -1
			}
			return 1
		}
	}
	return 0
}
