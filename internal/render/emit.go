package render

import (
	"io"

	"xmorph/internal/plan"
	"xmorph/internal/xmltree"
)

// Vertex is a source vertex in flight through the walk. Sources that hold
// materialized nodes set Node and nothing else; a scan-backed source sets
// Dewey and Value, which alias the scan's buffers.
type Vertex struct {
	Node  *xmltree.Node
	Dewey xmltree.Dewey
	Value []byte
}

// Partners answers the one question the walk asks of the data: which
// vertices of occurrence x's source type are closest to a vertex. The
// walk enumerates one occurrence's partners at a time and never re-enters
// an occurrence while its enumeration is in progress, so implementations
// keep the enumeration state per occurrence (indexed by x.ID).
type Partners interface {
	// Seek starts the enumeration of x's partners closest to v, a vertex
	// of type x.Join, and returns the first in document order; at a root
	// v is the zero Vertex and every vertex of x's type is a partner.
	Seek(x *plan.Node, v *Vertex) *Vertex
	// Next returns x's next partner, nil when there are no more. A
	// returned vertex stays valid until the next Seek or Next for x. When
	// the walk abandons an enumeration early (a RESTRICT probe found its
	// witness), a Seek for the same v must start from that partner again.
	Next(x *plan.Node) *Vertex
}

// sink receives the walk's output in document order: per element Open,
// its attributes, its child elements, Close.
type sink interface {
	// Open starts x's element; v is the vertex it renders, whose text is
	// the element's text (nil when the element is manufactured). v stays
	// valid until the matching Close.
	Open(x *plan.Node, v *Vertex)
	Attr(x *plan.Node, v *Vertex)
	Close()
	// Err reports a failure that makes further output pointless; the walk
	// asks between root trees.
	Err() error
}

// walker is the Render algorithm: descend the execution tree, pair
// closest vertices, emit in document order.
type walker struct {
	src Partners
	out sink
}

// emit walks the whole tree. Roots are children of no vertex.
func emit(t *plan.Tree, src Partners, out sink) {
	w := &walker{src, out}
	var top Vertex
	for _, x := range t.Roots {
		w.children(x, &top)
	}
}

// children renders every emission of x below an element whose kids join
// from v: one per satisfying partner for a sourced x, one instance per
// satisfying partner of the anchor for a manufactured x.
func (w *walker) children(x *plan.Node, v *Vertex) {
	if x.Anchor || (!x.Sourced && x.First == nil) {
		// Nothing to enumerate: inside an instance, v is the very partner
		// of the anchor the instance exists for; static fill renders once.
		w.emission(x, v)
		return
	}
	drive := x
	if !x.Sourced {
		drive = x.First
	}
	for p := w.src.Seek(drive, v); p != nil; p = w.src.Next(drive) {
		if len(drive.Reqs) == 0 || w.satisfies(drive, p) {
			w.emission(x, p)
			if x.Parent == nil && w.out.Err() != nil {
				return
			}
		}
	}
}

// emission renders the one emission of x driven by p. A sourced x
// renders p itself, as an attribute or as an element whose kids join
// from p; a manufactured x renders an element that is not any vertex,
// whose kids join from p (the anchor's partner the instance exists for;
// static fill has no joining kids).
func (w *walker) emission(x *plan.Node, p *Vertex) {
	if x.Attr {
		w.out.Attr(x, p)
		return
	}
	self := p
	if !x.Sourced {
		self = nil
	}
	w.out.Open(x, self)
	for _, k := range x.Kids {
		w.children(k, p)
	}
	w.out.Close()
}

// satisfies checks x's RESTRICT requirements against candidate v: every
// probe needs a closest partner that satisfies the probe's own
// requirements in turn.
func (w *walker) satisfies(x *plan.Node, v *Vertex) bool {
	for _, req := range x.Reqs {
		if req.Sourced && !w.witness(req, v) {
			return false
		}
	}
	return true
}

func (w *walker) witness(req *plan.Node, v *Vertex) bool {
	for p := w.src.Seek(req, v); p != nil; p = w.src.Next(req) {
		if w.satisfies(req, p) {
			return true
		}
	}
	return false
}

// nodePartners adapts a function from (vertex, type) to the type's
// closest nodes — a cached join, a local tree walk — to Partners.
type nodePartners struct {
	of  func(v *xmltree.Node, typ string) []*xmltree.Node
	run []nodeRun
}

// nodeRun is one occurrence's enumeration: the partners still to come and
// the one handed out.
type nodeRun struct {
	rest []*xmltree.Node
	at   Vertex
}

// NodePartners returns the Partners of a source holding materialized
// nodes. of(v, typ) returns the typ-nodes closest to v in document order;
// v is nil for the root enumeration, which wants the whole sequence.
func NodePartners(t *plan.Tree, of func(v *xmltree.Node, typ string) []*xmltree.Node) Partners {
	return &nodePartners{of: of, run: make([]nodeRun, len(t.Nodes))}
}

func (p *nodePartners) Seek(x *plan.Node, v *Vertex) *Vertex {
	p.run[x.ID].rest = p.of(v.Node, x.TN.Source)
	return p.Next(x)
}

func (p *nodePartners) Next(x *plan.Node) *Vertex {
	r := &p.run[x.ID]
	if len(r.rest) == 0 {
		return nil
	}
	r.at.Node, r.rest = r.rest[0], r.rest[1:]
	return &r.at
}

// treeSink builds the output tree. It takes vertices with a Node only.
type treeSink struct {
	b *xmltree.Builder
	// prov, when non-nil, records the occurrence behind each output node.
	prov map[*xmltree.Node]*plan.Node
}

func (s *treeSink) Open(x *plan.Node, v *Vertex) {
	s.b.Elem(x.TN.Name)
	s.mark(x, v)
	if v != nil && v.Node.Value != "" {
		s.b.Text(v.Node.Value)
	}
}

func (s *treeSink) Attr(x *plan.Node, v *Vertex) {
	s.b.Attr(x.TN.Name, v.Node.Value)
	s.mark(x, v)
}

func (s *treeSink) mark(x *plan.Node, v *Vertex) {
	n := s.b.Last()
	if v != nil {
		n.Src = v.Node
	}
	if s.prov != nil {
		s.prov[n] = x
	}
}

func (s *treeSink) Close()     { s.b.End() }
func (s *treeSink) Err() error { return nil }

// byteSink writes the output as compact XML, in the serializer's layout
// because it is the serializer's encoder. An element's text follows its
// attributes in the bytes but precedes them in the walk, so Open holds
// the text back until the next element event; only the innermost open
// element can be waiting.
type byteSink struct {
	enc  *xmltree.Encoder
	text *Vertex
}

func (s *byteSink) Open(x *plan.Node, v *Vertex) {
	if s.text != nil {
		s.flush()
	}
	s.enc.Start(x.TN.Name)
	s.text = v
}

func (s *byteSink) Attr(x *plan.Node, v *Vertex) {
	if v.Node != nil {
		s.enc.Attr(x.TN.Name, v.Node.Value)
	} else {
		s.enc.AttrBytes(x.TN.Name, v.Value)
	}
}

func (s *byteSink) Close() {
	if s.text != nil {
		s.flush()
	}
	s.enc.End()
}

// flush writes the held-back text.
func (s *byteSink) flush() {
	v := s.text
	s.text = nil
	if v.Node != nil {
		s.enc.Text(v.Node.Value)
	} else {
		s.enc.TextBytes(v.Value)
	}
}

func (s *byteSink) Err() error { return s.enc.Err() }

// EmitXML walks the tree with partners from src and writes the output to
// w as compact XML — byte for byte what serializing the rendered tree
// with WriteXML(w, false) would write, without building it. It returns
// the number of elements and attributes written and the bytes that
// reached w; a write error, including one only the final flush surfaces,
// comes back with the counts reached.
func EmitXML(t *plan.Tree, src Partners, w io.Writer) (nodes int, bytes int64, err error) {
	cw := &countingWriter{w: w}
	enc := xmltree.NewEncoder(cw, false)
	emit(t, src, &byteSink{enc: enc})
	err = enc.Flush()
	return enc.Nodes(), cw.n, err
}

// countingWriter counts bytes on their way to the destination (placed
// under the encoder's buffer, so it sees flushed output only).
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Unit renders the single emission of occurrence x driven by source
// vertex n as a detached subtree — what a full render would have put in
// the output for that pair — recording provenance in prov. The view
// layer splices units into a materialized output.
func Unit(x *plan.Node, n *xmltree.Node, src Partners, prov map[*xmltree.Node]*plan.Node) *xmltree.Node {
	out := &treeSink{b: xmltree.NewBuilder(), prov: prov}
	// A host element keeps the builder open, as it is wherever x has a
	// parent: an attribute unit needs an element to attach to.
	out.b.Elem(x.TN.Name)
	host := out.b.Last()
	(&walker{src, out}).emission(x, &Vertex{Node: n})
	unit := host.Children[0]
	unit.Parent = nil
	return unit
}
