package render

import (
	"io"

	"xmorph/internal/plan"
	"xmorph/internal/xmltree"
)

// Vertex is a source vertex in flight through the walk. Dewey is its
// Dewey key (xmltree.AppendKey), Value its text; both alias the source's
// sequence, the scan's buffers or page images. A vertex of a
// materialized document also has its Node, which carries the text
// instead of Value. The join-backed partners set Ord, the vertex's place
// in its type's sequence; the scan-backed ones do not read it.
type Vertex struct {
	Node  *xmltree.Node
	Dewey []byte
	Value []byte
	Ord   int
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
	// top is the occurrence whose kids' emissions the walk stops between
	// once out has failed: nil, the roots, for a whole walk.
	top *plan.Node
}

// emit walks the whole tree. Roots are children of no vertex.
func emit(t *plan.Tree, src Partners, out sink) {
	w := &walker{src: src, out: out}
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
			if x.Parent == w.top && w.out.Err() != nil {
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

// treeSink builds the output tree. A vertex with a Node gives the output
// node its Src; a scan-backed one gives only its text.
type treeSink struct {
	b *xmltree.Builder
}

func (s *treeSink) Open(x *plan.Node, v *Vertex) {
	s.b.Elem(x.TN.Name)
	s.mark(v)
	if v != nil {
		s.b.Text(v.text())
	}
}

func (s *treeSink) Attr(x *plan.Node, v *Vertex) {
	s.b.Attr(x.TN.Name, v.text())
	s.mark(v)
}

// text is v's value, copied out of the scan's buffer when v is scan-backed.
func (v *Vertex) text() string {
	if v.Node != nil {
		return v.Node.Value
	}
	return string(v.Value)
}

// bytes is v's value as bytes to read, copying nothing: the node's own
// string or the scan's buffer.
func (v *Vertex) bytes() []byte {
	if v.Node != nil {
		return xmltree.Borrow(v.Node.Value)
	}
	return v.Value
}

func (s *treeSink) mark(v *Vertex) {
	if v != nil {
		s.b.Last().Src = v.Node
	}
}

func (s *treeSink) Close()     { s.b.End() }
func (s *treeSink) Err() error { return nil }

// byteSink writes the output as XML, in the serializer's layout
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

func (s *byteSink) Attr(x *plan.Node, v *Vertex) { s.enc.Attr(x.TN.Name, v.bytes()) }

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
	s.enc.Text(v.bytes())
}

func (s *byteSink) Err() error { return s.enc.Err() }

// EmitXML walks the tree with partners from src and writes the output to
// w as XML — byte for byte what serializing the rendered tree with
// WriteXML(w, indent) would write, without building it. It returns the
// number of elements and attributes written and the bytes that reached
// w; a write error, including one only the final flush surfaces, comes
// back with the counts reached.
func EmitXML(t *plan.Tree, src Partners, w io.Writer, indent bool) (nodes int, bytes int64, err error) {
	enc := xmltree.NewEncoder(w, indent)
	emit(t, src, &byteSink{enc: enc})
	err = enc.Flush()
	return enc.Nodes(), enc.Written(), err
}

// Emitter is the walk with the XML sink, driven one occurrence at a time
// instead of over a whole tree, so that the emissions of one element's
// kids can be rendered on other goroutines, each through an Emitter of
// its own over its own partners and an xmltree.NewEncoderAt encoder, and
// their bytes spliced back in document order (internal/stream does).
type Emitter struct {
	w    walker
	sink byteSink
}

// NewEmitter returns an Emitter writing through enc with partners from
// src.
func NewEmitter(src Partners, enc *xmltree.Encoder) *Emitter {
	e := &Emitter{sink: byteSink{enc: enc}}
	e.w = walker{src: src, out: &e.sink}
	return e
}

// Open starts the element of occurrence x rendering vertex v, as the walk
// does before x's kids; its text waits for Text, a kid, or Close.
func (e *Emitter) Open(x *plan.Node, v *Vertex) { e.sink.Open(x, v) }

// Kids renders every emission of occurrence x below a parent whose kids
// join from v, stopping between them once the encoder has failed.
func (e *Emitter) Kids(x *plan.Node, v *Vertex) {
	e.w.top = x.Parent
	e.w.children(x, v)
}

// Text writes the open element's text, if it has any, after its
// attributes: only child elements may follow it.
func (e *Emitter) Text() {
	if e.sink.text != nil {
		e.sink.flush()
	}
}

// Close ends the element Open started.
func (e *Emitter) Close() { e.sink.Close() }

// EmitTree walks the tree with partners from src into b: each root tree
// of the output becomes a child of the element b has open, or a root of
// b's forest when none is. Nodes rendered from a materialized vertex get
// their Src.
func EmitTree(t *plan.Tree, src Partners, b *xmltree.Builder) {
	emit(t, src, &treeSink{b: b})
}

// EmitBindings walks the tree with partners from src, handing each
// emission of an occurrence marked in bind (by ID; none below another) to
// each as the walk closes it: a subtree without Dewey, Type or Src, whose
// nodes are recycled once each returns. It returns the elements and
// attributes emitted and each's first error, which ends the walk at the
// end of that root tree.
func EmitBindings(t *plan.Tree, src Partners, bind []bool, each func(*xmltree.Node) error) (int, error) {
	s := &bindSink{bind: bind, each: each, attrs: make([]string, len(t.Nodes))}
	emit(t, src, s)
	return s.nodes, s.err
}

// bindSink counts events, and builds a binding's subtree from its pool.
type bindSink struct {
	bind        []bool
	each        func(*xmltree.Node) error
	attrs       []string // attribute node names by occurrence, made once
	nodes, used int
	open, pool  []*xmltree.Node
	err         error
}

func (s *bindSink) Open(x *plan.Node, v *Vertex) {
	s.nodes++
	if len(s.open) > 0 || s.bind[x.ID] {
		s.open = append(s.open, s.node(x.TN.Name, false, v))
	}
}

func (s *bindSink) Attr(x *plan.Node, v *Vertex) {
	s.nodes++
	if len(s.open) > 0 {
		if s.attrs[x.ID] == "" {
			s.attrs[x.ID] = "@" + x.TN.Name
		}
		s.node(s.attrs[x.ID], true, v)
	}
}

// node takes a node from the pool, below the innermost open element.
func (s *bindSink) node(name string, attr bool, v *Vertex) *xmltree.Node {
	if s.used == len(s.pool) {
		s.pool = append(s.pool, &xmltree.Node{})
	}
	n := s.pool[s.used]
	s.used++
	*n = xmltree.Node{Name: name, Attr: attr, Children: n.Children[:0]}
	if v != nil {
		n.Value = v.text()
	}
	if k := len(s.open); k > 0 {
		n.Parent = s.open[k-1]
		n.Parent.Children = append(n.Parent.Children, n)
	}
	return n
}

func (s *bindSink) Close() {
	if len(s.open) == 0 {
		return
	}
	if s.open = s.open[:len(s.open)-1]; len(s.open) == 0 {
		if s.err == nil {
			s.err = s.each(s.pool[0])
		}
		s.used = 0
	}
}

func (s *bindSink) Err() error { return s.err }
