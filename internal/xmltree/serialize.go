package xmltree

import (
	"io"
	"strings"
)

// WriteXML serializes the document as XML to w. If indent is true the
// output is pretty-printed with two-space indentation; otherwise it is
// compact. Attribute nodes become XML attributes on their parent element.
// Forests serialize as a sequence of sibling trees (an XML fragment).
func (d *Document) WriteXML(w io.Writer, indent bool) error {
	e := NewEncoder(w, indent)
	for _, r := range d.Roots {
		r.Replay(e)
	}
	return e.Flush()
}

// XML returns the document serialized as a string.
func (d *Document) XML(indent bool) string {
	var b strings.Builder
	_ = d.WriteXML(&b, indent)
	return b.String()
}

// block is the size at which the encoder hands its bytes to the writer.
const block = 4 << 10

// Encoder writes XML one event at a time and is the single definition of
// the output layout: attributes sit in the start tag, whose ">" is
// deferred until text or a child element follows, so an element with
// neither self-closes; root trees of a forest are separated by "\n".
// It is a Handler: WriteXML replays a tree into it and the streaming
// renderers drive it straight from the emit walk, which is why their
// bytes agree.
//
// Every event appends to the encoder's own block, which goes to the
// writer in one Write once it holds 4 KB (a value longer than that goes
// whole). Character data escapes "&", "<", ">" and "\r"; attribute
// values also escape the double quote, "\n" and "\t", so every value
// reads back unchanged.
//
// Events must arrive in document order with an element's attributes
// before its text and children. Write errors stick: after the first one
// nothing more is written, and Err and Flush report it.
//
// An element's children may be encoded elsewhere — on another goroutine,
// by an encoder NewEncoderAt starts at the element's depth — and their
// bytes handed to Splice, in order: the layout stays this type's.
type Encoder struct {
	w      io.Writer
	b      []byte
	indent bool
	open   []frame
	// pending: the innermost open element's start tag still lacks its
	// ">" — nothing but attributes has followed it.
	pending bool
	rooted  bool // a root tree was started: the next one needs a separator
	nodes   int
	written int64
	err     error
	stack   [16]frame // open's first backing array
}

// frame is one open element.
type frame struct {
	name  string
	elems bool // it has child elements (an indented end tag gets its own line)
}

// NewEncoder returns an encoder writing to w; call Flush when done.
func NewEncoder(w io.Writer, indent bool) *Encoder {
	// Twice a block: the event that fills a block fits without regrowing it.
	e := &Encoder{w: w, b: make([]byte, 0, 2*block), indent: indent}
	e.open = e.stack[:0]
	return e
}

// NewEncoderAt returns an encoder for child elements of an element open
// depth levels deep in another encoder's document: it writes them laid
// out as that encoder would, and its Flush adds no final newline, so its
// bytes are what the other encoder's Splice takes. Only elements may
// start at that depth.
func NewEncoderAt(w io.Writer, indent bool, depth int) *Encoder {
	e := NewEncoder(w, indent)
	for i := 0; i < depth; i++ {
		e.open = append(e.open, frame{elems: true})
	}
	return e
}

// Start opens an element.
func (e *Encoder) Start(name string) {
	e.nodes++
	if depth := len(e.open); depth > 0 {
		e.content()
		e.open[depth-1].elems = true
		if e.indent {
			e.newline(depth)
		}
	} else if e.rooted {
		e.b = append(e.b, '\n')
	}
	e.rooted = true
	e.b = append(append(e.b, '<'), name...)
	e.open = append(e.open, frame{name: name})
	e.pending = true
	e.spill()
}

// Attr adds an attribute to the element just started.
func (e *Encoder) Attr(name string, value []byte) {
	e.nodes++
	e.b = append(append(append(e.b, ' '), name...), `="`...)
	e.b = append(escape(e.b, value, escAttr), '"')
	e.spill()
}

// Text writes the current element's character data; empty text writes
// nothing (and leaves a childless element self-closing).
func (e *Encoder) Text(b []byte) {
	if len(b) > 0 {
		e.content()
		e.b = escape(e.b, b, escText)
		e.spill()
	}
}

// End closes the current element.
func (e *Encoder) End() {
	depth := len(e.open) - 1
	f := e.open[depth]
	e.open = e.open[:depth]
	if e.pending {
		e.pending = false
		e.b = append(e.b, "/>"...)
	} else {
		if f.elems && e.indent {
			e.newline(depth)
		}
		e.b = append(append(append(e.b, "</"...), f.name...), '>')
	}
	e.spill()
}

// Item writes n as an item of a query answer: with no separator before
// it, and an attribute as name="value", escaped as in a start tag.
func (e *Encoder) Item(n *Node) {
	if !n.Attr {
		e.rooted = false
		n.Replay(e)
		return
	}
	e.nodes++
	e.b = append(append(e.b, n.LocalName()...), `="`...)
	e.b = append(escape(e.b, n.Value, escAttr), '"')
	e.spill()
}

// Nodes returns the number of elements and attributes written so far.
func (e *Encoder) Nodes() int { return e.nodes }

// Written returns the number of bytes the writer has accepted so far.
func (e *Encoder) Written() int64 { return e.written }

// Err returns the first write error, if any.
func (e *Encoder) Err() error { return e.err }

// Splice writes p, the bytes of a NewEncoderAt encoder at this encoder's
// depth, as child elements of the current element: it completes the
// element's start tag and marks it as having element children, as a
// Start would. Empty p changes nothing.
func (e *Encoder) Splice(p []byte) {
	if len(p) == 0 {
		return
	}
	e.content()
	e.open[len(e.open)-1].elems = true
	if len(e.b) > 0 {
		e.write()
	}
	e.put(p)
}

// Flush ends the output (an indented document ends in a newline) and
// writes what the block still holds. It returns the first error of the
// whole encoding, including one only the final write surfaces.
func (e *Encoder) Flush() error {
	if e.indent && e.rooted && len(e.open) == 0 {
		e.b = append(e.b, '\n')
	}
	if len(e.b) > 0 {
		e.write()
	}
	return e.err
}

// content closes the current element's pending start tag, once.
func (e *Encoder) content() {
	if e.pending {
		e.pending = false
		e.b = append(e.b, '>')
	}
}

// newline starts an indented line at the given depth.
func (e *Encoder) newline(depth int) {
	e.b = append(e.b, '\n')
	for i := 0; i < depth; i++ {
		e.b = append(e.b, "  "...)
	}
}

// spill writes the block once it is full.
func (e *Encoder) spill() {
	if len(e.b) >= block {
		e.write()
	}
}

// write hands the block to the writer and empties it.
func (e *Encoder) write() {
	e.put(e.b)
	e.b = e.b[:0]
}

// put hands p to the writer unless a write has failed. A short write
// without an error is io.ErrShortWrite.
func (e *Encoder) put(p []byte) {
	if e.err == nil {
		n, err := e.w.Write(p)
		e.written += int64(n)
		if err == nil && n < len(p) {
			err = io.ErrShortWrite
		}
		e.err = err
	}
}

// The contexts a byte is escaped in.
const (
	escText = 1 << iota // character data
	escAttr             // attribute values
)

// escClass gives the contexts each byte is escaped in, and entity its
// replacement.
var (
	escClass = [256]uint8{
		'&': escText | escAttr, '<': escText | escAttr, '>': escText | escAttr, '\r': escText | escAttr,
		'"': escAttr, '\n': escAttr, '\t': escAttr,
	}
	entity = [256]string{
		'&': "&amp;", '<': "&lt;", '>': "&gt;", '\r': "&#xD;",
		'"': "&quot;", '\n': "&#xA;", '\t': "&#x9;",
	}
)

// escape is the one XML escaper: it appends s to b with every byte that
// ctx escapes replaced by its entity, and the runs between them whole.
func escape[S string | []byte](b []byte, s S, ctx uint8) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		if c := s[i]; escClass[c]&ctx != 0 {
			b = append(append(b, s[start:i]...), entity[c]...)
			start = i + 1
		}
	}
	return append(b, s[start:]...)
}
