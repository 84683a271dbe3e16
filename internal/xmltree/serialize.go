package xmltree

import (
	"bufio"
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

// Encoder writes XML one event at a time and is the single definition of
// the output layout: attributes sit in the start tag, whose ">" is
// deferred until text or a child element follows, so an element with
// neither self-closes; root trees of a forest are separated by "\n".
// It is a Handler: WriteXML replays a tree into it and the streaming
// renderers drive it straight from the emit walk, which is why their
// bytes agree.
//
// Events must arrive in document order with an element's attributes
// before its text and children. Write errors stick: after the first one
// every event is a no-op, and Err and Flush report it.
type Encoder struct {
	w      *bufio.Writer
	indent bool
	open   []frame
	// pending: the innermost open element's start tag still lacks its
	// ">" — nothing but attributes has followed it.
	pending bool
	rooted  bool // a root tree was started: the next one needs a separator
	nodes   int
	buf     []byte // string values pass through it to reach the one escaper
	err     error
}

// frame is one open element.
type frame struct {
	name  string
	elems bool // it has child elements (an indented end tag gets its own line)
}

// NewEncoder returns an encoder writing to w through its own buffer;
// call Flush when done.
func NewEncoder(w io.Writer, indent bool) *Encoder {
	return &Encoder{w: bufio.NewWriter(w), indent: indent, open: make([]frame, 0, 16)}
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
		e.ch('\n')
	}
	e.rooted = true
	e.ch('<')
	e.str(name)
	e.open = append(e.open, frame{name: name})
	e.pending = true
}

// Attr adds an attribute to the element just started.
func (e *Encoder) Attr(name, value string) {
	e.attrName(name)
	e.escapeString(value, true)
	e.ch('"')
}

// AttrBytes is Attr for a value held as bytes.
func (e *Encoder) AttrBytes(name string, value []byte) {
	e.attrName(name)
	e.escape(value, true)
	e.ch('"')
}

func (e *Encoder) attrName(name string) {
	e.nodes++
	e.ch(' ')
	e.str(name)
	e.str(`="`)
}

// Text writes the current element's character data; empty text writes
// nothing (and leaves a childless element self-closing).
func (e *Encoder) Text(s string) {
	if s != "" {
		e.content()
		e.escapeString(s, false)
	}
}

// TextBytes is Text for character data held as bytes.
func (e *Encoder) TextBytes(b []byte) {
	if len(b) > 0 {
		e.content()
		e.escape(b, false)
	}
}

// End closes the current element.
func (e *Encoder) End() {
	depth := len(e.open) - 1
	f := e.open[depth]
	e.open = e.open[:depth]
	if e.pending {
		e.pending = false
		e.str("/>")
		return
	}
	if f.elems && e.indent {
		e.newline(depth)
	}
	e.str("</")
	e.str(f.name)
	e.ch('>')
}

// Nodes returns the number of elements and attributes written so far.
func (e *Encoder) Nodes() int { return e.nodes }

// Err returns the first write error, if any.
func (e *Encoder) Err() error { return e.err }

// Flush ends the output (an indented document ends in a newline) and
// drains the buffer. It returns the first error of the whole encoding,
// including one only the final flush surfaces.
func (e *Encoder) Flush() error {
	if e.indent && e.rooted {
		e.ch('\n')
	}
	if err := e.w.Flush(); e.err == nil {
		e.err = err
	}
	return e.err
}

// content closes the current element's pending start tag, once.
func (e *Encoder) content() {
	if e.pending {
		e.pending = false
		e.ch('>')
	}
}

// newline starts an indented line at the given depth.
func (e *Encoder) newline(depth int) {
	e.ch('\n')
	for i := 0; i < depth; i++ {
		e.str("  ")
	}
}

func (e *Encoder) ch(c byte) {
	if e.err == nil {
		e.err = e.w.WriteByte(c)
	}
}

func (e *Encoder) str(s string) {
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

func (e *Encoder) escapeString(s string, inAttr bool) {
	if !strings.ContainsAny(s, `&<>"`) {
		e.str(s)
		return
	}
	e.buf = append(e.buf[:0], s...)
	e.escape(e.buf, inAttr)
}

// escape is the one XML escaper: character data escapes "&", "<" and
// ">"; attribute values also escape the double quote.
func (e *Encoder) escape(b []byte, inAttr bool) {
	start := 0
	for i, c := range b {
		if c > '>' {
			continue // letters and most text: every escaped byte sorts at or below '>'
		}
		var rep string
		switch c {
		case '&':
			rep = "&amp;"
		case '<':
			rep = "&lt;"
		case '>':
			rep = "&gt;"
		case '"':
			if !inAttr {
				continue
			}
			rep = "&quot;"
		default:
			continue
		}
		e.bytes(b[start:i])
		e.str(rep)
		start = i + 1
	}
	e.bytes(b[start:])
}

func (e *Encoder) bytes(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}
