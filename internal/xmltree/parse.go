package xmltree

import (
	"fmt"
	"io"
	"strings"
	"unsafe"
)

// MaxDepth bounds the level of any node: a root is level 1, a child
// element or an attribute sits one level below its element. Every open
// element costs its reader a stack frame and a type path as long as its
// depth, so without a bound an unclosed <a><a><a>… costs memory
// quadratic in its length; the store needs the same bound for a node's
// Dewey number to fit a key.
const MaxDepth = 125

// Handler receives a document as events in document order: per element
// Start, its attributes, then its text and child elements, End. Names
// are local names without an attribute marker. The bytes of an
// attribute value or a run of text are borrowed: they are valid only
// until the call returns, and the handler never writes to them — a
// handler that keeps a value copies it. A handler that fails keeps the
// failure, reports it from Err, and stays safe to send the rest of a
// balanced event sequence to.
type Handler interface {
	Start(name string)
	Attr(name string, value []byte)
	Text(b []byte)
	End()
	Err() error
}

// Borrow returns the bytes of s without copying them, for handing a
// string to a Handler or an Encoder, which only read them.
func Borrow(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// Scan reads one XML document from r and hands it to h. It is the
// repository's only XML tokenizer, and the rules of ingest are stated
// here and nowhere else:
//
//   - names are local names (namespace prefixes are ignored, matching the
//     paper's untyped treatment of labels) and xmlns declarations are not
//     attributes;
//   - a name may not contain TypeSep, which would make the rooted type
//     paths built from it ambiguous;
//   - an element's attributes follow its Start in source order, ahead of
//     everything else below it, so a handler that numbers children as
//     they arrive numbers attributes first;
//   - a run of character data that is all whitespace is dropped, any
//     other is passed on verbatim; comments, processing instructions and
//     directives are not part of the data model;
//   - there is exactly one root element, every element is closed, and no
//     node lies deeper than MaxDepth — the scan fails at the start tag
//     that goes too deep, before anything is allocated for it.
//
// The tokenizer is the byte scanner of scan.go. The language it accepts
// is encoding/xml's in strict mode, and FuzzScan holds it to the
// encoding/xml token loop it replaced.
//
// Scan stops at the first malformed token, broken rule or handler
// failure and returns it; an error of r's is wrapped, not replaced.
func Scan(r io.Reader, h Handler) error {
	return newScanner(r).document(h, false)
}

// ParseElement finds the end of the one element s begins with — after
// any whitespace, comments, processing instructions and directives, but
// no other character data — under Scan's rules, and returns the length
// of s up to the end of its end tag. It builds nothing, and nothing
// after that end tag is read: the update language delimits its XML
// fragments with it.
func ParseElement(s string) (int, error) {
	sc := newScanner(strings.NewReader(s))
	if err := sc.document(discard{}, true); err != nil {
		return 0, err
	}
	return sc.off + sc.pos, nil
}

// discard is the Handler that keeps nothing.
type discard struct{}

func (discard) Start(string)        {}
func (discard) Attr(string, []byte) {}
func (discard) Text([]byte)         {}
func (discard) End()                {}
func (discard) Err() error          { return nil }

func checkName(name string) error {
	if strings.Contains(name, TypeSep) {
		return fmt.Errorf("xmltree: scan: name %q contains the type-path separator %q", name, TypeSep)
	}
	return nil
}

// Replay hands the subtree rooted at n to h as the events a Scan of its
// serialization produces: an element's attribute children first, then
// its text, then its child elements.
func (n *Node) Replay(h Handler) {
	h.Start(n.Name)
	for _, c := range n.Children {
		if c.Attr {
			h.Attr(c.LocalName(), Borrow(c.Value))
		}
	}
	h.Text(Borrow(n.Value))
	for _, c := range n.Children {
		if !c.Attr {
			c.Replay(h)
		}
	}
	h.End()
}

// Parse reads an XML document into the data model: Scan into a Builder.
// Every element and attribute becomes a vertex; character data is
// accumulated into the enclosing element's Value.
func Parse(r io.Reader) (*Document, error) {
	b := NewBuilder()
	if err := Scan(r, b.Handler()); err != nil {
		return nil, err
	}
	return b.Document()
}

// Handler returns b under the Handler signatures (Builder's own methods
// return the builder, for chaining), so a reader can build a tree from
// its events.
func (b *Builder) Handler() Handler { return builderHandler{b} }

type builderHandler struct{ b *Builder }

func (h builderHandler) Start(name string)              { h.b.Elem(name) }
func (h builderHandler) Attr(name string, value []byte) { h.b.Attr(name, string(value)) }
func (h builderHandler) Text(b []byte)                  { h.b.Text(string(b)) }
func (h builderHandler) End()                           { h.b.End() }
func (h builderHandler) Err() error                     { return h.b.err }

// ParseString parses an XML document held in a string.
func ParseString(s string) (*Document, error) {
	return Parse(strings.NewReader(s))
}

// MustParse parses s and panics on error. It is intended for tests and
// examples with literal documents.
func MustParse(s string) *Document {
	d, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return d
}

// attach links child c under parent p, assigning the Dewey number and type
// path. It does not re-index the document.
func attach(p, c *Node) {
	c.Parent = p
	p.Children = append(p.Children, c)
	c.Dewey = p.Dewey.Child(len(p.Children))
	c.Type = p.Type + TypeSep + c.Name
}
