package xmltree

import (
	"fmt"
	"io"
	"strings"
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
// are local names without an attribute marker. A handler that fails
// keeps the failure, reports it from Err, and stays safe to send the
// rest of a balanced event sequence to.
type Handler interface {
	Start(name string)
	Attr(name, value string)
	Text(s string)
	End()
	Err() error
}

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

// ParseElement parses the one element s begins with — after any
// whitespace, comments, processing instructions and directives, but no
// other character data — under Scan's rules, and returns it with the
// length of s up to the end of its end tag. Nothing after that is read:
// the update language delimits its XML fragments with it.
func ParseElement(s string) (*Document, int, error) {
	sc := newScanner(strings.NewReader(s))
	b := NewBuilder()
	if err := sc.document(builderHandler{b}, true); err != nil {
		return nil, 0, err
	}
	d, err := b.Document()
	return d, sc.off + sc.pos, err
}

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
			h.Attr(c.LocalName(), c.Value)
		}
	}
	h.Text(n.Value)
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
	if err := Scan(r, builderHandler{b}); err != nil {
		return nil, err
	}
	return b.Document()
}

// builderHandler is Builder under the Handler signatures (Builder's own
// methods return the builder, for chaining).
type builderHandler struct{ b *Builder }

func (h builderHandler) Start(name string)       { h.b.Elem(name) }
func (h builderHandler) Attr(name, value string) { h.b.Attr(name, value) }
func (h builderHandler) Text(s string)           { h.b.Text(s) }
func (h builderHandler) End()                    { h.b.End() }
func (h builderHandler) Err() error              { return h.b.err }

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
