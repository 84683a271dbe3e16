package xmltree

import "fmt"

// Builder constructs documents programmatically in document order. It is
// used by the renderer (Section VII) to assemble output forests and by the
// dataset generators.
//
// The zero value is ready to use; Elem/Attr/Text/End mirror a SAX-style
// event stream.
type Builder struct {
	doc   *Document
	stack []*Node
	last  *Node
	err   error
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{doc: &Document{}}
}

// Elem opens a new element with the given name under the current element
// and makes it current. At the top level each Elem starts a new root tree:
// builders may produce forests (rendered transformations are forests).
func (b *Builder) Elem(name string) *Builder {
	if b.err != nil {
		return b
	}
	n := &Node{Name: name}
	if len(b.stack) == 0 {
		b.doc.Roots = append(b.doc.Roots, n)
		n.Dewey = Dewey{len(b.doc.Roots)}
		n.Type = name
	} else {
		attach(b.stack[len(b.stack)-1], n)
	}
	b.last = n
	b.stack = append(b.stack, n)
	return b
}

// Last returns the node most recently created by Elem or Attr; the
// renderer uses it to attach Src provenance. It is nil before the first
// element.
func (b *Builder) Last() *Node { return b.last }

// Attr adds an attribute to the current element.
func (b *Builder) Attr(name, value string) *Builder {
	if b.err != nil {
		return b
	}
	if len(b.stack) == 0 {
		b.err = fmt.Errorf("xmltree: builder: attribute %q outside any element", name)
		return b
	}
	n := &Node{Name: "@" + name, Value: value, Attr: true}
	attach(b.stack[len(b.stack)-1], n)
	b.last = n
	return b
}

// Text appends character data to the current element's value.
func (b *Builder) Text(s string) *Builder {
	if b.err != nil {
		return b
	}
	if len(b.stack) == 0 {
		b.err = fmt.Errorf("xmltree: builder: text outside any element")
		return b
	}
	b.stack[len(b.stack)-1].Value += s
	return b
}

// End closes the current element.
func (b *Builder) End() *Builder {
	if b.err != nil {
		return b
	}
	if len(b.stack) == 0 {
		b.err = fmt.Errorf("xmltree: builder: End without open element")
		return b
	}
	b.stack = b.stack[:len(b.stack)-1]
	return b
}

// Leaf writes Elem(name), Text(value), End() in one call.
func (b *Builder) Leaf(name, value string) *Builder {
	return b.Elem(name).Text(value).End()
}

// Document finishes the build, indexing and returning the document.
func (b *Builder) Document() (*Document, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.doc.Roots) == 0 {
		return nil, fmt.Errorf("xmltree: builder: empty document")
	}
	if len(b.stack) != 0 {
		return nil, fmt.Errorf("xmltree: builder: %d unclosed element(s)", len(b.stack))
	}
	b.doc.index()
	return b.doc, nil
}

// MustDocument is Document that panics on error, for tests and generators.
func (b *Builder) MustDocument() *Document {
	d, err := b.Document()
	if err != nil {
		panic(err)
	}
	return d
}
