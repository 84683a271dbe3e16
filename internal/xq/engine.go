package xq

import (
	"fmt"
	"strings"

	"xmorph/internal/xmltree"
)

// Engine evaluates queries against a registry of bound documents — the
// role eXist's local xmldb API plays in the paper's experiments.
type Engine struct {
	docs map[string]*xmltree.Document
}

// New returns an empty engine.
func New() *Engine {
	return &Engine{docs: map[string]*xmltree.Document{}}
}

// Bind registers a document under the name doc() resolves.
func (e *Engine) Bind(name string, d *xmltree.Document) {
	e.docs[name] = d
}

// Query parses and evaluates a query, returning the result sequence.
func (e *Engine) Query(q string) (Sequence, error) {
	ast, err := parse(q)
	if err != nil {
		return nil, err
	}
	ctx := &context{
		vars: map[string]Sequence{},
		docs: func(name string) (*xmltree.Document, error) {
			d, ok := e.docs[name]
			if !ok {
				return nil, &Error{Message: fmt.Sprintf("doc(%q): no such document", name)}
			}
			return d, nil
		},
	}
	return ast.eval(ctx)
}

// QueryXML evaluates a query and serializes the result sequence: nodes as
// XML, atomics as text, space-separated.
func (e *Engine) QueryXML(q string) (string, error) {
	seq, err := e.Query(q)
	if err != nil {
		return "", err
	}
	return Serialize(seq), nil
}

// Serialize renders a result sequence.
func Serialize(seq Sequence) string {
	var b strings.Builder
	for i, item := range seq {
		switch x := item.(type) {
		case *xmltree.Node:
			writeNodeXML(&b, x)
		default:
			if i > 0 {
				b.WriteString(" ")
			}
			b.WriteString(stringValue(item))
		}
	}
	return b.String()
}

func writeNodeXML(b *strings.Builder, n *xmltree.Node) {
	// Serialize the subtree via a single-node document wrapper.
	if n.Attr {
		b.WriteString(n.LocalName())
		b.WriteString(`="`)
		b.WriteString(n.Value)
		b.WriteString(`"`)
		return
	}
	d := &xmltree.Document{Roots: []*xmltree.Node{n}}
	b.WriteString(d.XML(false))
}
