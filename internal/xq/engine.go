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
	return ast.eval(&context{docs: func(name string) (*xmltree.Document, error) {
		d, ok := e.docs[name]
		if !ok {
			return nil, &Error{Message: fmt.Sprintf("doc(%q): no such document", name)}
		}
		return d, nil
	}})
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
	var a Answer
	a.Add(seq)
	return a.String()
}

// Answer serializes a result sequence a part at a time, as Serialize
// does: node items side by side through one encoder block, an atomic item
// as text after a space unless it comes first. The zero value is empty.
type Answer struct {
	b     strings.Builder
	enc   *xmltree.Encoder
	items int
}

// Add appends the items of seq.
func (a *Answer) Add(seq Sequence) {
	for _, item := range seq {
		if n, ok := item.(*xmltree.Node); ok {
			if a.enc == nil {
				a.enc = xmltree.NewEncoder(&a.b, false)
			}
			a.enc.Item(n)
		} else {
			a.flush()
			if a.items > 0 {
				a.b.WriteByte(' ')
			}
			a.b.WriteString(stringValue(item))
		}
		a.items++
	}
}

// String returns the answer so far.
func (a *Answer) String() string {
	a.flush()
	return a.b.String()
}

// flush moves the encoded node items into the answer.
func (a *Answer) flush() {
	if a.enc != nil {
		_ = a.enc.Flush() // a strings.Builder write cannot fail
	}
}
