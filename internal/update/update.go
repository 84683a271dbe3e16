// Package update implements the XMorph incremental-update language — the
// "mapping XUpdate operations to updates of the transformation" mitigation
// Section VIII sketches, with FLUX ("Functional Updates for XML") as the
// blueprint for a small, statically-analyzable update language:
//
//	insert <xml-fragment> into   <path> ;   append as last child
//	insert <xml-fragment> before <path> ;   new preceding sibling
//	insert <xml-fragment> after  <path> ;   new following sibling
//	delete <path> ;
//	replace <path> with <xml-fragment> ;
//
// A <path> is a rooted type path in the paper's default typing scheme —
// dot-separated element names from the document root, "@"-prefixed for
// attributes ("dblp.article.author") — and resolves to the node SET of
// that type, exactly as the store's Dewey-ordered type sequences do: one
// statement edits every instance of the path's type. Statements are
// separated by ";" and apply sequentially.
//
// The package only parses and prints; applying a script against shredded
// data is store.Update, and the shape-delta analysis over the result is
// Compare (delta.go).
package update

import (
	"fmt"
	"strings"

	"xmorph/internal/xmltree"
)

// Kind discriminates the three statement forms.
type Kind int

const (
	// Insert adds a fragment relative to every node of the path's type.
	Insert Kind = iota
	// Delete removes every node of the path's type, with its subtree.
	Delete
	// Replace substitutes the fragment for every node of the path's type.
	Replace
)

// Pos places an inserted fragment relative to the path's nodes.
type Pos int

const (
	// Into appends the fragment as the target's last child.
	Into Pos = iota
	// Before inserts the fragment as a preceding sibling of the target.
	Before
	// After inserts the fragment as a following sibling of the target.
	After
)

// String renders the position keyword as it appears in the language.
func (p Pos) String() string {
	switch p {
	case Before:
		return "before"
	case After:
		return "after"
	default:
		return "into"
	}
}

// Op is one parsed update statement. Ops are comparable (all fields are
// scalars), so parse → print → parse round-trips are checkable with ==.
type Op struct {
	Kind Kind
	// Path is the statement's rooted type path ("dblp.article.author").
	Path string
	// Pos places the fragment for Insert ops; zero otherwise.
	Pos Pos
	// XML is the fragment source text for Insert and Replace, trimmed of
	// surrounding whitespace; empty for Delete.
	XML string
}

// String prints the statement in canonical form (no trailing ";").
func (o Op) String() string {
	switch o.Kind {
	case Insert:
		return fmt.Sprintf("insert %s %s %s", o.XML, o.Pos, o.Path)
	case Delete:
		return "delete " + o.Path
	default:
		return fmt.Sprintf("replace %s with %s", o.Path, o.XML)
	}
}

// Format prints a whole script in canonical form, one statement per line.
func Format(ops []Op) string {
	parts := make([]string, len(ops))
	for i, o := range ops {
		parts[i] = o.String()
	}
	return strings.Join(parts, " ;\n")
}

// SyntaxError reports a malformed update script with its byte offset.
type SyntaxError struct {
	Offset int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("update: syntax error at offset %d: %s", e.Offset, e.Msg)
}

// Parse parses an update script: one or more ";"-separated statements.
// Keywords are case-insensitive; fragments are single well-formed XML
// elements, delimited by XML structure (a ";" inside a fragment does not
// terminate the statement).
func Parse(src string) ([]Op, error) {
	p := &parser{src: src}
	var ops []Op
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, p.errf("empty update script")
	}
	for p.pos < len(p.src) {
		op, err := p.statement()
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
		p.skipSpace()
		if p.pos < len(p.src) {
			if p.src[p.pos] != ';' {
				return nil, p.errf("expected ';' between statements")
			}
			p.pos++
			p.skipSpace()
		}
	}
	return ops, nil
}

type parser struct {
	src string
	pos int
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// word consumes the next whitespace-delimited token (";" also delimits).
func (p *parser) word() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ';' {
			break
		}
		p.pos++
	}
	return p.src[start:p.pos]
}

func (p *parser) statement() (Op, error) {
	kwAt := p.pos
	switch kw := strings.ToLower(p.word()); kw {
	case "insert":
		frag, err := p.fragment()
		if err != nil {
			return Op{}, err
		}
		posAt := p.pos
		var pos Pos
		switch strings.ToLower(p.word()) {
		case "into":
			pos = Into
		case "before":
			pos = Before
		case "after":
			pos = After
		default:
			p.pos = posAt
			return Op{}, p.errf("expected 'into', 'before', or 'after' after the fragment")
		}
		path, err := p.path()
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: Insert, Path: path, Pos: pos, XML: frag}, nil
	case "delete":
		path, err := p.path()
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: Delete, Path: path}, nil
	case "replace":
		path, err := p.path()
		if err != nil {
			return Op{}, err
		}
		withAt := p.pos
		if strings.ToLower(p.word()) != "with" {
			p.pos = withAt
			return Op{}, p.errf("expected 'with' after the path")
		}
		frag, err := p.fragment()
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: Replace, Path: path, XML: frag}, nil
	default:
		p.pos = kwAt
		return Op{}, p.errf("expected 'insert', 'delete', or 'replace', got %q", kw)
	}
}

// path consumes and validates a rooted type path.
func (p *parser) path() (string, error) {
	at := p.pos
	w := p.word()
	if w == "" {
		return "", p.errf("expected a rooted type path")
	}
	segs := strings.Split(w, xmltree.TypeSep)
	for i, s := range segs {
		name := strings.TrimPrefix(s, "@")
		if name == "" || strings.ContainsAny(name, "@<>\"'/=&") {
			p.pos = at
			return "", p.errf("bad path segment %q in %q", s, w)
		}
		if i == 0 && strings.HasPrefix(s, "@") {
			p.pos = at
			return "", p.errf("path root %q cannot be an attribute", s)
		}
	}
	return w, nil
}

// fragment consumes one well-formed XML element, parsed to find its end
// (so ";" and keywords inside the fragment are inert).
func (p *parser) fragment() (string, error) {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != '<' {
		return "", p.errf("expected an XML fragment")
	}
	_, n, err := xmltree.ParseElement(p.src[p.pos:])
	if err != nil {
		return "", p.errf("bad XML fragment: %v", err)
	}
	frag := p.src[p.pos : p.pos+n]
	p.pos += n
	return frag, nil
}
