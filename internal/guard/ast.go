// Package guard contains the XMorph 2.0 front-end: the abstract syntax of
// query guards (Section III of the paper) and a lexer/parser for the
// concrete syntax.
//
// A guard is a pipeline of stages (MORPH, MUTATE, TRANSLATE) composed with
// COMPOSE or "|", optionally wrapped in type-enforcement modifiers
// (CAST-NARROWING, CAST-WIDENING, CAST, TYPE-FILL). Guards are case- and
// whitespace-insensitive.
package guard

import (
	"fmt"
	"strings"
)

// CastMode controls which information-loss verdicts the type checker lets
// through (Section III). The default admits only strongly-typed guards.
type CastMode int

const (
	// CastNone admits only strongly-typed guards (both narrowing and
	// widening in the paper's sense: no data created, no data lost).
	CastNone CastMode = iota
	// CastNarrowing additionally admits narrowing guards (may lose data,
	// creates none).
	CastNarrowing
	// CastWidening additionally admits widening guards (may create data,
	// loses none).
	CastWidening
	// CastWeak admits weakly-typed guards (may both lose and create).
	CastWeak
)

// String names the mode using the concrete syntax keyword.
func (m CastMode) String() string {
	switch m {
	case CastNone:
		return "STRICT"
	case CastNarrowing:
		return "CAST-NARROWING"
	case CastWidening:
		return "CAST-WIDENING"
	case CastWeak:
		return "CAST"
	}
	return fmt.Sprintf("CastMode(%d)", int(m))
}

// StageKind discriminates pipeline stages.
type StageKind int

const (
	// StageMorph builds an output shape from scratch out of the pattern
	// (only the mentioned types appear).
	StageMorph StageKind = iota
	// StageMutate rearranges the entire source shape per the pattern.
	StageMutate
	// StageTranslate renames types.
	StageTranslate
)

func (k StageKind) String() string {
	switch k {
	case StageMorph:
		return "MORPH"
	case StageMutate:
		return "MUTATE"
	case StageTranslate:
		return "TRANSLATE"
	}
	return fmt.Sprintf("StageKind(%d)", int(k))
}

// TermKind discriminates pattern terms.
type TermKind int

const (
	// TermLabel selects the source type(s) matching a label.
	TermLabel TermKind = iota
	// TermChildren is the "*" abbreviation: the children of the enclosing
	// term's type, taken from the source shape.
	TermChildren
	// TermDescendants is the "**" abbreviation: the full source subtree of
	// the enclosing term's type.
	TermDescendants
	// TermDrop removes the types selected by its operand (MUTATE shapes).
	TermDrop
	// TermClone copies the types selected by its operand as fresh types.
	TermClone
	// TermNew introduces a brand new labelled type.
	TermNew
	// TermRestrict filters the operand's root type by its pattern without
	// exposing the pattern in the output.
	TermRestrict
)

func (k TermKind) String() string {
	switch k {
	case TermLabel:
		return "label"
	case TermChildren:
		return "CHILDREN"
	case TermDescendants:
		return "DESCENDANTS"
	case TermDrop:
		return "DROP"
	case TermClone:
		return "CLONE"
	case TermNew:
		return "NEW"
	case TermRestrict:
		return "RESTRICT"
	}
	return fmt.Sprintf("TermKind(%d)", int(k))
}

// Program is a parsed query guard.
type Program struct {
	// Cast is the admitted information-loss level.
	Cast CastMode
	// TypeFill makes unmatched labels manufacture new types instead of
	// raising a type mismatch.
	TypeFill bool
	// Stages is the composition pipeline, applied left to right.
	Stages []*Stage
	// Source is the guard text the program was parsed from.
	Source string
}

// Stage is one pipeline stage.
type Stage struct {
	Kind StageKind
	// Patterns holds the stage's top-level terms (MORPH and MUTATE).
	Patterns []*Term
	// Renames holds the TRANSLATE dictionary.
	Renames []Rename
	// Pos locates the stage keyword in the source.
	Pos int
}

// Rename is one TRANSLATE dictionary entry.
type Rename struct {
	From string
	To   string
}

// Term is a pattern term. Modifier terms (DROP, CLONE, NEW, RESTRICT) wrap
// an operand; every term may carry a bracketed child list.
type Term struct {
	Kind TermKind
	// Label is the selector for TermLabel and the new name for TermNew.
	// Labels may be dotted to disambiguate ("book.author").
	Label string
	// Operand is the wrapped term for DROP, CLONE, and RESTRICT.
	Operand *Term
	// Kids is the bracketed child pattern list.
	Kids []*Term
	// Pos locates the term in the source.
	Pos int
}

// String renders the term back to concrete syntax.
func (t *Term) String() string {
	var b strings.Builder
	t.write(&b)
	return b.String()
}

func (t *Term) write(b *strings.Builder) {
	switch t.Kind {
	case TermLabel:
		b.WriteString(t.Label)
	case TermChildren:
		b.WriteString("*")
	case TermDescendants:
		b.WriteString("**")
	case TermNew:
		b.WriteString("(NEW ")
		b.WriteString(t.Label)
		b.WriteString(")")
	case TermDrop, TermClone, TermRestrict:
		b.WriteString("(")
		b.WriteString(t.Kind.String())
		b.WriteString(" ")
		t.Operand.write(b)
		b.WriteString(")")
	}
	if len(t.Kids) > 0 {
		b.WriteString(" [ ")
		for i, k := range t.Kids {
			if i > 0 {
				b.WriteString(" ")
			}
			k.write(b)
		}
		b.WriteString(" ]")
	}
}

// String renders the program back to concrete syntax.
func (p *Program) String() string {
	var b strings.Builder
	if p.TypeFill {
		b.WriteString("TYPE-FILL ")
	}
	if p.Cast != CastNone {
		b.WriteString(p.Cast.String())
		b.WriteString(" ")
	}
	for i, s := range p.Stages {
		if i > 0 {
			b.WriteString(" | ")
		}
		switch s.Kind {
		case StageTranslate:
			b.WriteString("TRANSLATE ")
			for j, r := range s.Renames {
				if j > 0 {
					b.WriteString(", ")
				}
				b.WriteString(r.From)
				b.WriteString(" -> ")
				b.WriteString(r.To)
			}
		default:
			b.WriteString(s.Kind.String())
			for _, t := range s.Patterns {
				b.WriteString(" ")
				b.WriteString(t.String())
			}
		}
	}
	return b.String()
}

// Algebra renders the program as Section VIII's operator tree (Figure 9),
// one operator per line, indented two spaces per level. Stages fold into
// a left-leaning compose chain; each bracketed child of a term adds one
// closest(term-so-far, child) operator above it; labels become type
// leaves. The CAST and TYPE-FILL modifiers are enforcement, not algebra,
// and do not appear.
func (p *Program) Algebra() string {
	var b strings.Builder
	line := func(depth int, op string) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(op)
		b.WriteString("\n")
	}
	// term prints t as if only its first kids children were bracketed.
	var term func(t *Term, kids, depth int)
	term = func(t *Term, kids, depth int) {
		switch {
		case t.Kind == TermChildren:
			line(depth, "children")
		case t.Kind == TermDescendants:
			line(depth, "descendants")
		case kids > 0:
			line(depth, "closest")
			term(t, kids-1, depth+1)
			kid := t.Kids[kids-1]
			term(kid, len(kid.Kids), depth+1)
		case t.Kind == TermLabel:
			line(depth, "type("+t.Label+")")
		case t.Kind == TermNew:
			line(depth, "new("+t.Label+")")
		default: // DROP, CLONE and RESTRICT wrap their operand
			line(depth, strings.ToLower(t.Kind.String()))
			term(t.Operand, len(t.Operand.Kids), depth+1)
		}
	}
	// chain prints the composition of the first n stages.
	var chain func(n, depth int)
	chain = func(n, depth int) {
		if n > 1 {
			line(depth, "compose")
			chain(n-1, depth+1)
			depth++
		}
		s := p.Stages[n-1]
		if s.Kind == StageTranslate {
			parts := make([]string, len(s.Renames))
			for i, r := range s.Renames {
				parts[i] = r.From + " -> " + r.To
			}
			line(depth, "translate("+strings.Join(parts, ", ")+")")
			return
		}
		line(depth, strings.ToLower(s.Kind.String()))
		for _, t := range s.Patterns {
			term(t, len(t.Kids), depth+1)
		}
	}
	if len(p.Stages) > 0 {
		chain(len(p.Stages), 0)
	}
	return b.String()
}
