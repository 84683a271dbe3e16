package xq

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// parser is a recursive-descent parser over the raw query text. XQuery
// mixes expression syntax with XML constructor syntax, so the parser works
// directly on bytes with explicit lookahead instead of a separate token
// stream.
type parser struct {
	src string
	i   int
}

func parse(src string) (expr, error) {
	p := &parser{src: src}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.i < len(p.src) {
		return nil, p.errorf("unexpected %q after expression", p.rest(12))
	}
	return e, nil
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return &Error{Pos: p.i, Message: fmt.Sprintf(format, args...)}
}

func (p *parser) rest(n int) string {
	r := p.src[p.i:]
	if len(r) > n {
		r = r[:n]
	}
	return r
}

func (p *parser) skipSpace() {
	for p.i < len(p.src) {
		c := p.src[p.i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			p.i++
			continue
		}
		// (: comments :)
		if c == '(' && p.i+1 < len(p.src) && p.src[p.i+1] == ':' {
			end := strings.Index(p.src[p.i:], ":)")
			if end < 0 {
				p.i = len(p.src)
				return
			}
			p.i += end + 2
			continue
		}
		return
	}
}

// peekWord reports whether the next token is the given keyword.
func (p *parser) peekWord(w string) bool {
	p.skipSpace()
	if !strings.HasPrefix(p.src[p.i:], w) {
		return false
	}
	after := p.i + len(w)
	if after < len(p.src) && isNameByte(p.src[after]) {
		return false
	}
	return true
}

func (p *parser) eatWord(w string) bool {
	if p.peekWord(w) {
		p.i += len(w)
		return true
	}
	return false
}

func (p *parser) eat(s string) bool {
	p.skipSpace()
	if strings.HasPrefix(p.src[p.i:], s) {
		p.i += len(s)
		return true
	}
	return false
}

func (p *parser) peek(s string) bool {
	p.skipSpace()
	return strings.HasPrefix(p.src[p.i:], s)
}

func isNameByte(c byte) bool {
	return c == '_' || c == '-' || c == '.' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func (p *parser) name() (string, error) {
	p.skipSpace()
	start := p.i
	for p.i < len(p.src) && isNameByte(p.src[p.i]) {
		p.i++
	}
	if p.i == start {
		return "", p.errorf("expected a name, got %q", p.rest(8))
	}
	return p.src[start:p.i], nil
}

// parseExpr parses the comma operator level.
func (p *parser) parseExpr() (expr, error) {
	first, err := p.parseSingle()
	if err != nil {
		return nil, err
	}
	parts := []expr{first}
	for p.eat(",") {
		e, err := p.parseSingle()
		if err != nil {
			return nil, err
		}
		parts = append(parts, e)
	}
	if len(parts) == 1 {
		return first, nil
	}
	return &seqExpr{parts: parts}, nil
}

// parseSingle parses one expression (FLWOR, conditional, quantified, or
// operator expression).
func (p *parser) parseSingle() (expr, error) {
	if p.peekWord("for") || p.peekWord("let") {
		return p.parseFLWOR()
	}
	if p.peekWord("if") {
		return p.parseIf()
	}
	if p.peekWord("some") || p.peekWord("every") {
		return p.parseQuantified()
	}
	return p.parseOr()
}

// parseIf parses if (cond) then a else b.
func (p *parser) parseIf() (expr, error) {
	p.eatWord("if")
	if !p.eat("(") {
		return nil, p.errorf("expected '(' after 'if'")
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.eat(")") {
		return nil, p.errorf("expected ')' after if condition")
	}
	if !p.eatWord("then") {
		return nil, p.errorf("expected 'then'")
	}
	then, err := p.parseSingle()
	if err != nil {
		return nil, err
	}
	if !p.eatWord("else") {
		return nil, p.errorf("expected 'else'")
	}
	els, err := p.parseSingle()
	if err != nil {
		return nil, err
	}
	return &ifExpr{cond: cond, then: then, els: els}, nil
}

// parseQuantified parses some/every $v in e satisfies p.
func (p *parser) parseQuantified() (expr, error) {
	every := p.eatWord("every")
	if !every {
		p.eatWord("some")
	}
	name, in, err := p.parseBinding("in")
	if err != nil {
		return nil, err
	}
	if !p.eatWord("satisfies") {
		return nil, p.errorf("expected 'satisfies'")
	}
	sat, err := p.parseSingle()
	if err != nil {
		return nil, err
	}
	return &quantExpr{every: every, name: name, in: in, sat: sat}, nil
}

func (p *parser) parseFLWOR() (expr, error) {
	f := &flworExpr{}
	for {
		switch {
		case p.eatWord("for"):
			for {
				name, in, err := p.parseBinding("in")
				if err != nil {
					return nil, err
				}
				f.clauses = append(f.clauses, clause{name: name, in: in})
				if !p.eat(",") {
					break
				}
			}
		case p.eatWord("let"):
			for {
				name, in, err := p.parseBinding(":=")
				if err != nil {
					return nil, err
				}
				f.clauses = append(f.clauses, clause{isLet: true, name: name, in: in})
				if !p.eat(",") {
					break
				}
			}
		default:
			goto clausesDone
		}
	}
clausesDone:
	if len(f.clauses) == 0 {
		return nil, p.errorf("FLWOR without for/let")
	}
	if p.eatWord("where") {
		w, err := p.parseSingle()
		if err != nil {
			return nil, err
		}
		f.where = w
	}
	if p.eatWord("order") {
		if !p.eatWord("by") {
			return nil, p.errorf("expected 'by' after 'order'")
		}
		for {
			key, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			spec := orderSpec{key: key}
			if p.eatWord("descending") {
				spec.descending = true
			} else {
				p.eatWord("ascending")
			}
			f.orderBy = append(f.orderBy, spec)
			if !p.eat(",") {
				break
			}
		}
	}
	if !p.eatWord("return") {
		return nil, p.errorf("expected 'return', got %q", p.rest(12))
	}
	ret, err := p.parseSingle()
	if err != nil {
		return nil, err
	}
	f.ret = ret
	return f, nil
}

func (p *parser) parseBinding(sep string) (string, expr, error) {
	if !p.eat("$") {
		return "", nil, p.errorf("expected variable, got %q", p.rest(8))
	}
	name, err := p.name()
	if err != nil {
		return "", nil, err
	}
	if sep == "in" {
		if !p.eatWord("in") {
			return "", nil, p.errorf("expected 'in' after $%s", name)
		}
	} else if !p.eat(sep) {
		return "", nil, p.errorf("expected %q after $%s", sep, name)
	}
	in, err := p.parseOr()
	if err != nil {
		return "", nil, err
	}
	return name, in, nil
}

func (p *parser) parseOr() (expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.eatWord("or") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{op: "or", left: left, right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (expr, error) {
	left, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.eatWord("and") {
		right, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		left = &binaryExpr{op: "and", left: left, right: right}
	}
	return left, nil
}

func (p *parser) parseCmp() (expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"!=", "<=", ">=", "=", "<", ">"} {
		// '<' followed by a name start is a constructor, not a comparison.
		if op == "<" && p.peekConstructor() {
			continue
		}
		if p.peek(op) {
			p.eat(op)
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &binaryExpr{op: op, left: left, right: right}, nil
		}
	}
	return left, nil
}

func (p *parser) peekConstructor() bool {
	p.skipSpace()
	return p.i+1 < len(p.src) && p.src[p.i] == '<' &&
		(unicode.IsLetter(rune(p.src[p.i+1])) || p.src[p.i+1] == '_')
}

func (p *parser) parseAdd() (expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.eat("+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			left = &binaryExpr{op: "+", left: left, right: r}
		case p.peek("-") && !p.peek("->"):
			p.eat("-")
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			left = &binaryExpr{op: "-", left: left, right: r}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseMul() (expr, error) {
	left, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.eatWord("div"):
			r, err := p.parseUnion()
			if err != nil {
				return nil, err
			}
			left = &binaryExpr{op: "div", left: left, right: r}
		case p.eatWord("mod"):
			r, err := p.parseUnion()
			if err != nil {
				return nil, err
			}
			left = &binaryExpr{op: "mod", left: left, right: r}
		case p.peek("*"): // a "*" step only follows "/", which parsePath consumes
			p.eat("*")
			r, err := p.parseUnion()
			if err != nil {
				return nil, err
			}
			left = &binaryExpr{op: "*", left: left, right: r}
		default:
			return left, nil
		}
	}
}

// parseUnion parses the node-set union operator "|".
func (p *parser) parseUnion() (expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peek("|") {
		p.eat("|")
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &unionExpr{left: left, right: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (expr, error) {
	if p.eat("-") {
		e, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		return &negExpr{operand: e}, nil
	}
	return p.parsePath()
}

// parsePath parses primary ('/' step | '//' step)*.
func (p *parser) parsePath() (expr, error) {
	base, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	var steps []step
	for {
		descendant := false
		switch {
		case p.peek("//"):
			p.eat("//")
			descendant = true
		case p.peek("/"):
			p.eat("/")
		default:
			if len(steps) == 0 {
				return base, nil
			}
			return &pathExpr{base: base, steps: steps}, nil
		}
		// ".." is the parent axis; it folds the accumulated steps into a
		// parentStep base.
		if !descendant && p.peek("..") {
			p.eat("..")
			if len(steps) > 0 {
				base = &pathExpr{base: base, steps: steps}
				steps = nil
			}
			base = &parentStep{base: base}
			continue
		}
		st, err := p.parseStep(descendant)
		if err != nil {
			return nil, err
		}
		steps = append(steps, st)
	}
}

func (p *parser) parseStep(descendant bool) (step, error) {
	st := step{descendant: descendant}
	p.skipSpace()
	if p.eat("@") {
		st.attr = true
	}
	if p.eat("*") {
		st.name = "*"
	} else {
		name, err := p.name()
		if err != nil {
			return st, err
		}
		if name == "text" && p.eat("()") {
			// text() step: treated as the node's own text via string();
			// model has no separate text nodes, so text() selects self.
			st.name = "text()"
			return st, nil
		}
		st.name = name
	}
	for p.peek("[") {
		p.eat("[")
		pred, err := p.parseExpr()
		if err != nil {
			return st, err
		}
		if !p.eat("]") {
			return st, p.errorf("expected ']'")
		}
		st.preds = append(st.preds, pred)
	}
	return st, nil
}

func (p *parser) parsePrimary() (expr, error) {
	p.skipSpace()
	if p.i >= len(p.src) {
		return nil, p.errorf("unexpected end of query")
	}
	c := p.src[p.i]
	switch {
	case c == '$':
		p.i++
		name, err := p.name()
		if err != nil {
			return nil, err
		}
		return &varRef{name: name}, nil
	case c == '@':
		// A bare attribute step inside a predicate: relative to context.
		st, err := p.parseStep(false)
		if err != nil {
			return nil, err
		}
		return &pathExpr{base: &varRef{name: "."}, steps: []step{st}}, nil
	case c == '"' || c == '\'':
		return p.parseStringLiteral()
	case c >= '0' && c <= '9':
		return p.parseNumber()
	case c == '(':
		p.i++
		if p.eat(")") {
			return &seqExpr{}, nil // empty sequence ()
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if !p.eat(")") {
			return nil, p.errorf("expected ')'")
		}
		return e, nil
	case p.peekConstructor():
		return p.parseConstructor()
	default:
		// Function call or bare path starting with a name.
		save := p.i
		name, err := p.name()
		if err != nil {
			return nil, err
		}
		if p.peek("(") {
			p.eat("(")
			var args []expr
			if !p.peek(")") {
				for {
					a, err := p.parseSingle()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.eat(",") {
						break
					}
				}
			}
			if !p.eat(")") {
				return nil, p.errorf("expected ')' in call to %s", name)
			}
			return &funcCall{name: name, args: args}, nil
		}
		// Bare name: a child step on the context (only meaningful inside
		// predicates); treat as a path over the context variable ".".
		p.i = save
		st, err := p.parseStep(false)
		if err != nil {
			return nil, err
		}
		return &pathExpr{base: &varRef{name: "."}, steps: []step{st}}, nil
	}
}

func (p *parser) parseStringLiteral() (expr, error) {
	quote := p.src[p.i]
	p.i++
	start := p.i
	for p.i < len(p.src) && p.src[p.i] != quote {
		p.i++
	}
	if p.i >= len(p.src) {
		return nil, p.errorf("unterminated string literal")
	}
	s := p.src[start:p.i]
	p.i++
	return &literal{val: s}, nil
}

func (p *parser) parseNumber() (expr, error) {
	start := p.i
	for p.i < len(p.src) && (p.src[p.i] >= '0' && p.src[p.i] <= '9' || p.src[p.i] == '.') {
		p.i++
	}
	f, err := strconv.ParseFloat(p.src[start:p.i], 64)
	if err != nil {
		return nil, p.errorf("bad number %q", p.src[start:p.i])
	}
	return &literal{val: f}, nil
}

// parseConstructor parses <name attr="v">content</name> where content
// interleaves literal text and {expr} blocks.
func (p *parser) parseConstructor() (expr, error) {
	p.eat("<")
	name, err := p.name()
	if err != nil {
		return nil, err
	}
	e := &elemConstructor{name: name}
	for {
		p.skipSpace()
		if p.eat("/>") {
			return e, nil
		}
		if p.eat(">") {
			break
		}
		an, err := p.name()
		if err != nil {
			return nil, err
		}
		if !p.eat("=") {
			return nil, p.errorf("expected '=' in attribute %s", an)
		}
		p.skipSpace()
		if p.i >= len(p.src) || (p.src[p.i] != '"' && p.src[p.i] != '\'') {
			return nil, p.errorf("expected quoted attribute value")
		}
		lit, err := p.parseStringLiteral()
		if err != nil {
			return nil, err
		}
		e.attrs = append(e.attrs, attrTemplate{name: an, value: lit.(*literal).val.(string)})
	}
	// Content until </name>.
	for {
		if p.i >= len(p.src) {
			return nil, p.errorf("unterminated element <%s>", name)
		}
		if strings.HasPrefix(p.src[p.i:], "</") {
			p.i += 2
			closeName, err := p.name()
			if err != nil {
				return nil, err
			}
			if closeName != name {
				return nil, p.errorf("mismatched close tag </%s> for <%s>", closeName, name)
			}
			if !p.eat(">") {
				return nil, p.errorf("expected '>' in close tag")
			}
			return e, nil
		}
		if p.src[p.i] == '{' {
			p.i++
			inner, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if !p.eat("}") {
				return nil, p.errorf("expected '}'")
			}
			e.content = append(e.content, contentPart{expr: inner})
			continue
		}
		if p.peekConstructor() {
			inner, err := p.parseConstructor()
			if err != nil {
				return nil, err
			}
			e.content = append(e.content, contentPart{expr: inner})
			continue
		}
		if p.i < len(p.src) && p.src[p.i] == '<' {
			return nil, p.errorf("unexpected '<' in content of <%s>", name)
		}
		// Literal text run.
		start := p.i
		for p.i < len(p.src) && p.src[p.i] != '{' && p.src[p.i] != '<' {
			p.i++
		}
		e.content = append(e.content, contentPart{text: p.src[start:p.i]})
	}
}
