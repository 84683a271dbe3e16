package guard

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind enumerates lexical token classes.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokLBracket // [
	tokRBracket // ]
	tokLParen   // (
	tokRParen   // )
	tokPipe     // |
	tokComma    // ,
	tokArrow    // -> or →
	tokStar     // *
	tokStarStar // **
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of guard"
	case tokIdent:
		return "label"
	case tokKeyword:
		return "keyword"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokPipe:
		return "'|'"
	case tokComma:
		return "','"
	case tokArrow:
		return "'->'"
	case tokStar:
		return "'*'"
	case tokStarStar:
		return "'**'"
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// keywords maps the upper-cased spelling to itself; guards are
// case-insensitive (Section III).
var keywords = map[string]bool{
	"MORPH":          true,
	"MUTATE":         true,
	"TRANSLATE":      true,
	"COMPOSE":        true,
	"DROP":           true,
	"CLONE":          true,
	"NEW":            true,
	"RESTRICT":       true,
	"CHILDREN":       true,
	"DESCENDANTS":    true,
	"CAST":           true,
	"CAST-NARROWING": true,
	"CAST-WIDENING":  true,
	"TYPE-FILL":      true,
}

type token struct {
	kind tokenKind
	text string // keyword spellings are upper-cased; idents keep case
	pos  int
}

// SyntaxError reports a lexical or parse error with its byte offset in the
// guard text.
type SyntaxError struct {
	Pos     int
	Message string
	Source  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("guard: syntax error at offset %d: %s", e.Pos, e.Message)
}

// lex tokenizes a guard. Identifiers start with a letter, '_' or '@' and
// may go on with letters, digits, '_', '.', '@', and '-' (letters and
// digits in any script); a '-' immediately followed by '>' terminates the
// identifier so that "a->b" lexes as three tokens.
func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '[':
			toks = append(toks, token{tokLBracket, "[", i})
			i++
		case c == ']':
			toks = append(toks, token{tokRBracket, "]", i})
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i++
		case c == '|':
			toks = append(toks, token{tokPipe, "|", i})
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ",", i})
			i++
		case c == '*':
			if i+1 < n && src[i+1] == '*' {
				toks = append(toks, token{tokStarStar, "**", i})
				i += 2
			} else {
				toks = append(toks, token{tokStar, "*", i})
				i++
			}
		case c == '-' && i+1 < n && src[i+1] == '>':
			toks = append(toks, token{tokArrow, "->", i})
			i += 2
		case strings.HasPrefix(src[i:], "→"): // →
			toks = append(toks, token{tokArrow, "->", i})
			i += len("→")
		case identRune(src, i, true) > 0:
			start := i
			for i < n {
				w := identRune(src, i, false)
				if w == 0 {
					break
				}
				i += w
			}
			text := src[start:i]
			if up := strings.ToUpper(text); keywords[up] {
				toks = append(toks, token{tokKeyword, up, start})
			} else {
				toks = append(toks, token{tokIdent, text, start})
			}
		default:
			r, _ := utf8.DecodeRuneInString(src[i:])
			return nil, &SyntaxError{Pos: i, Message: fmt.Sprintf("unexpected character %q", r), Source: src}
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

// identRune returns the byte width of the rune at src[i] when it may
// begin (start) or continue an identifier, else 0. '-' continues an
// identifier unless it starts an arrow.
func identRune(src string, i int, start bool) int {
	r, w := utf8.DecodeRuneInString(src[i:])
	switch {
	case unicode.IsLetter(r) || r == '_' || r == '@':
		return w
	case start:
		return 0
	case unicode.IsDigit(r) || r == '.':
		return w
	case r == '-' && (i+1 >= len(src) || src[i+1] != '>'):
		return w
	}
	return 0
}
