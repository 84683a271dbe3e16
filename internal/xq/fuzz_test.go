package xq

import (
	"math/rand"
	"testing"

	"xmorph/internal/xmltree"
)

// TestQueryParserNeverPanics throws token soup at the XQuery parser.
func TestQueryParserNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	words := []string{
		"for", "let", "where", "return", "order", "by", "in", ":=", "$v",
		"doc(\"d\")", "/", "//", "[", "]", "(", ")", "{", "}", "<a>", "</a>",
		"\"s\"", "1", "+", "-", "*", "=", "!=", "and", "or", "if", "then",
		"else", "some", "every", "satisfies", "|", "..", "@x", "name", ",",
	}
	for i := 0; i < 5000; i++ {
		n := rng.Intn(10)
		src := ""
		for j := 0; j < n; j++ {
			src += words[rng.Intn(len(words))] + " "
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("query parser panicked on %q: %v", src, r)
				}
			}()
			_, _ = parse(src)
		}()
	}
}

// FuzzQuery parses and evaluates arbitrary query text against a small
// fixed document: any outcome but a panic is acceptable.
func FuzzQuery(f *testing.F) {
	for _, seed := range []string{
		`doc("lib.xml")/book/title`,
		`for $b in doc("lib.xml")//book where $b/@year > 2000 order by $b/title return <t>{string($b/title)}</t>`,
		`count()`, `substring("abc", 2, 1)`, `concat()`, `distinct-values(doc("lib.xml")//author)`,
		`some $x in (1, 2) satisfies $x = 2`, `doc("lib.xml")/book[1]/..`,
		`"NaN" = 5`, `"NaN" != "NaN"`, `0 div 0 < 1`, `"INF" > "1e308"`, `"-Infinity" <= -1`,
		`"-0" = 0`, `" 5 " = 5`, `for $x in ("3", "NaN", "-INF", "NaN", "1") order by $x descending return $x`,
	} {
		f.Add(seed)
	}
	e := New()
	e.Bind("lib.xml", xmltree.MustParse(library))
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = e.QueryXML(src)
	})
}
