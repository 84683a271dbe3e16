package guard

import (
	"math/rand"
	"strings"
	"testing"
)

// TestParseNeverPanics feeds token soup to the guard parser.
func TestParseNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	words := []string{
		"MORPH", "MUTATE", "TRANSLATE", "DROP", "CLONE", "NEW", "RESTRICT",
		"CAST", "CAST-WIDENING", "TYPE-FILL", "COMPOSE",
		"[", "]", "(", ")", "|", ",", "->", "*", "**", "a", "b.c", "@x", "→",
	}
	for i := 0; i < 5000; i++ {
		n := rng.Intn(12)
		src := ""
		for j := 0; j < n; j++ {
			src += words[rng.Intn(len(words))] + " "
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on %q: %v", src, r)
				}
			}()
			_, _ = Parse(src)
		}()
	}
}

// TestLexIdentifierEdges covers hyphen/arrow boundaries.
func TestLexIdentifierEdges(t *testing.T) {
	p, err := Parse("TRANSLATE a-b -> c-d")
	if err != nil {
		t.Fatal(err)
	}
	r := p.Stages[0].Renames[0]
	if r.From != "a-b" || r.To != "c-d" {
		t.Errorf("hyphenated labels = %+v", r)
	}
	// Trailing hyphen at end of input must not crash.
	if _, err := Parse("MORPH x-"); err != nil {
		t.Errorf("trailing hyphen label: %v", err)
	}
}

// TestLexNonASCII: a label may hold letters of any script, and a byte
// that begins no identifier is a syntax error, never a lexer that stops
// advancing.
func TestLexNonASCII(t *testing.T) {
	p, err := Parse("MORPH café [ ñame2 ]")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != "MORPH café [ ñame2 ]" {
		t.Errorf("String() = %q", got)
	}
	for src, char := range map[string]string{"MORPH a\xaa": "'\ufffd'", "MORPH \xc3": "'\ufffd'", "MORPH ² b": "'²'"} {
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), "unexpected character "+char) {
			t.Errorf("Parse(%q) = %v, want unexpected character %s", src, err, char)
		}
	}
}

// FuzzGuardParse asserts that the parser never panics, and that an
// accepted program prints back to source that parses to the same
// program: Parse → String → Parse keeps String and Algebra.
func FuzzGuardParse(f *testing.F) {
	for _, g := range paperGuards {
		f.Add(g)
	}
	for _, g := range badGuards {
		f.Add(g)
	}
	f.Add("TYPE-FILL CAST-WIDENING MUTATE author [ title ]")
	f.Add("MORPH a | MUTATE b | TRANSLATE a -> c")
	f.Add("MUTATE (NEW scribe) [ author ] (DROP title) x [ CLONE y (RESTRICT z [ w ]) ]")
	f.Add("TRANSLATE author → writer, name -> fullname")
	f.Add("CAST CAST MORPH a-b.c [ @x ]")
	f.Add("MORPH café [ ñame ]")
	f.Add("MORPH a\xaa")
	f.Fuzz(func(t *testing.T, src string) {
		p1, err := Parse(src)
		if err != nil {
			return
		}
		printed := p1.String()
		p2, err := Parse(printed)
		if err != nil {
			t.Fatalf("Parse(String(Parse(%q))) failed: %v\nprinted: %q", src, err, printed)
		}
		if again := p2.String(); again != printed {
			t.Fatalf("String is not a fixpoint for %q:\n%q\n%q", src, printed, again)
		}
		if a1, a2 := p1.Algebra(), p2.Algebra(); a1 != a2 {
			t.Fatalf("round trip changed the algebra of %q (printed %q):\n%s\nvs\n%s", src, printed, a1, a2)
		}
	})
}
