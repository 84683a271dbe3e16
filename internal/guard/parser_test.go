package guard

import (
	"strings"
	"testing"
)

// paperGuards are the guards that appear in the paper.
var paperGuards = []string{
	"MORPH author [ name book [ title ] ]",
	"MORPH author [ title name publisher [ name ] ]",
	"MORPH data [author [* book [** publisher [*]]]]",
	"MUTATE book [ publisher [ name ] ]",
	"MORPH author [name] | MUTATE (DROP name)",
	"CAST-WIDENING (TYPE-FILL MUTATE author [ title ])",
	"MUTATE name [ author ]",
	"MUTATE data [ name author ]",
	"MUTATE (DROP title [ book ])",
	"MUTATE author [ CLONE title ]",
	"MUTATE (NEW scribe) [ author ]",
	"MORPH (RESTRICT name [ author ]) [ title ]",
	"MORPH author [ name ] | TRANSLATE author -> writer",
	"MUTATE site",
	"MORPH author",
	"MORPH author [title [year]]",
	"MORPH dblp [author [title [year [pages] url]]]",
	"MORPH CHILDREN author",
	"MORPH DESCENDANTS book",
	"COMPOSE MORPH author [ name ], MUTATE (DROP name)",
}

func TestParsePaperExamples(t *testing.T) {
	// Every guard that appears in the paper must parse.
	for _, g := range paperGuards {
		if _, err := Parse(g); err != nil {
			t.Errorf("Parse(%q): %v", g, err)
		}
	}
}

func TestParseMorphStructure(t *testing.T) {
	p := MustParse("MORPH author [ name book [ title ] ]")
	if len(p.Stages) != 1 || p.Stages[0].Kind != StageMorph {
		t.Fatalf("stages = %+v", p.Stages)
	}
	root := p.Stages[0].Patterns[0]
	if root.Kind != TermLabel || root.Label != "author" {
		t.Fatalf("root = %+v", root)
	}
	if len(root.Kids) != 2 {
		t.Fatalf("kids = %d, want 2", len(root.Kids))
	}
	if root.Kids[0].Label != "name" || root.Kids[1].Label != "book" {
		t.Errorf("kid labels = %s, %s", root.Kids[0].Label, root.Kids[1].Label)
	}
	if len(root.Kids[1].Kids) != 1 || root.Kids[1].Kids[0].Label != "title" {
		t.Errorf("book kids wrong: %+v", root.Kids[1].Kids)
	}
}

func TestParseStarAbbreviations(t *testing.T) {
	p := MustParse("MORPH data [author [* book [** publisher [*]]]]")
	data := p.Stages[0].Patterns[0]
	author := data.Kids[0]
	if author.Kids[0].Kind != TermChildren {
		t.Errorf("author first kid = %v, want CHILDREN", author.Kids[0].Kind)
	}
	book := author.Kids[1]
	if book.Kids[0].Kind != TermDescendants {
		t.Errorf("book first kid = %v, want DESCENDANTS", book.Kids[0].Kind)
	}
}

func TestParseChildrenKeywordDesugars(t *testing.T) {
	a := MustParse("MORPH CHILDREN author")
	b := MustParse("MORPH author [*]")
	if a.String() != b.String() {
		t.Errorf("CHILDREN author = %s, author [*] = %s", a.String(), b.String())
	}
	c := MustParse("MORPH DESCENDANTS author")
	d := MustParse("MORPH author [**]")
	if c.String() != d.String() {
		t.Errorf("DESCENDANTS author = %s, author [**] = %s", c.String(), d.String())
	}
}

func TestParseCaseAndWhitespaceInsensitive(t *testing.T) {
	a := MustParse("morph author[name book[title]]")
	b := MustParse("MORPH  author  [ name   book [ title ] ]")
	if a.String() != b.String() {
		t.Errorf("case/space variants differ: %s vs %s", a, b)
	}
}

func TestParseCastModifiers(t *testing.T) {
	tests := []struct {
		src      string
		mode     CastMode
		typeFill bool
	}{
		{"MORPH a", CastNone, false},
		{"CAST MORPH a", CastWeak, false},
		{"CAST-NARROWING MORPH a", CastNarrowing, false},
		{"CAST-WIDENING MORPH a", CastWidening, false},
		{"TYPE-FILL MORPH a", CastNone, true},
		{"CAST-WIDENING (TYPE-FILL MUTATE author [ title ])", CastWidening, true},
		{"TYPE-FILL CAST MORPH a", CastWeak, true},
	}
	for _, tt := range tests {
		p, err := Parse(tt.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", tt.src, err)
			continue
		}
		if p.Cast != tt.mode || p.TypeFill != tt.typeFill {
			t.Errorf("Parse(%q): cast=%v typeFill=%v, want %v %v", tt.src, p.Cast, p.TypeFill, tt.mode, tt.typeFill)
		}
	}
}

func TestParseConflictingCasts(t *testing.T) {
	if _, err := Parse("CAST-NARROWING CAST-WIDENING MORPH a"); err == nil {
		t.Error("conflicting casts accepted")
	}
	if _, err := Parse("CAST CAST MORPH a"); err != nil {
		t.Errorf("repeated identical cast rejected: %v", err)
	}
}

func TestParseComposePipe(t *testing.T) {
	p := MustParse("MORPH author [name] | MUTATE (DROP name) | TRANSLATE author -> writer")
	if len(p.Stages) != 3 {
		t.Fatalf("stages = %d, want 3", len(p.Stages))
	}
	if p.Stages[0].Kind != StageMorph || p.Stages[1].Kind != StageMutate || p.Stages[2].Kind != StageTranslate {
		t.Errorf("stage kinds wrong: %v %v %v", p.Stages[0].Kind, p.Stages[1].Kind, p.Stages[2].Kind)
	}
	drop := p.Stages[1].Patterns[0]
	if drop.Kind != TermDrop || drop.Operand.Label != "name" {
		t.Errorf("drop term = %+v", drop)
	}
}

func TestParseComposeKeywordEquivalentToPipe(t *testing.T) {
	a := MustParse("COMPOSE MORPH author [ name ], MUTATE (DROP name)")
	b := MustParse("MORPH author [ name ] | MUTATE (DROP name)")
	if a.String() != b.String() {
		t.Errorf("COMPOSE != pipe: %s vs %s", a, b)
	}
}

func TestParseTranslate(t *testing.T) {
	p := MustParse("TRANSLATE author -> writer, name -> fullname")
	s := p.Stages[0]
	if s.Kind != StageTranslate || len(s.Renames) != 2 {
		t.Fatalf("stage = %+v", s)
	}
	if s.Renames[0] != (Rename{"author", "writer"}) || s.Renames[1] != (Rename{"name", "fullname"}) {
		t.Errorf("renames = %+v", s.Renames)
	}
}

func TestParseTranslateUnicodeArrow(t *testing.T) {
	p, err := Parse("TRANSLATE author → writer")
	if err != nil {
		t.Fatalf("unicode arrow: %v", err)
	}
	if p.Stages[0].Renames[0].To != "writer" {
		t.Errorf("renames = %+v", p.Stages[0].Renames)
	}
}

func TestParseRestrictWithOuterKids(t *testing.T) {
	p := MustParse("MORPH (RESTRICT name [ author ]) [ title ]")
	r := p.Stages[0].Patterns[0]
	if r.Kind != TermRestrict {
		t.Fatalf("root = %v", r.Kind)
	}
	if r.Operand.Label != "name" || len(r.Operand.Kids) != 1 || r.Operand.Kids[0].Label != "author" {
		t.Errorf("operand = %+v", r.Operand)
	}
	if len(r.Kids) != 1 || r.Kids[0].Label != "title" {
		t.Errorf("outer kids = %+v", r.Kids)
	}
}

func TestParseNewWrapper(t *testing.T) {
	p := MustParse("MUTATE (NEW scribe) [ author ]")
	n := p.Stages[0].Patterns[0]
	if n.Kind != TermNew || n.Label != "scribe" {
		t.Fatalf("new term = %+v", n)
	}
	if len(n.Kids) != 1 || n.Kids[0].Label != "author" {
		t.Errorf("new kids = %+v", n.Kids)
	}
}

func TestParseDottedLabels(t *testing.T) {
	p := MustParse("MORPH book.author [ name ]")
	if p.Stages[0].Patterns[0].Label != "book.author" {
		t.Errorf("dotted label = %q", p.Stages[0].Patterns[0].Label)
	}
}

// badGuards must each fail to parse.
var badGuards = []string{
	"",
	"MORPH",
	"MORPH [",
	"MORPH a [",
	"MORPH a ]",
	"MORPH a [ b",
	"TRANSLATE a",
	"TRANSLATE a ->",
	"TRANSLATE -> b",
	"NEW x",
	"MORPH a | ",
	"MORPH a extra ( ",
	"MUTATE (DROP)",
	"MORPH (a",
	"CAST",
	"MORPH a %",
}

func TestParseErrors(t *testing.T) {
	for _, src := range badGuards {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		} else if !strings.Contains(err.Error(), "guard:") {
			t.Errorf("Parse(%q) error %v lacks prefix", src, err)
		}
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse("MORPH author [ % ]")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type = %T", err)
	}
	if se.Pos != 15 {
		t.Errorf("error pos = %d, want 15", se.Pos)
	}
}

func TestProgramStringRoundTrip(t *testing.T) {
	guards := []string{
		"MORPH author [ name book [ title ] ]",
		"MUTATE (DROP title [ book ])",
		"TYPE-FILL CAST-WIDENING MUTATE author [ title ]",
		"MORPH (RESTRICT name [ author ]) [ title ]",
		"MORPH author [ name ] | TRANSLATE author -> writer",
		"MUTATE (NEW scribe) [ author ]",
		"MORPH data [ author [ * book [ ** ] ] ]",
	}
	for _, g := range guards {
		p1 := MustParse(g)
		p2 := MustParse(p1.String())
		if p1.String() != p2.String() {
			t.Errorf("String round trip unstable: %q -> %q -> %q", g, p1.String(), p2.String())
		}
	}
}

func TestTermStringAllForms(t *testing.T) {
	// Every term kind must round-trip through String().
	forms := []string{
		"MORPH a",
		"MORPH a [ * ]",
		"MORPH a [ ** ]",
		"MUTATE (NEW n) [ a ]",
		"MUTATE (DROP a)",
		"MUTATE x [ CLONE y ]",
		"MORPH (RESTRICT a [ b ]) [ c ]",
	}
	for _, f := range forms {
		p1 := MustParse(f)
		p2 := MustParse(p1.String())
		if p1.String() != p2.String() {
			t.Errorf("%q: unstable String: %q vs %q", f, p1.String(), p2.String())
		}
	}
}

func TestStageKindAndCastStrings(t *testing.T) {
	if StageMorph.String() != "MORPH" || StageMutate.String() != "MUTATE" || StageTranslate.String() != "TRANSLATE" {
		t.Error("stage kind strings wrong")
	}
	if CastNone.String() != "STRICT" || CastWeak.String() != "CAST" {
		t.Error("cast mode strings wrong")
	}
	if TermDrop.String() != "DROP" || TermChildren.String() != "CHILDREN" {
		t.Error("term kind strings wrong")
	}
}
