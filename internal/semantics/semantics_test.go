package semantics

import (
	"strings"
	"testing"
	"time"

	"xmorph/internal/guard"
	"xmorph/internal/shape"
	"xmorph/internal/xmltree"
)

const fig1a = `<data>
  <book>
    <title>X</title>
    <author><name>V</name></author>
    <publisher><name>W</name></publisher>
  </book>
  <book>
    <title>Y</title>
    <author><name>V</name></author>
    <publisher><name>W</name></publisher>
  </book>
</data>`

const fig1b = `<data>
  <publisher>
    <name>W</name>
    <book>
      <title>X</title>
      <author><name>V</name></author>
    </book>
    <book>
      <title>Y</title>
      <author><name>V</name></author>
    </book>
  </publisher>
</data>`

const fig1c = `<data>
  <author>
    <name>V</name>
    <book>
      <title>X</title>
      <publisher><name>W</name></publisher>
    </book>
    <book>
      <title>Y</title>
      <publisher><name>W</name></publisher>
    </book>
  </author>
</data>`

func compile(t *testing.T, guardSrc, xmlSrc string) *Plan {
	t.Helper()
	s := shape.FromDocument(xmltree.MustParse(xmlSrc))
	p, err := Compile(guard.MustParse(guardSrc), s)
	if err != nil {
		t.Fatalf("Compile(%q): %v", guardSrc, err)
	}
	return p
}

// findKid returns the kid with the given name, or nil.
func findKid(n *TNode, name string) *TNode {
	for _, k := range n.Kids {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// TestMorphFig2 reproduces Figure 2: the guard MORPH author [ name book [
// title ] ] builds the same target arrangement for all three instances of
// Figure 1 (modulo the source types feeding each target type).
func TestMorphFig2(t *testing.T) {
	for _, src := range []string{fig1a, fig1b, fig1c} {
		p := compile(t, "MORPH author [ name book [ title ] ]", src)
		tgt := p.Final().Target
		if len(tgt.Roots) != 1 {
			t.Fatalf("roots = %d, want 1\n%s", len(tgt.Roots), tgt)
		}
		author := tgt.Roots[0]
		if author.Name != "author" || !strings.HasSuffix(author.Source, "author") {
			t.Errorf("root = %s <- %s", author.Name, author.Source)
		}
		name := findKid(author, "name")
		book := findKid(author, "book")
		if name == nil || book == nil {
			t.Fatalf("author kids missing:\n%s", tgt)
		}
		// The ambiguous label "name" must resolve to the author's name,
		// not the publisher's.
		if !strings.Contains(name.Source, "author") {
			t.Errorf("name resolved to %s, want the author name", name.Source)
		}
		if title := findKid(book, "title"); title == nil {
			t.Errorf("book has no title kid:\n%s", tgt)
		}
	}
}

// TestMorphFig3 reproduces Figure 3's guard: author [ title name publisher
// [ name ] ] — the nested name must resolve to the publisher's name.
func TestMorphFig3(t *testing.T) {
	p := compile(t, "MORPH author [ title name publisher [ name ] ]", fig1c)
	author := p.Final().Target.Roots[0]
	pub := findKid(author, "publisher")
	if pub == nil {
		t.Fatalf("no publisher kid:\n%s", p.Final().Target)
	}
	pubName := findKid(pub, "name")
	if pubName == nil || !strings.Contains(pubName.Source, "publisher") {
		t.Errorf("publisher name resolved wrong: %+v", pubName)
	}
	authorName := findKid(author, "name")
	if authorName == nil || strings.Contains(authorName.Source, "publisher") {
		t.Errorf("author name resolved wrong: %+v", authorName)
	}
}

func TestMorphStarAbbreviations(t *testing.T) {
	p := compile(t, "MORPH data [ book [ * ] ]", fig1a)
	data := p.Final().Target.Roots[0]
	book := findKid(data, "book")
	if book == nil {
		t.Fatal("no book")
	}
	// * brings in title, author, publisher (one level).
	for _, want := range []string{"title", "author", "publisher"} {
		if findKid(book, want) == nil {
			t.Errorf("missing * child %s:\n%s", want, p.Final().Target)
		}
	}
	if author := findKid(book, "author"); author != nil && findKid(author, "name") != nil {
		t.Errorf("* should be one level only:\n%s", p.Final().Target)
	}
}

func TestMorphDescendants(t *testing.T) {
	p := compile(t, "MORPH data [ book [ ** ] ]", fig1a)
	book := findKid(p.Final().Target.Roots[0], "book")
	author := findKid(book, "author")
	if author == nil || findKid(author, "name") == nil {
		t.Errorf("** should copy the whole subtree:\n%s", p.Final().Target)
	}
}

func TestMorphExplicitKidWinsOverStar(t *testing.T) {
	p := compile(t, "MORPH book [ publisher [ name ] * ]", fig1a)
	book := p.Final().Target.Roots[0]
	count := 0
	for _, k := range book.Kids {
		if k.Name == "publisher" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("publisher appears %d times, want 1 (dedupe):\n%s", count, p.Final().Target)
	}
}

func TestMorphTypeMismatch(t *testing.T) {
	s := shape.FromDocument(xmltree.MustParse(fig1a))
	_, err := Compile(guard.MustParse("MORPH author [ isbn ]"), s)
	te, ok := err.(*TypeError)
	if !ok {
		t.Fatalf("error = %v, want TypeError", err)
	}
	if te.Label != "isbn" {
		t.Errorf("label = %s", te.Label)
	}
}

func TestMorphTypeFill(t *testing.T) {
	p := compile(t, "TYPE-FILL MORPH author [ isbn ]", fig1a)
	author := p.Final().Target.Roots[0]
	isbn := findKid(author, "isbn")
	if isbn == nil || !isbn.Fill {
		t.Errorf("isbn not filled:\n%s", p.Final().Target)
	}
	var found bool
	for _, l := range p.Labels {
		if l.Label == "isbn" && l.Filled {
			found = true
		}
	}
	if !found {
		t.Errorf("label report missing fill entry: %+v", p.Labels)
	}
}

func TestMorphDottedDisambiguation(t *testing.T) {
	p := compile(t, "MORPH book [ publisher.name ]", fig1a)
	book := p.Final().Target.Roots[0]
	name := findKid(book, "name")
	if name == nil || name.Source != "data.book.publisher.name" {
		t.Errorf("dotted label resolved to %+v", name)
	}
}

func TestMutateFig1bToA(t *testing.T) {
	// MUTATE book [ publisher [ name ] ] moves publisher below book.
	p := compile(t, "MUTATE book [ publisher [ name ] ]", fig1b)
	tgt := p.Final().Target
	data := tgt.Roots[0]
	book := findKid(data, "book")
	if book == nil {
		t.Fatalf("book not spliced up to data:\n%s", tgt)
	}
	pub := findKid(book, "publisher")
	if pub == nil {
		t.Fatalf("publisher not below book:\n%s", tgt)
	}
	if findKid(pub, "name") == nil {
		t.Errorf("publisher name missing:\n%s", tgt)
	}
	// author kept its position below book.
	if findKid(book, "author") == nil {
		t.Errorf("author lost:\n%s", tgt)
	}
}

func TestMutateSwap(t *testing.T) {
	p := compile(t, "MUTATE name [ author ]", fig1c)
	tgt := p.Final().Target
	data := tgt.Roots[0]
	name := findKid(data, "name")
	if name == nil {
		t.Fatalf("name not spliced up:\n%s", tgt)
	}
	author := findKid(name, "author")
	if author == nil {
		t.Fatalf("author not below name:\n%s", tgt)
	}
	if findKid(author, "book") == nil {
		t.Errorf("author's book subtree lost:\n%s", tgt)
	}
}

func TestMutateIdentity(t *testing.T) {
	p := compile(t, "MUTATE data", fig1a)
	out := p.Final().Output
	src := p.Source
	if out.String() != src.String() {
		t.Errorf("MUTATE data should be identity:\nsrc:\n%s\nout:\n%s", src, out)
	}
}

func TestMutateDrop(t *testing.T) {
	p := compile(t, "MUTATE (DROP title)", fig1a)
	tgt := p.Final().Target
	tgt.Walk(func(n *TNode) {
		if n.Name == "title" {
			t.Errorf("title survived DROP:\n%s", tgt)
		}
	})
	// Other types survive.
	found := false
	tgt.Walk(func(n *TNode) {
		if n.Name == "publisher" {
			found = true
		}
	})
	if !found {
		t.Errorf("publisher should survive:\n%s", tgt)
	}
}

func TestMutateDropSplicesChildren(t *testing.T) {
	p := compile(t, "MUTATE (DROP author)", fig1a)
	tgt := p.Final().Target
	book := findKid(tgt.Roots[0], "book")
	if findKid(book, "name") == nil {
		t.Errorf("author's name should splice up to book:\n%s", tgt)
	}
}

func TestMutateDropWithContext(t *testing.T) {
	// Two name types; DROP name [ publisher ] must remove only the
	// publisher's name.
	p := compile(t, "MUTATE (DROP name [ publisher ])", fig1a)
	tgt := p.Final().Target
	book := findKid(tgt.Roots[0], "book")
	pub := findKid(book, "publisher")
	if pub == nil {
		t.Fatalf("publisher missing:\n%s", tgt)
	}
	if findKid(pub, "name") != nil {
		t.Errorf("publisher name survived:\n%s", tgt)
	}
	author := findKid(book, "author")
	if findKid(author, "name") == nil {
		t.Errorf("author name wrongly dropped:\n%s", tgt)
	}
}

func TestMutateClone(t *testing.T) {
	p := compile(t, "MUTATE author [ CLONE title ]", fig1a)
	tgt := p.Final().Target
	book := findKid(tgt.Roots[0], "book")
	author := findKid(book, "author")
	clone := findKid(author, "title")
	if clone == nil || !clone.Clone {
		t.Fatalf("author has no cloned title:\n%s", tgt)
	}
	// The original title must still be under book.
	orig := findKid(book, "title")
	if orig == nil || orig.Clone {
		t.Errorf("original title missing or marked clone:\n%s", tgt)
	}
}

func TestMutateNewWrapsAuthor(t *testing.T) {
	p := compile(t, "MUTATE (NEW scribe) [ author ]", fig1a)
	tgt := p.Final().Target
	book := findKid(tgt.Roots[0], "book")
	scribe := findKid(book, "scribe")
	if scribe == nil || scribe.Source != "" {
		t.Fatalf("scribe not manufactured at author's old position:\n%s", tgt)
	}
	author := findKid(scribe, "author")
	if author == nil || findKid(author, "name") == nil {
		t.Errorf("author (with subtree) not below scribe:\n%s", tgt)
	}
}

func TestMutateRestrict(t *testing.T) {
	p := compile(t, "MUTATE (RESTRICT author [ name ])", fig1a)
	tgt := p.Final().Target
	book := findKid(tgt.Roots[0], "book")
	author := findKid(book, "author")
	if author == nil || len(author.Require) != 1 {
		t.Fatalf("author requirement missing:\n%s", tgt)
	}
	if !strings.HasSuffix(author.Require[0].Source, "author.name") {
		t.Errorf("requirement = %s", author.Require[0].Source)
	}
}

func TestMorphRestrict(t *testing.T) {
	p := compile(t, "MORPH (RESTRICT name [ author ]) [ title ]", fig1a)
	tgt := p.Final().Target
	name := tgt.Roots[0]
	if name.Name != "name" || len(name.Require) != 1 {
		t.Fatalf("restricted root wrong:\n%s", tgt)
	}
	if findKid(name, "title") == nil {
		t.Errorf("outer kids not attached:\n%s", tgt)
	}
	if findKid(name, "author") != nil {
		t.Errorf("requirement leaked into output kids:\n%s", tgt)
	}
}

func TestTranslate(t *testing.T) {
	p := compile(t, "TRANSLATE author -> writer", fig1a)
	tgt := p.Final().Target
	found := false
	tgt.Walk(func(n *TNode) {
		if n.Name == "writer" {
			found = true
		}
		if n.Name == "author" {
			t.Errorf("author not renamed:\n%s", tgt)
		}
	})
	if !found {
		t.Errorf("writer missing:\n%s", tgt)
	}
}

func TestTranslateUnknownLabel(t *testing.T) {
	s := shape.FromDocument(xmltree.MustParse(fig1a))
	if _, err := Compile(guard.MustParse("TRANSLATE ghost -> spirit"), s); err == nil {
		t.Error("TRANSLATE of unknown label should fail without TYPE-FILL")
	}
	if _, err := Compile(guard.MustParse("TYPE-FILL TRANSLATE ghost -> spirit"), s); err != nil {
		t.Errorf("TYPE-FILL TRANSLATE should tolerate unknown label: %v", err)
	}
}

func TestComposeMorphThenDrop(t *testing.T) {
	p := compile(t, "MORPH author [ name ] | MUTATE (DROP name)", fig1a)
	if len(p.Stages) != 2 {
		t.Fatalf("stages = %d", len(p.Stages))
	}
	out := p.Final().Output
	types := out.Types()
	if len(types) != 1 || types[0] != "author" {
		t.Errorf("final types = %v, want [author]", types)
	}
}

func TestComposeTranslate(t *testing.T) {
	p := compile(t, "MORPH author [ name ] | TRANSLATE author -> writer", fig1a)
	out := p.Final().Output
	if !out.HasType("writer") || !out.HasType("writer.name") {
		t.Errorf("final types = %v", out.Types())
	}
}

func TestOutputShapePredictedCards(t *testing.T) {
	// Each author gets its closest titles; an author with two books gets
	// two titles (predicted card is the path cardinality 1..2 when
	// authors have 1..2 books), whether the target skips book or keeps it.
	src := `<data>
	  <author><name>V</name>
	    <book><title>X</title></book>
	    <book><title>Y</title></book>
	  </author>
	  <author><name>U</name>
	    <book><title>Z</title></book>
	  </author>
	</data>`
	for _, tc := range []struct {
		guard, parent, child string
		want                 shape.Card
	}{
		{"MORPH author [ title ]", "author", "author.title", shape.Card{Min: 1, Max: 2}},
		{"MORPH author [ name book [ title ] ]", "author", "author.book", shape.Card{Min: 1, Max: 2}},
		{"MORPH author [ name book [ title ] ]", "author.book", "author.book.title", shape.One},
	} {
		out := compile(t, tc.guard, src).Final().Output
		c, ok := out.Card(tc.parent, tc.child)
		if !ok || c != tc.want {
			t.Errorf("%s: predicted card %s -> %s = %v %v, want %v", tc.guard, tc.parent, tc.child, c, ok, tc.want)
		}
	}
}

func TestLabelReport(t *testing.T) {
	p := compile(t, "MORPH author [ name book [ title ] ]", fig1a)
	byLabel := map[string]LabelResolution{}
	for _, l := range p.Labels {
		byLabel[l.Label] = l
	}
	name, ok := byLabel["name"]
	if !ok {
		t.Fatalf("no name entry: %+v", p.Labels)
	}
	if len(name.Candidates) != 2 {
		t.Errorf("name candidates = %v, want both name types", name.Candidates)
	}
	if len(name.Types) != 1 || !strings.Contains(name.Types[0], "author") {
		t.Errorf("name resolved = %v, want author name only", name.Types)
	}
}

func TestMorphCaseInsensitiveLabels(t *testing.T) {
	p := compile(t, "MORPH AUTHOR [ NAME ]", fig1a)
	author := p.Final().Target.Roots[0]
	if author.Source != "data.book.author" {
		t.Errorf("case-insensitive label resolution failed: %+v", author)
	}
}

func TestMatchLabel(t *testing.T) {
	tests := []struct {
		label, ty string
		want      bool
	}{
		{"author", "data.book.author", true},
		{"Author", "data.book.author", true},
		{"author", "data.book.author.name", false},
		{"book.author", "data.book.author", true},
		{"journal.author", "data.book.author", false},
		{"id", "site.item.@id", true},
		{"@id", "site.item.@id", true},
		{"@id", "site.item.id", false},
		{"data.book", "data.book", true},
		{"x.data.book", "data.book", false},
	}
	for _, tt := range tests {
		if got := MatchLabel(tt.label, tt.ty); got != tt.want {
			t.Errorf("MatchLabel(%q, %q) = %v, want %v", tt.label, tt.ty, got, tt.want)
		}
	}
}

func TestTargetReparentAndRemove(t *testing.T) {
	a := &TNode{Name: "a", Source: "a"}
	b := &TNode{Name: "b", Source: "a.b"}
	c := &TNode{Name: "c", Source: "a.b.c"}
	a.Attach(b)
	b.Attach(c)
	tgt := &Target{Roots: []*TNode{a}}

	// Swap: move a under c (c is inside a's subtree).
	if err := tgt.Reparent(c, a); err != nil {
		t.Fatal(err)
	}
	if len(tgt.Roots) != 1 || tgt.Roots[0] != c {
		t.Fatalf("roots after swap = %+v", tgt.Roots)
	}
	if a.Parent() != c || b.Parent() != a {
		t.Errorf("structure after swap wrong:\n%s", tgt)
	}

	// Remove c: a splices up to root.
	tgt.Remove(c)
	if len(tgt.Roots) != 1 || tgt.Roots[0] != a {
		t.Errorf("roots after remove = %+v", tgt.Roots)
	}
}

func TestTargetString(t *testing.T) {
	p := compile(t, "MUTATE author [ CLONE title ]", fig1a)
	s := p.Final().Target.String()
	if !strings.Contains(s, "clone of") {
		t.Errorf("target string lacks clone marker:\n%s", s)
	}
}

func TestComposedTargetFoldsPipeline(t *testing.T) {
	p := compile(t, "MORPH author [ name ] | MUTATE (DROP name)", fig1a)
	ct := p.ComposedTarget()
	if len(ct.Roots) != 1 {
		t.Fatalf("composed roots = %d\n%s", len(ct.Roots), ct)
	}
	author := ct.Roots[0]
	if author.Source != "data.book.author" || len(author.Kids) != 0 {
		t.Errorf("composed author wrong: %+v", author)
	}
}

func TestComposedTargetTranslateKeepsSources(t *testing.T) {
	p := compile(t, "MORPH author [ name ] | TRANSLATE author -> writer", fig1a)
	ct := p.ComposedTarget()
	writer := ct.Roots[0]
	if writer.Name != "writer" || writer.Source != "data.book.author" {
		t.Errorf("composed writer = %+v", writer)
	}
	if len(writer.Kids) != 1 || writer.Kids[0].Source != "data.book.author.name" {
		t.Errorf("composed kids = %+v", writer.Kids)
	}
}

func TestComposedTargetPreservesRequirements(t *testing.T) {
	p := compile(t, "CAST MORPH (RESTRICT author [ name ]) [ title ] | TRANSLATE author -> a2", fig1a)
	ct := p.ComposedTarget()
	a2 := ct.Roots[0]
	if a2.Name != "a2" || len(a2.Require) != 1 {
		t.Errorf("requirements lost in composition: %+v", a2)
	}
}

func TestComposedSingleStageIsStageTarget(t *testing.T) {
	p := compile(t, "MORPH author [ name ]", fig1a)
	if p.ComposedTarget() != p.Stages[0].Target {
		t.Error("single-stage composition should be the stage target itself")
	}
}

func TestMutateNestedRestrictRequirements(t *testing.T) {
	// RESTRICT with a nested requirement chain: authors that have a book
	// that has a title.
	p := compile(t, "MUTATE (RESTRICT author [ book [ title ] ])", fig1c)
	author := findKid(p.Final().Target.Roots[0], "author")
	if author == nil || len(author.Require) != 1 {
		t.Fatalf("requirement missing:\n%s", p.Final().Target)
	}
	req := author.Require[0]
	if !strings.HasSuffix(req.Source, "book") || len(req.Kids) != 1 || !strings.HasSuffix(req.Kids[0].Source, "title") {
		t.Errorf("nested requirement wrong: %+v", req)
	}
}

func TestMutateNewUnderContext(t *testing.T) {
	// NEW nested inside a pattern term: attaches below the context type.
	p := compile(t, "MUTATE book [ (NEW note) ]", fig1a)
	book := findKid(p.Final().Target.Roots[0], "book")
	if findKid(book, "note") == nil {
		t.Errorf("NEW under context missing:\n%s", p.Final().Target)
	}
}

func TestMutateNewAtTopLevelNoKids(t *testing.T) {
	p := compile(t, "MUTATE (NEW marker)", fig1a)
	found := false
	for _, r := range p.Final().Target.Roots {
		if r.Name == "marker" && r.Source == "" {
			found = true
		}
	}
	if !found {
		t.Errorf("top-level NEW missing:\n%s", p.Final().Target)
	}
}

func TestMorphCloneWithKids(t *testing.T) {
	p := compile(t, "MORPH author [ CLONE book [ title ] ]", fig1c)
	author := p.Final().Target.Roots[0]
	book := findKid(author, "book")
	if book == nil || !book.Clone {
		t.Fatalf("cloned book missing:\n%s", p.Final().Target)
	}
	title := findKid(book, "title")
	if title == nil || !title.Clone {
		t.Errorf("clone must mark the whole subtree:\n%s", p.Final().Target)
	}
}

func TestMorphMultiplePatterns(t *testing.T) {
	p := compile(t, "MORPH title name", fig1a)
	tgt := p.Final().Target
	names := map[string]int{}
	for _, r := range tgt.Roots {
		names[r.Name]++
	}
	if names["title"] != 1 || names["name"] != 2 {
		t.Errorf("multi-pattern roots = %v (name is ambiguous: both types become roots)", names)
	}
}

func TestTNodeCopyIndependence(t *testing.T) {
	p := compile(t, "CAST MORPH (RESTRICT author [ name ]) [ title ]", fig1a)
	orig := p.Final().Target.Roots[0]
	cp := orig.Copy()
	cp.Name = "changed"
	cp.Require[0].Source = "changed"
	if orig.Name == "changed" || orig.Require[0].Source == "changed" {
		t.Error("Copy is shallow")
	}
}

func TestEdgeCardDisconnected(t *testing.T) {
	// An edge between types from different trees predicts 0..0.
	s := shape.New()
	s.AddType("a")
	s.AddType("b")
	parent := NewLeaf("a")
	kid := NewLeaf("b")
	parent.Attach(kid)
	if c := kid.EdgeCard(s); c.Max != 0 {
		t.Errorf("disconnected edge card = %v, want 0..0", c)
	}
}

func TestTypeErrorMessage(t *testing.T) {
	e := &TypeError{Label: "ghost", Pos: 7}
	if !strings.Contains(e.Error(), "ghost") || !strings.Contains(e.Error(), "7") {
		t.Errorf("TypeError message: %s", e)
	}
}

func TestComposedTargetMultiProducerExpansion(t *testing.T) {
	// Stage 1 puts a clone of title next to the original under book; both
	// render to the same output path, so the TRANSLATE stage's single
	// "title" reference expands to both producers.
	p := compile(t, "CAST MUTATE book [ CLONE title ] | TRANSLATE title -> heading", fig1a)
	ct := p.ComposedTarget()
	var headings, clones int
	ct.Walk(func(n *TNode) {
		if n.Name == "heading" {
			headings++
			if n.Clone {
				clones++
			}
		}
	})
	if headings != 2 {
		t.Fatalf("composed headings = %d, want original + clone:\n%s", headings, ct)
	}
	if clones != 1 {
		t.Errorf("clone mark lost in composition (%d):\n%s", clones, ct)
	}
}

// cloneChain is a guard of n stages that each put a clone of b next to
// b: the composed target doubles with every stage, to 2^n+1 types.
func cloneChain(n int) string {
	return "CAST " + strings.TrimSuffix(strings.Repeat("MORPH a [ b CLONE b ] | ", n), " | ")
}

// TestComposeBounded: Compile composes the stage targets once, and a
// guard whose composed target would pass maxComposedTypes is refused at
// compile time, quickly, without building what it describes — 16 stages
// would compose to 65 537 types and 40 to about 10¹².
func TestComposeBounded(t *testing.T) {
	src := shape.FromDocument(xmltree.MustParse(`<a><b/></a>`))
	p, err := Compile(guard.MustParse(cloneChain(14)), src)
	if err != nil {
		t.Fatalf("14 stages: %v", err)
	}
	n := 0
	p.ComposedTarget().Walk(func(*TNode) { n++ })
	if n != 1<<14+1 {
		t.Errorf("14 stages composed to %d types, want %d", n, 1<<14+1)
	}
	for _, stages := range []int{16, 40} {
		start := time.Now()
		_, err := Compile(guard.MustParse(cloneChain(stages)), src)
		if err == nil || !strings.Contains(err.Error(), "composes to more than") {
			t.Errorf("%d stages: err = %v, want the composed-target cap", stages, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%d stages refused after %v", stages, d)
		}
	}
}

func TestMutateRestrictWithOuterKidsReparents(t *testing.T) {
	// RESTRICT in MUTATE with outer kids: the restricted node both gains
	// the requirement and adopts the outer pattern children.
	p := compile(t, "CAST MUTATE (RESTRICT book [ title ]) [ publisher ]", fig1a)
	tgt := p.Final().Target
	book := findKid(tgt.Roots[0], "book")
	if book == nil || len(book.Require) == 0 {
		t.Fatalf("restricted book missing requirement:\n%s", tgt)
	}
	if findKid(book, "publisher") == nil {
		t.Errorf("outer kid not reparented below restricted node:\n%s", tgt)
	}
}

// nestedAC is <root> around n nested <a><c> pairs: "MUTATE a [ CLONE c ]"
// clones every c type below every a type, and a clone of an outer c
// holds the clones already made below the a types inside it.
func nestedAC(n int) *shape.Shape {
	return shape.FromDocument(xmltree.MustParse("<root>" + strings.Repeat("<a><c>", n) + strings.Repeat("</c></a>", n) + "</root>"))
}

// TestStageCopiesBounded: a stage that copies more than maxStageCopies
// types is refused at compile time, quickly, without building what it
// describes — five pairs would build 11 412 types and six 495 047.
func TestStageCopiesBounded(t *testing.T) {
	g := guard.MustParse("CAST MUTATE a [ CLONE c ]")
	p, err := Compile(g, nestedAC(4))
	if err != nil {
		t.Fatalf("4 pairs: %v", err)
	}
	n := 0
	p.Final().Target.Walk(func(*TNode) { n++ })
	if n != 532 {
		t.Errorf("4 pairs built %d types, want 532", n)
	}
	for _, pairs := range []int{5, 6, 20} {
		src := nestedAC(pairs)
		start := time.Now()
		_, err := Compile(g, src)
		d := time.Since(start)
		if err == nil || !strings.Contains(err.Error(), "copies more than") {
			t.Errorf("%d pairs: err = %v, want the stage copy bound", pairs, err)
		}
		if d > 50*time.Millisecond {
			t.Errorf("%d pairs refused after %v", pairs, d)
		}
	}
}
