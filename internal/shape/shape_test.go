package shape

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

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

// fig5e is an instance-(c)-shaped document rich enough to exhibit the 1..2
// cardinalities of Figure 5: author V has two books, author U has one.
const fig5e = `<data>
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
  <author>
    <name>U</name>
    <book>
      <title>Z</title>
      <publisher><name>P</name></publisher>
    </book>
  </author>
</data>`

func shapeOf(t *testing.T, src string) *Shape {
	t.Helper()
	s := FromDocument(xmltree.MustParse(src))
	if err := s.Validate(); err != nil {
		t.Fatalf("extracted shape invalid: %v", err)
	}
	return s
}

// TestFromDocumentFig5a checks the adorned shape of Figure 1(a) against
// Figure 5: data has 1..2 books, each book has exactly one title, author,
// and publisher.
func TestFromDocumentFig5a(t *testing.T) {
	s := shapeOf(t, fig1a)
	wantEdges := []struct {
		p, c string
		card Card
	}{
		{"data", "data.book", Card{2, 2}},
		{"data.book", "data.book.title", Card{1, 1}},
		{"data.book", "data.book.author", Card{1, 1}},
		{"data.book", "data.book.publisher", Card{1, 1}},
		{"data.book.author", "data.book.author.name", Card{1, 1}},
		{"data.book.publisher", "data.book.publisher.name", Card{1, 1}},
	}
	for _, e := range wantEdges {
		c, ok := s.Card(e.p, e.c)
		if !ok {
			t.Errorf("missing edge %s -> %s", e.p, e.c)
			continue
		}
		if c != e.card {
			t.Errorf("card(%s -> %s) = %s, want %s", e.p, e.c, c, e.card)
		}
	}
	if got := len(s.Types()); got != 7 {
		t.Errorf("types = %d, want 7", got)
	}
	if rs := s.Roots(); len(rs) != 1 || rs[0] != "data" {
		t.Errorf("roots = %v, want [data]", rs)
	}
}

// TestFromDocumentFig5e checks the adorned shape of instance (c): each
// author has 1..2 books.
func TestFromDocumentFig5e(t *testing.T) {
	s := shapeOf(t, fig5e)
	c, ok := s.Card("data.author", "data.author.book")
	if !ok || c != (Card{1, 2}) {
		t.Errorf("card(author -> book) = %v %v, want 1..2", c, ok)
	}
	c, ok = s.Card("data.author", "data.author.name")
	if !ok || c != (Card{1, 1}) {
		t.Errorf("card(author -> name) = %v, want 1..1", c)
	}
}

// TestOptionalChildZeroMin reproduces the paper's example: if the leftmost
// author has no name, the author -> name edge becomes 0..1.
func TestOptionalChildZeroMin(t *testing.T) {
	s := shapeOf(t, `<data>
	  <book><author/></book>
	  <book><author><name>V</name></author></book>
	</data>`)
	c, ok := s.Card("data.book.author", "data.book.author.name")
	if !ok || c != (Card{0, 1}) {
		t.Errorf("card(author -> name) = %v %v, want 0..1", c, ok)
	}
}

func TestCardMulSaturates(t *testing.T) {
	big := Card{Min: CardCap, Max: CardCap}
	got := big.Mul(Card{2, 3})
	if got.Min != CardCap || got.Max != CardCap {
		t.Errorf("saturating mul = %v", got)
	}
	if (Card{3, 4}).Mul(Card{5, 6}) != (Card{15, 24}) {
		t.Error("plain mul wrong")
	}
	if got := big.String(); got != "*..*" {
		t.Errorf("saturated String = %s", got)
	}
}

// TestPathCardTable1 reproduces Table I: the path cardinality between type
// pairs of adorned shape (e) (the shape of instance (c) of Figure 1).
func TestPathCardTable1(t *testing.T) {
	s := shapeOf(t, fig5e)
	const (
		data   = "data"
		author = "data.author"
		name   = "data.author.name"
		book   = "data.author.book"
		title  = "data.author.book.title"
		pub    = "data.author.book.publisher"
		pname  = "data.author.book.publisher.name"
	)
	tests := []struct {
		from, to string
		want     Card
	}{
		// Self paths and upward paths are 1..1.
		{author, author, One},
		{title, book, One},
		{pname, data, One},
		// Downward paths multiply cardinalities.
		{data, author, Card{2, 2}},
		{author, book, Card{1, 2}},
		{author, title, Card{1, 2}},
		{author, pname, Card{1, 2}},
		{data, pname, Card{2, 4}},
		// Sibling-ish paths: up to the LCA (1..1) then down.
		{name, book, Card{1, 2}},
		{name, title, Card{1, 2}},
		{title, pname, One},
		{pname, title, One},
		{book, title, One},
		{title, name, One},
	}
	for _, tt := range tests {
		got, ok := s.PathCardOf(tt.from, tt.to)
		if !ok {
			t.Errorf("PathCard(%s, %s): no path", tt.from, tt.to)
			continue
		}
		if got != tt.want {
			t.Errorf("PathCard(%s, %s) = %s, want %s", tt.from, tt.to, got, tt.want)
		}
	}
}

func TestPathCardUnknownType(t *testing.T) {
	s := shapeOf(t, fig1c)
	if _, ok := s.PathCardOf("data", "nope"); ok {
		t.Error("PathCard with unknown type should fail")
	}
}

func TestLCADifferentTrees(t *testing.T) {
	s := New()
	s.AddType("a")
	s.AddType("b")
	if _, ok := s.PathCardOf("a", "b"); ok {
		t.Error("PathCard across trees should report no path")
	}
}

func TestAddEdgeRejectsSecondParentAndCycles(t *testing.T) {
	s := New()
	if err := s.AddEdge("a", "b", One); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge("b", "c", One); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge("x", "b", One); err == nil {
		t.Error("second parent accepted")
	}
	if err := s.AddEdge("c", "a", One); err == nil {
		t.Error("cycle accepted")
	}
	if err := s.AddEdge("a", "a", One); err == nil {
		t.Error("self edge accepted")
	}
}

// TestAddEdgeReplacesCard: replacing an edge's card moves every path
// cardinality through it, below the edge as well.
func TestAddEdgeReplacesCard(t *testing.T) {
	s := New()
	for _, e := range [][2]string{{"a", "a.b"}, {"a.b", "a.b.c"}} {
		if err := s.AddEdge(e[0], e[1], Card{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddEdge("a", "a.b", Card{0, 3}); err != nil {
		t.Fatal(err)
	}
	if c, ok := s.PathCardOf("a", "a.b.c"); !ok || c != (Card{0, 6}) {
		t.Errorf("PathCard(a, a.b.c) = %s %v, want 0..6", c, ok)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestShapeString(t *testing.T) {
	s := shapeOf(t, fig5e)
	out := s.String()
	if !strings.Contains(out, "data.author.book 1..2") {
		t.Errorf("String missing cardinality:\n%s", out)
	}
	if !strings.HasPrefix(out, "data\n") {
		t.Errorf("String should start at root:\n%s", out)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	s := shapeOf(t, fig1c)
	// Corrupt: an edge missing from its parent's children.
	a, n := s.ids["data.author"], s.ids["data.author.name"]
	s.kids[a] = slices.DeleteFunc(slices.Clone(s.kids[a]), func(k int) bool { return k == n })
	if err := s.Validate(); err == nil {
		t.Error("Validate missed an edge missing from the children index")
	}
	// Corrupt: a cycle, data below its own descendant.
	s = shapeOf(t, fig1c)
	s.f.parent[s.ids["data"]] = n
	if err := s.Validate(); err == nil {
		t.Error("Validate missed a cycle")
	}
}

// randomShapeDoc builds random documents for the property checks.
func randomShapeDoc(r *rand.Rand) *xmltree.Document {
	labels := []string{"p", "q", "r", "s"}
	b := xmltree.NewBuilder().Elem("top")
	depth := 0
	for i := 0; i < 2+r.Intn(30); i++ {
		if depth > 0 && r.Intn(3) == 0 {
			b.End()
			depth--
			continue
		}
		b.Elem(labels[r.Intn(len(labels))])
		if r.Intn(2) == 0 {
			b.End()
		} else {
			depth++
		}
	}
	for ; depth >= 0; depth-- {
		b.End()
	}
	return b.MustDocument()
}

// TestPropertyExtractedShapesValid: FromDocument always yields a valid
// forest whose types equal the document's types (DESIGN.md's promised
// property).
func TestPropertyExtractedShapesValid(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Values: func(vals []reflect.Value, r *rand.Rand) {
		vals[0] = reflect.ValueOf(randomShapeDoc(r))
	}}
	if err := quick.Check(func(d *xmltree.Document) bool {
		s := FromDocument(d)
		if s.Validate() != nil {
			return false
		}
		return s.NumTypes() == len(d.Types())
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyPathCardLaws: PathCardOf(t,t) = 1..1; upward paths are 1..1;
// path cardinality composes multiplicatively down any root-to-leaf chain.
func TestPropertyPathCardLaws(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150, Values: func(vals []reflect.Value, r *rand.Rand) {
		vals[0] = reflect.ValueOf(randomShapeDoc(r))
	}}
	if err := quick.Check(func(d *xmltree.Document) bool {
		s := FromDocument(d)
		for _, t1 := range s.Types() {
			if c, ok := s.PathCardOf(t1, t1); !ok || c != One {
				return false
			}
			// Upward to any ancestor: 1..1.
			for p, ok := s.Parent(t1); ok; p, ok = s.Parent(p) {
				if c, ok2 := s.PathCardOf(t1, p); !ok2 || c != One {
					return false
				}
			}
			// Downward decomposition: pathCard(root, t) equals the product
			// of edge cards along the chain.
			chainCard := One
			var chain []string
			for x := t1; ; {
				p, ok := s.Parent(x)
				if !ok {
					break
				}
				chain = append([]string{x}, chain...)
				x = p
			}
			prev := ""
			for i, x := range chain {
				if i == 0 {
					prev, _ = func() (string, bool) { return s.Parent(x) }()
				}
				ec, _ := s.Card(prev, x)
				chainCard = chainCard.Mul(ec)
				prev = x
			}
			if len(chain) > 0 {
				root := chain[0]
				rp, _ := s.Parent(root)
				if got, ok := s.PathCardOf(rp, t1); ok && got != chainCard {
					return false
				}
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}
