package xmltree

import (
	"io"
	"strings"
	"testing"
)

// fig1a is data instance (a) of Figure 1 in the paper: titles group authors
// and publishers under each book.
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

// fig1b nests books under publishers.
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

// fig1c is the normalized instance: books grouped under each author.
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

func TestParseFig1a(t *testing.T) {
	d, err := ParseString(fig1a)
	if err != nil {
		t.Fatal(err)
	}
	if d.Root().Name != "data" {
		t.Fatalf("root = %s, want data", d.Root().Name)
	}
	books := d.NodesOfType("data.book")
	if len(books) != 2 {
		t.Fatalf("books = %d, want 2", len(books))
	}
	if got := books[0].Dewey.String(); got != "1.1" {
		t.Errorf("first book dewey = %s, want 1.1", got)
	}
	titles := d.NodesOfType("data.book.title")
	if len(titles) != 2 || titles[0].Value != "X" || titles[1].Value != "Y" {
		t.Errorf("titles wrong: %+v", titles)
	}
	// Paper Section VII: first <author> is 1.1.2, second is 1.2.2, the
	// author names are 1.1.2.1 and 1.2.2.1, the first publisher is 1.1.3.
	authors := d.NodesOfType("data.book.author")
	if len(authors) != 2 || authors[0].Dewey.String() != "1.1.2" || authors[1].Dewey.String() != "1.2.2" {
		t.Errorf("author deweys wrong: %v", authors)
	}
	names := d.NodesOfType("data.book.author.name")
	if len(names) != 2 || names[0].Dewey.String() != "1.1.2.1" || names[1].Dewey.String() != "1.2.2.1" {
		t.Errorf("author name deweys wrong: %v", names)
	}
	pubs := d.NodesOfType("data.book.publisher")
	if pubs[0].Dewey.String() != "1.1.3" {
		t.Errorf("first publisher dewey = %s, want 1.1.3", pubs[0].Dewey)
	}
}

func TestParseTypePaths(t *testing.T) {
	d := MustParse(fig1c)
	want := []string{
		"data",
		"data.author",
		"data.author.book",
		"data.author.book.publisher",
		"data.author.book.publisher.name",
		"data.author.book.title",
		"data.author.name",
	}
	got := d.Types()
	if len(got) != len(want) {
		t.Fatalf("types = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("types[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestParseAttributes(t *testing.T) {
	d := MustParse(`<site><item id="i1" featured="yes"><name>bicycle</name></item></site>`)
	ids := d.NodesOfType("site.item.@id")
	if len(ids) != 1 || ids[0].Value != "i1" || !ids[0].Attr {
		t.Fatalf("attribute node wrong: %+v", ids)
	}
	if ids[0].LocalName() != "id" {
		t.Errorf("LocalName = %s, want id", ids[0].LocalName())
	}
	// Attributes precede element children in document order.
	item := d.NodesOfType("site.item")[0]
	if item.Children[0].Name != "@id" || item.Children[2].Name != "name" {
		t.Errorf("child order wrong: %v", item.Children)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"<a>",
		"<a></b>",
		"no xml at all",
		"<a/><b/>",
	}
	for _, s := range bad {
		if _, err := ParseString(s); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", s)
		}
	}
}

func TestParseMixedContentText(t *testing.T) {
	// The data model is unordered (Section III): an element's own character
	// data is concatenated into Value, and Text() appends descendants'
	// text after it. Interleaving of mixed content is not preserved.
	d := MustParse(`<p>hello <b>bold</b> world</p>`)
	p := d.Root()
	if got := p.Value; got != "hello  world" {
		t.Errorf("Value = %q, want %q (direct chardata only)", got, "hello  world")
	}
	if got := p.Text(); got != "hello  worldbold" {
		t.Errorf("Text = %q, want own value then descendants", got)
	}
}

func TestNodeAt(t *testing.T) {
	d := MustParse(fig1a)
	dw, _ := ParseDewey("1.1.2.1")
	n := d.NodeAt(dw)
	if n == nil || n.Name != "name" || n.Value != "V" {
		t.Fatalf("NodeAt(1.1.2.1) = %+v, want author name V", n)
	}
	if d.NodeAt(Dewey{1, 9}) != nil {
		t.Error("NodeAt out of range should be nil")
	}
	if d.NodeAt(Dewey{2}) != nil {
		t.Error("NodeAt with wrong root should be nil")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	for _, src := range []string{fig1a, fig1b, fig1c} {
		d := MustParse(src)
		out := d.XML(false)
		d2, err := ParseString(out)
		if err != nil {
			t.Fatalf("reparse: %v\noutput was: %s", err, out)
		}
		if d2.Size() != d.Size() {
			t.Errorf("round trip size %d -> %d", d.Size(), d2.Size())
		}
		ts1, ts2 := d.Types(), d2.Types()
		if strings.Join(ts1, ",") != strings.Join(ts2, ",") {
			t.Errorf("round trip types %v -> %v", ts1, ts2)
		}
	}
}

func TestSerializeEscaping(t *testing.T) {
	d, err := NewBuilder().Elem("r").Attr("a", `x<&"`).Text("1 < 2 & 3 > 2").End().Document()
	if err != nil {
		t.Fatal(err)
	}
	out := d.XML(false)
	want := `<r a="x&lt;&amp;&quot;">1 &lt; 2 &amp; 3 &gt; 2</r>`
	if out != want {
		t.Errorf("escaped output = %s, want %s", out, want)
	}
	d2, err := ParseString(out)
	if err != nil {
		t.Fatalf("reparse escaped: %v", err)
	}
	if got := d2.Root().Value; got != "1 < 2 & 3 > 2" {
		t.Errorf("reparsed text = %q", got)
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder().Document(); err == nil {
		t.Error("empty builder should fail")
	}
	if _, err := NewBuilder().Elem("a").Document(); err == nil {
		t.Error("unclosed element should fail")
	}
	// Builders may produce forests: a second top-level element starts a
	// second root tree with Dewey number 2.
	if d, err := NewBuilder().Elem("a").End().Elem("b").End().Document(); err != nil {
		t.Errorf("forest build failed: %v", err)
	} else if len(d.Roots) != 2 || d.Roots[1].Dewey.String() != "2" {
		t.Errorf("forest roots = %+v", d.Roots)
	}
	if _, err := NewBuilder().Attr("x", "y").Elem("a").End().Document(); err == nil {
		t.Error("attribute before root should fail")
	}
	if _, err := NewBuilder().Elem("a").End().End().Document(); err == nil {
		t.Error("extra End should fail")
	}
}

func TestBuilderDeweyAssignment(t *testing.T) {
	d := NewBuilder().
		Elem("data").
		Elem("book").Leaf("title", "X").End().
		Elem("book").Leaf("title", "Y").End().
		End().MustDocument()
	titles := d.NodesOfType("data.book.title")
	if titles[0].Dewey.String() != "1.1.1" || titles[1].Dewey.String() != "1.2.1" {
		t.Errorf("builder deweys wrong: %v %v", titles[0].Dewey, titles[1].Dewey)
	}
	if d.Size() != 5 {
		t.Errorf("size = %d, want 5", d.Size())
	}
}

func TestTypeHelpers(t *testing.T) {
	if TypeDistance("data.book.author", "data.book.title") != 2 {
		t.Error("typeDistance author/title should be 2")
	}
	if TypeDistance("data.book", "data.book") != 0 {
		t.Error("typeDistance to self should be 0")
	}
	if TypeDistance("data.book.publisher", "data.book.title") != 2 {
		t.Error("typeDistance publisher/title should be 2")
	}
	if TypeDistance("a.b.c", "a") != 2 {
		t.Error("typeDistance ancestor should be depth difference")
	}
	if TypeLocalName("site.item.@id") != "id" {
		t.Error("TypeLocalName should strip @")
	}
	if TypeParent("a.b.c") != "a.b" || TypeParent("a") != "" {
		t.Error("TypeParent wrong")
	}
	if TypeDepth("a.b.c") != 3 || TypeDepth("") != 0 {
		t.Error("TypeDepth wrong")
	}
}

func TestNodeDistanceMatchesTypeDistanceLowerBound(t *testing.T) {
	d := MustParse(fig1a)
	// For every pair of nodes, distance >= typeDistance of their types.
	nodes := d.Nodes()
	for _, v := range nodes {
		for _, w := range nodes {
			if v.Distance(w) < TypeDistance(v.Type, w.Type) {
				t.Fatalf("distance(%s,%s)=%d < typeDistance(%s,%s)=%d",
					v.Dewey, w.Dewey, v.Distance(w), v.Type, w.Type, TypeDistance(v.Type, w.Type))
			}
		}
	}
}

// readCounter counts the bytes a parser pulled from its input.
type readCounter struct {
	r io.Reader
	n int
}

func (c *readCounter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// nested returns depth nested <a> elements, the innermost carrying the
// given attributes.
func nested(depth int, attrs string) string {
	return strings.Repeat("<a>", depth-1) + "<a" + attrs + "/>" + strings.Repeat("</a>", depth-1)
}

// TestScanDepthBound: nesting is bounded by MaxDepth levels, attributes
// counting as one level below their element, and an unclosed <a><a><a>…
// is refused at the tag that goes too deep — after O(MaxDepth) tags of a
// million-tag body, not after reading it.
func TestScanDepthBound(t *testing.T) {
	bomb := &readCounter{r: strings.NewReader(strings.Repeat("<a>", 1<<20))}
	if _, err := Parse(bomb); err == nil {
		t.Fatal("1M-deep document parsed")
	}
	if bomb.n > 64<<10 {
		t.Errorf("depth bomb rejected only after %d bytes", bomb.n)
	}

	d, err := ParseString(nested(MaxDepth, ""))
	if err != nil {
		t.Fatalf("document at the depth limit: %v", err)
	}
	if deepest := d.Nodes()[d.Size()-1]; len(deepest.Dewey) != MaxDepth {
		t.Errorf("deepest node at level %d, want %d", len(deepest.Dewey), MaxDepth)
	}
	if _, err := ParseString(nested(MaxDepth-1, ` k="v"`)); err != nil {
		t.Errorf("attribute at the depth limit: %v", err)
	}
	for _, deep := range []string{nested(MaxDepth+1, ""), nested(MaxDepth, ` k="v"`)} {
		if _, err := ParseString(deep); err == nil {
			t.Errorf("document beyond the depth limit parsed (%d bytes)", len(deep))
		}
	}
}

// TestScanRejectsSeparatorInNames: a name holding the type-path separator
// would alias the rooted type path of a deeper node (<a.b/> and <a><b/></a>
// both type "a.b"), so it is not admitted.
func TestScanRejectsSeparatorInNames(t *testing.T) {
	for _, doc := range []string{`<a.b/>`, `<r><a.b/></r>`, `<r k.v="1"/>`} {
		if _, err := ParseString(doc); err == nil {
			t.Errorf("%s parsed", doc)
		}
	}
}
