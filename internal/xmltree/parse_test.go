package xmltree

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
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

// scanReference is the encoding/xml token loop Scan ran before its byte
// scanner, kept verbatim as the oracle FuzzScan holds Scan to.
func scanReference(r io.Reader, h Handler) error {
	dec := xml.NewDecoder(r)
	depth, rooted := 0, false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("xmltree: scan: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if depth == 0 && rooted {
				return fmt.Errorf("xmltree: scan: multiple root elements")
			}
			if depth++; depth > MaxDepth {
				return fmt.Errorf("xmltree: scan: <%s> is nested deeper than %d levels", t.Name.Local, MaxDepth)
			}
			if err := checkName(t.Name.Local); err != nil {
				return err
			}
			rooted = true
			h.Start(t.Name.Local)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				if depth == MaxDepth {
					return fmt.Errorf("xmltree: scan: attribute %s of <%s> lies deeper than %d levels", a.Name.Local, t.Name.Local, MaxDepth)
				}
				if err := checkName(a.Name.Local); err != nil {
					return err
				}
				h.Attr(a.Name.Local, a.Value)
			}
		case xml.EndElement:
			if depth == 0 {
				return fmt.Errorf("xmltree: scan: unbalanced end element %s", t.Name.Local)
			}
			depth--
			h.End()
		case xml.CharData:
			if depth > 0 && len(bytes.TrimSpace(t)) > 0 {
				h.Text(string(t))
			}
		}
		if err := h.Err(); err != nil {
			return err
		}
	}
	if !rooted {
		return fmt.Errorf("xmltree: scan: no root element")
	}
	if depth != 0 {
		return fmt.Errorf("xmltree: scan: unexpected end of input with %d open element(s)", depth)
	}
	return nil
}

// elementReference is how the update language found the end of an XML
// fragment before ParseElement: the encoding/xml token loop up to the
// first element's end, refusing text ahead of it, then a parse of what it
// spanned as a document.
func elementReference(s string) (int, error) {
	dec := xml.NewDecoder(strings.NewReader(s))
	depth, started := 0, false
	for !started || depth > 0 {
		tok, err := dec.Token()
		if err != nil {
			return 0, err
		}
		switch tok.(type) {
		case xml.StartElement:
			depth++
			started = true
		case xml.EndElement:
			depth--
		case xml.CharData:
			if !started && strings.TrimSpace(string(tok.(xml.CharData))) != "" {
				return 0, fmt.Errorf("text before the root element")
			}
		}
	}
	end := int(dec.InputOffset())
	return end, scanReference(strings.NewReader(s[:end]), &eventLog{})
}

// eventLog records the events a Handler receives.
type eventLog struct{ events []string }

func (l *eventLog) Start(name string)       { l.events = append(l.events, "<"+name) }
func (l *eventLog) Attr(name, value string) { l.events = append(l.events, "@"+name+"="+value) }
func (l *eventLog) Text(s string)           { l.events = append(l.events, "#"+s) }
func (l *eventLog) End()                    { l.events = append(l.events, ">") }
func (l *eventLog) Err() error              { return nil }

// checkScan holds Scan to scanReference on one input: both accept it or
// both reject it, and an accepted input gives both the same events —
// read whole, and again a byte per Read so that every token crosses a
// buffer boundary. An input that starts with '<' is also an update
// fragment: ParseElement finds the same end as elementReference.
func checkScan(t testing.TB, data []byte) {
	t.Helper()
	var want eventLog
	wantErr := scanReference(bytes.NewReader(data), &want)
	for _, r := range []io.Reader{bytes.NewReader(data), iotest.OneByteReader(bytes.NewReader(data))} {
		var got eventLog
		err := Scan(r, &got)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Scan(%q) = %v, encoding/xml loop: %v", data, err, wantErr)
		}
		if err == nil && !slices.Equal(got.events, want.events) {
			t.Fatalf("Scan(%q) events differ:\n got %q\nwant %q", data, got.events, want.events)
		}
	}
	if len(data) == 0 || data[0] != '<' {
		return
	}
	wantN, wantErr := elementReference(string(data))
	_, n, err := ParseElement(string(data))
	if (err == nil) != (wantErr == nil) || err == nil && n != wantN {
		t.Fatalf("ParseElement(%q) = %d, %v; encoding/xml loop: %d, %v", data, n, err, wantN, wantErr)
	}
}

// FuzzScan is the differential between Scan's byte scanner and the
// encoding/xml loop it replaced; the seeds visit each rule of the
// language they share.
func FuzzScan(f *testing.F) {
	for _, s := range []string{
		fig1a,
		`<catalog><item id="a"><name>x</name></item><item>y</item></catalog>`,
		`abc<a/>`,                          // text outside the root is checked, then dropped
		"<a>\r\n\rx\r</a>",                 // line ends
		"<a k='\r\n\t'>\r</a>",             // in attribute values too
		`<a>&lt;&gt;&amp;&apos;&quot;</a>`, // the five predefined entities
		`<a>&#65;&#x42;&#X43;</a>`,         // upper-case X is no hex marker
		`<a>&#0;</a>`,                      // not an XML character
		`<a>&#xD800;</a>`,                  // a surrogate reads as U+FFFD
		`<a>&#x110000;</a>`,
		`<a>&#65</a>`, // no semicolon
		`<a>&#;</a>`,
		`<a>&nbsp;</a>`,
		`<a>&lt</a>`,
		`<a>&#xA0;</a>`,    // blank by unicode.IsSpace
		"<a>\u2003</a>",    // likewise
		"<a>\x01</a>",      // a control character
		"<a>\xc3</a>",      // invalid UTF-8
		"<a k='\xff'/>",    // in an attribute value
		"\xef\xbb\xbf<a/>", // a byte-order mark is text outside the root
		"\x00<a/>",
		`<a><![CDATA[x]]y<&]]></a>`,
		`<a> <![CDATA[ ]]> </a>`,
		`<a><![CDATA[]]></a>`,
		`<a><![CDATA[x</a>`,
		`<a>]]></a>`,   // only a CDATA section may hold ]]>
		`<a k="]]>"/>`, // an attribute value may
		`<a>]>x]] ></a>`,
		`<a>x<!--c-->y<?p q?>z</a>`, // three runs of text
		`<!-- a - b --><a/>`,
		`<!-- a -- b --><a/>`, // "--" must end a comment
		`<!---><a/>-->`,
		`<!----><a/>`,
		`<?xml version="1.0" encoding="UTF-8"?><a/>`,
		`<?xml version='1.1'?><a/>`,
		`<?xml version="1.0" encoding="latin1"?><a/>`,
		`<?xml encoding="utf-8"?><a/>`,
		`<?xml-stylesheet href="s"?><a/>`,
		`<??><a/>`,
		`<?1x?><a/>`,
		`<?é:a:b?><a/>`, // a target may hold two colons
		`<?a??><a/>`,
		`<!DOCTYPE a [<!ENTITY x 'y'>]><a/>`,
		`<!DOCTYPE a [<!-- > --> '>' "<" <!ELEMENT a ANY>]><a/>`,
		`<!DOCTYPE a <!- x >><a/>`,
		`<!><a/>`,
		`<!'><a/>`,
		`<![CDAT[x]]><a/>`,
		`<a:b:c/>`, // two colons in a name
		`<:a/>`,
		`<a:/>`,
		`<p:a></q:a>`, // an end tag repeats the raw name
		`<p:a></p:a>`,
		`<p:a></a>`,
		`<a></a >`,
		`<a></a x>`,
		`<é/>`,
		"<a\u00b7/>",
		"<\u00b7a/>",
		`<a é="1" b·="2"/>`,
		`<1a/>`,
		`<a 1="x"/>`,
		`<a x="1"y="2"/>`,
		`<a x = '1' />`,
		`<a x="1" x="2"/>`,
		`<a x=1/>`,
		`<a x/>`,
		`<a x="<"/>`,
		`<a/ >`,
		`<a xmlns="u" xmlns:p="v" p:x="1" q:xmlns="2" xmlns:="3" :xmlns="4"/>`,
		`<a xmlns:p='xmlns' p:x='1'/>`, // a prefix bound to the URI "xmlns"
		`<a p:x='1' xmlns:p='xmlns'/>`, // declared anywhere in the tag
		`<a xmlns:p='xmlns' xmlns:p='u' p:x='1'/>`,
		`<r><a xmlns:p="xmlns"><b p:x="1"/></a><c p:x="2"/></r>`, // scoped to the element
		`<a xmlns:xml="xmlns" xml:lang="en"/>`,                   // xml is never resolved
		`<a.b/>`,
		`<r k.v="1"/>`,
		`<a/><b/>`,
		`<a>`,
		`</a>`,
		``,
		`   `,
		`<a`,
		`<a x="1`,
		"<a>\n<b>\n</c>\n</a>",
		nested(MaxDepth, ` k="v"`),
		nested(MaxDepth+1, ""),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkScan(t, data) })
}

// TestScanReadErrorWraps: an error of the reader surfaces wrapped, so
// callers can still tell it apart from malformed input.
func TestScanReadErrorWraps(t *testing.T) {
	r := io.MultiReader(strings.NewReader("<a><b"), iotest.ErrReader(io.ErrUnexpectedEOF))
	if err := Scan(r, &eventLog{}); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("Scan = %v, want it to wrap the read error", err)
	}
}
