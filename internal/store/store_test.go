package store

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"xmorph/internal/closest"
	"xmorph/internal/guard"
	"xmorph/internal/render"
	"xmorph/internal/semantics"
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

func TestShredAndLoadSequences(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	info, err := s.Shred("fig1a", strings.NewReader(fig1a), nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Types != 7 {
		t.Errorf("types = %d, want 7", info.Types)
	}
	if info.Nodes != 13 {
		t.Errorf("nodes = %d, want 13", info.Nodes)
	}

	doc, err := s.Doc("fig1a")
	if err != nil {
		t.Fatal(err)
	}
	titles := doc.NodesOfType("data.book.title")
	if len(titles) != 2 || titles[0].Value != "X" || titles[1].Value != "Y" {
		t.Fatalf("titles = %+v", titles)
	}
	if titles[0].Dewey.String() != "1.1.1" || titles[1].Dewey.String() != "1.2.1" {
		t.Errorf("title deweys = %s, %s", titles[0].Dewey, titles[1].Dewey)
	}
	authors := doc.NodesOfType("data.book.author")
	if len(authors) != 2 || authors[0].Dewey.String() != "1.1.2" {
		t.Errorf("authors = %+v", authors)
	}
	if doc.NodesOfType("no.such.type") != nil {
		t.Error("unknown type should be nil")
	}
	if doc.Size() != 13 {
		t.Errorf("Size = %d, want 13", doc.Size())
	}
}

func TestShredShapeMatchesInMemoryExtraction(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Shred("fig1a", strings.NewReader(fig1a), nil); err != nil {
		t.Fatal(err)
	}
	got, err := s.Shape("fig1a")
	if err != nil {
		t.Fatal(err)
	}
	want := shape.FromDocument(xmltree.MustParse(fig1a))
	if got.String() != want.String() {
		t.Errorf("shredded shape differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestShredOptionalChildCardinality(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	src := `<data><book><author/></book><book><author><name>V</name></author></book></data>`
	if _, err := s.Shred("d", strings.NewReader(src), nil); err != nil {
		t.Fatal(err)
	}
	sh, err := s.Shape("d")
	if err != nil {
		t.Fatal(err)
	}
	c, ok := sh.Card("data.book.author", "data.book.author.name")
	if !ok || c != (shape.Card{Min: 0, Max: 1}) {
		t.Errorf("card = %v %v, want 0..1", c, ok)
	}
}

func TestShredAttributes(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Shred("d", strings.NewReader(`<site><item id="i1"/><item id="i2"/></site>`), nil); err != nil {
		t.Fatal(err)
	}
	doc, err := s.Doc("d")
	if err != nil {
		t.Fatal(err)
	}
	ids := doc.NodesOfType("site.item.@id")
	if len(ids) != 2 || !ids[0].Attr || ids[0].Value != "i1" {
		t.Fatalf("attr nodes = %+v", ids)
	}
	if ids[0].Name != "@id" {
		t.Errorf("attr name = %q", ids[0].Name)
	}
}

func TestShredRejectsDuplicatesAndBadXML(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Shred("d", strings.NewReader("<a/>"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Shred("d", strings.NewReader("<a/>"), nil); err == nil {
		t.Error("duplicate shred accepted")
	}
	for _, bad := range []string{"", "<a>", "<a></b>", "<a/><b/>"} {
		if _, err := s.Shred("bad"+bad, strings.NewReader(bad), nil); err == nil {
			t.Errorf("bad xml %q accepted", bad)
		}
	}
}

func TestDocuments(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	s.Shred("zeta", strings.NewReader("<a/>"), nil)
	s.Shred("alpha", strings.NewReader("<b/>"), nil)
	v := s.View()
	defer v.Close()
	names, err := v.Documents()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Errorf("documents = %v", names)
	}
}

func TestLargeValuesChunked(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	big := strings.Repeat("lorem ipsum ", 1000) // ~12 KB text
	src := "<doc><body>" + big + "</body></doc>"
	if _, err := s.Shred("d", strings.NewReader(src), nil); err != nil {
		t.Fatal(err)
	}
	doc, err := s.Doc("d")
	if err != nil {
		t.Fatal(err)
	}
	bodies := doc.NodesOfType("doc.body")
	if len(bodies) != 1 || bodies[0].Value != big {
		t.Fatalf("chunked value corrupted: len=%d want %d", len(bodies[0].Value), len(big))
	}
}

func TestPersistentStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Shred("fig1a", strings.NewReader(fig1a), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	doc, err := s2.Doc("fig1a")
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.NodesOfType("data.book")) != 2 {
		t.Error("reopened store lost nodes")
	}
	sh, err := s2.Shape("fig1a")
	if err != nil || !sh.HasType("data.book.title") {
		t.Errorf("reopened shape wrong: %v", err)
	}
}

// TestRenderFromStore runs the full stored pipeline: shred -> compile
// against the stored shape -> render from lazy type sequences — and checks
// the result matches rendering from the parsed document.
func TestRenderFromStore(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Shred("fig1a", strings.NewReader(fig1a), nil); err != nil {
		t.Fatal(err)
	}
	sh, err := s.Shape("fig1a")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := semantics.Compile(guard.MustParse("MORPH author [ name book [ title ] ]"), sh)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := s.Doc("fig1a")
	if err != nil {
		t.Fatal(err)
	}
	out, err := render.Render(doc, plan.Final().Target, nil)
	if err != nil {
		t.Fatal(err)
	}

	mem := xmltree.MustParse(fig1a)
	memPlan, err := semantics.Compile(guard.MustParse("MORPH author [ name book [ title ] ]"), shape.FromDocument(mem))
	if err != nil {
		t.Fatal(err)
	}
	memOut, err := render.Render(mem, memPlan.Final().Target, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.XML(false) != memOut.XML(false) {
		t.Errorf("store render differs:\nstore: %s\nmem:   %s", out.XML(false), memOut.XML(false))
	}
}

// TestStoreIdentityMutate: a full MUTATE from the store reproduces the
// document (closest graphs match).
func TestStoreIdentityMutate(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Shred("fig1a", strings.NewReader(fig1a), nil); err != nil {
		t.Fatal(err)
	}
	sh, _ := s.Shape("fig1a")
	plan, err := semantics.Compile(guard.MustParse("MUTATE data"), sh)
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := s.Doc("fig1a")
	out, err := render.Render(doc, plan.Final().Target, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := xmltree.MustParse(fig1a)
	if out.XML(false) != in.XML(false) {
		t.Errorf("identity from store:\nout %s\nin  %s", out.XML(false), in.XML(false))
	}
	// Structural sanity via closest graphs on the serialized result.
	rg := closest.Build(xmltree.MustParse(out.XML(false)))
	ig := closest.Build(in)
	if rg.NumEdges() != ig.NumEdges() || rg.NumVertices() != ig.NumVertices() {
		t.Errorf("closest graphs differ: %d/%d vs %d/%d edges/vertices",
			rg.NumEdges(), rg.NumVertices(), ig.NumEdges(), ig.NumVertices())
	}
}

func TestNodeKeyLayout(t *testing.T) {
	k0 := nodeKey(1, 2, xmltree.Dewey{1, 3}, 0)
	k1 := nodeKey(1, 2, xmltree.Dewey{1, 3}, 1)
	k2 := nodeKey(1, 2, xmltree.Dewey{1, 4}, 0)
	if !(string(k0) < string(k1) && string(k1) < string(k2)) {
		t.Error("node keys out of order: chunks must sort within a dewey, deweys in document order")
	}
	if len(k0) != 9+8+2 {
		t.Errorf("key length = %d", len(k0))
	}
}

func TestReconstruct(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	src := `<site><item id="i1"><name>bike</name><price>5</price></item><item id="i2"><name>car</name></item></site>`
	if _, err := s.Shred("d", strings.NewReader(src), nil); err != nil {
		t.Fatal(err)
	}
	doc, err := s.Doc("d")
	if err != nil {
		t.Fatal(err)
	}
	re, err := doc.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if re.XML(false) != xmltree.MustParse(src).XML(false) {
		t.Errorf("reconstruct mismatch:\n%s\n%s", re.XML(false), xmltree.MustParse(src).XML(false))
	}
}

func TestReconstructLargerDocument(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Shred("fig", strings.NewReader(fig1a), nil); err != nil {
		t.Fatal(err)
	}
	doc, _ := s.Doc("fig")
	re, err := doc.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if re.XML(false) != xmltree.MustParse(fig1a).XML(false) {
		t.Errorf("reconstruct fig1a mismatch")
	}
}

func TestDropDocument(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Shred("a", strings.NewReader(fig1a), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Shred("b", strings.NewReader("<x><y>1</y></x>"), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Drop("a"); err != nil {
		t.Fatal(err)
	}
	v := s.View()
	defer v.Close()
	names, _ := v.Documents()
	if len(names) != 1 || names[0] != "b" {
		t.Errorf("documents after drop = %v", names)
	}
	if _, err := s.Doc("a"); err == nil {
		t.Error("dropped document still loadable")
	}
	// The other document is untouched.
	d, err := s.Doc("b")
	if err != nil || len(d.NodesOfType("x.y")) != 1 {
		t.Errorf("sibling document damaged: %v", err)
	}
	// Re-shredding under the same name works.
	if _, err := s.Shred("a", strings.NewReader("<z/>"), nil); err != nil {
		t.Errorf("re-shred after drop: %v", err)
	}
	if err := s.Drop("never"); err == nil {
		t.Error("dropping a missing document should fail")
	}
}

func TestBlobChunkBoundaries(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	// Values at exactly the chunk size and one over: both must survive.
	for i, size := range []int{1399, 1400, 1401, 2800, 2801} {
		val := strings.Repeat("x", size)
		src := "<d><v>" + val + "</v></d>"
		name := fmt.Sprintf("doc%d", i)
		if _, err := s.Shred(name, strings.NewReader(src), nil); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		doc, err := s.Doc(name)
		if err != nil {
			t.Fatal(err)
		}
		vs := doc.NodesOfType("d.v")
		if len(vs) != 1 || len(vs[0].Value) != size {
			t.Errorf("size %d: got %d bytes back", size, len(vs[0].Value))
		}
	}
}

func TestEmptyElementValues(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Shred("d", strings.NewReader("<a><b/><b>x</b><b/></a>"), nil); err != nil {
		t.Fatal(err)
	}
	doc, _ := s.Doc("d")
	bs := doc.NodesOfType("a.b")
	if len(bs) != 3 || bs[0].Value != "" || bs[1].Value != "x" || bs[2].Value != "" {
		t.Errorf("empty values mishandled: %+v", bs)
	}
}
