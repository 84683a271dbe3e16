package store_test

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"

	"xmorph/internal/gen/random"
	"xmorph/internal/gen/xmark"
	"xmorph/internal/shape"
	"xmorph/internal/store"
	"xmorph/internal/xmltree"
)

// checkShredAgainstParse is the ingest differential: the stored path and
// the in-memory path read one input the same way. Shred accepts exactly
// what xmltree.Parse accepts; an accepted document round-trips — every
// node reachable through NodesOfType, the counts agreeing with ShredInfo
// and the Size scan — reconstructs to the parsed tree's bytes, and its
// stored shape is the shape inferred from the parsed tree.
func checkShredAgainstParse(t testing.TB, data []byte) {
	t.Helper()
	parsed, parseErr := xmltree.Parse(bytes.NewReader(data))
	st := store.OpenMemory()
	defer st.Close()
	info, err := st.Shred("doc", bytes.NewReader(data), nil)
	if (err == nil) != (parseErr == nil) {
		t.Fatalf("Shred and Parse disagree on acceptance: shred err %v, parse err %v", err, parseErr)
	}
	if err != nil {
		return // rejected by both; that's a valid outcome
	}
	d, err := st.Doc("doc")
	if err != nil {
		t.Fatalf("Shred succeeded but Doc failed: %v", err)
	}
	nodes := 0
	for _, typ := range d.Types() {
		nodes += len(d.NodesOfType(typ))
	}
	if nodes != info.Nodes {
		t.Fatalf("NodesOfType found %d nodes, ShredInfo reported %d", nodes, info.Nodes)
	}
	if sz := d.Size(); sz != info.Nodes {
		t.Fatalf("Size scan counted %d nodes, ShredInfo reported %d", sz, info.Nodes)
	}
	re, err := d.Reconstruct()
	if err != nil {
		t.Fatalf("stored document does not reconstruct: %v", err)
	}
	if got, want := re.XML(false), parsed.XML(false); got != want {
		t.Fatalf("reconstruction differs from the parsed input:\nstored: %s\nparsed: %s", got, want)
	}
	stored, err := st.Shape("doc")
	if err != nil {
		t.Fatalf("Shape: %v", err)
	}
	if inferred := shape.FromDocument(parsed); store.HashShape(stored) != store.HashShape(inferred) {
		t.Fatalf("stored shape differs from the shape of the parsed input:\nstored:\n%s\nparsed:\n%s", stored, inferred)
	}
}

// FuzzShred feeds arbitrary bytes to the shredder and holds it to
// checkShredAgainstParse, without ever panicking.
func FuzzShred(f *testing.F) {
	f.Add([]byte("<catalog><item id=\"a\"><name>x</name></item><item>y</item></catalog>"))
	f.Add([]byte("<a><b/><b attr=\"1\">text</b><c>mixed<d/>tail</c></a>"))
	f.Add([]byte("not xml at all"))
	f.Add([]byte("<unclosed><tag>"))
	f.Add([]byte("<a xmlns:p=\"urn:x\"><p:b>ns</p:b></a>"))
	f.Add([]byte("<a>\xff\xfe bad utf8</a>"))
	f.Add([]byte("<a><!-- comment --><?pi data?><![CDATA[cd]]></a>"))
	// Found by this target at PR 15's parent: a dotted name gave a node a
	// type path one level deeper than its Dewey number, and the read
	// paths silently skipped it.
	f.Add([]byte("<a A.0=\"\"><p:b></p:b></a>"))
	// Nesting at and just past xmltree.MaxDepth; past it Shred used to
	// fail only at flush time, on the key size, where Parse succeeded.
	f.Add([]byte(nestedDoc(xmltree.MaxDepth, "")))
	f.Add([]byte(nestedDoc(xmltree.MaxDepth+1, "")))
	f.Add([]byte(nestedDoc(xmltree.MaxDepth, ` k="v"`)))

	f.Fuzz(func(t *testing.T, data []byte) { checkShredAgainstParse(t, data) })
}

// nestedDoc returns depth nested <a> elements, the innermost carrying the
// given attributes.
func nestedDoc(depth int, attrs string) string {
	return strings.Repeat("<a>", depth-1) + "<a" + attrs + "/>" + strings.Repeat("</a>", depth-1)
}

// TestShredAgainstParse runs the FuzzShred differential over the seeded
// random documents of the update sweep and over XMark sf 0.02.
func TestShredAgainstParse(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 200; i++ {
		checkShredAgainstParse(t, []byte(random.Doc(rng).XML(false)))
	}
	checkShredAgainstParse(t, []byte(xmark.Generate(xmark.Config{Factor: 0.02, Seed: 1}).XML(false)))
}

// byteCounter counts the bytes Shred pulled from its input.
type byteCounter struct {
	r io.Reader
	n int
}

func (c *byteCounter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestShredDepthBound: a document at xmltree.MaxDepth shreds and
// reconstructs, one level more is refused by Shred as by Parse, an
// unclosed <a><a><a>… is refused after O(MaxDepth) tags rather than
// after its million, and a fragment grafted below the deepest level is
// refused before anything is written.
func TestShredDepthBound(t *testing.T) {
	atLimit := nestedDoc(xmltree.MaxDepth, "")
	for _, doc := range []string{atLimit, nestedDoc(xmltree.MaxDepth+1, ""), nestedDoc(xmltree.MaxDepth, ` k="v"`)} {
		checkShredAgainstParse(t, []byte(doc))
	}
	st := store.OpenMemory()
	defer st.Close()
	shredInto(t, st, "deep", atLimit)

	bomb := &byteCounter{r: strings.NewReader(strings.Repeat("<a>", 1<<20))}
	if _, err := st.Shred("bomb", bomb, nil); err == nil {
		t.Fatal("1M-deep document shredded")
	}
	if bomb.n > 64<<10 {
		t.Errorf("depth bomb rejected only after %d bytes", bomb.n)
	}

	deepest := strings.TrimSuffix(strings.Repeat("a.", xmltree.MaxDepth), ".")
	for _, script := range []string{"insert <x/> into " + deepest, "insert <x><y/></x> after " + deepest} {
		if _, err := st.Update("deep", mustOps(t, script), nil); err == nil {
			t.Errorf("Update(%q) put a node below level %d", script[:24], xmltree.MaxDepth)
		}
	}
	if got := reconstructXML(t, st, "deep"); got != atLimit {
		t.Error("refused updates changed the document")
	}
}

// TestShredXMarkSeed81RoundTrip: XMark sf 0.05 seed 81 (as 116, 204 and
// 309) lays two ~1.4 KB text chunks side by side in one leaf at the
// moment it splits — the B+tree's byte-midpoint split used to leave the
// left half over a page and the shred failed with "node overflows page
// (4098 bytes)". The document must shred and read back as generated.
func TestShredXMarkSeed81RoundTrip(t *testing.T) {
	want := xmark.Generate(xmark.Config{Factor: 0.05, Seed: 81}).XML(false)
	st := store.OpenMemory()
	defer st.Close()
	shredInto(t, st, "d", want)
	if reconstructXML(t, st, "d") != want {
		t.Error("reconstruction differs from the generated document")
	}
}
