package closest

import (
	"math/rand"
	"reflect"
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

func TestTypeLCP(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"data.book.title", "data.book.publisher", 2},
		{"data.book", "data.book", 2},
		{"data.book.title", "data.other", 1},
		{"a", "b", 0},
		{"data", "data.book", 1},
	}
	for _, tt := range tests {
		if got := typeLCP(tt.a, tt.b); got != tt.want {
			t.Errorf("typeLCP(%s, %s) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

// TestJoinPaperWalkthrough reproduces the three joins of Section VII on
// Figure 1(a) under the guard MORPH author [ name book [ title ] ].
func TestJoinPaperWalkthrough(t *testing.T) {
	d := xmltree.MustParse(fig1a)
	authors := d.NodesOfType("data.book.author")
	names := d.NodesOfType("data.book.author.name")
	books := d.NodesOfType("data.book")
	titles := d.NodesOfType("data.book.title")

	pairsStr := func(ps []Pair) [][2]string {
		out := make([][2]string, len(ps))
		for i, p := range ps {
			out[i] = [2]string{p.V.Dewey.String(), p.W.Dewey.String()}
		}
		return out
	}

	// 1) authors CLOSE names = {(1.1.2, 1.1.2.1), (1.2.2, 1.2.2.1)}
	got := pairsStr(Join(authors, names))
	want := [][2]string{{"1.1.2", "1.1.2.1"}, {"1.2.2", "1.2.2.1"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("authors CLOSE names = %v, want %v", got, want)
	}

	// 2) authors CLOSE books = {(1.1.2, 1.1), (1.2.2, 1.2)}
	got = pairsStr(Join(authors, books))
	want = [][2]string{{"1.1.2", "1.1"}, {"1.2.2", "1.2"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("authors CLOSE books = %v, want %v", got, want)
	}

	// 3) books CLOSE titles = {(1.1, 1.1.1), (1.2, 1.2.1)}
	got = pairsStr(Join(books, titles))
	want = [][2]string{{"1.1", "1.1.1"}, {"1.2", "1.2.1"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("books CLOSE titles = %v, want %v", got, want)
	}
}

// TestJoinPublisherTitle reproduces the Section VII node-number example:
// publisher 1.1.3 is closest to title 1.1.1 but not 1.2.1.
func TestJoinPublisherTitle(t *testing.T) {
	d := xmltree.MustParse(fig1a)
	pubs := d.NodesOfType("data.book.publisher")
	titles := d.NodesOfType("data.book.title")
	ps := Join(pubs, titles)
	if len(ps) != 2 {
		t.Fatalf("pairs = %d, want 2", len(ps))
	}
	if ps[0].V.Dewey.String() != "1.1.3" || ps[0].W.Dewey.String() != "1.1.1" {
		t.Errorf("first pair = (%s, %s)", ps[0].V.Dewey, ps[0].W.Dewey)
	}
	if ps[1].V.Dewey.String() != "1.2.3" || ps[1].W.Dewey.String() != "1.2.1" {
		t.Errorf("second pair = (%s, %s)", ps[1].V.Dewey, ps[1].W.Dewey)
	}
}

func TestJoinSameType(t *testing.T) {
	d := xmltree.MustParse(fig1a)
	books := d.NodesOfType("data.book")
	ps := Join(books, books)
	if len(ps) != 2 {
		t.Fatalf("same-type join = %d pairs, want reflexive pairs only", len(ps))
	}
	for _, p := range ps {
		if p.V != p.W {
			t.Errorf("same-type join paired distinct nodes %s and %s", p.V.Dewey, p.W.Dewey)
		}
	}
}

func TestJoinEmpty(t *testing.T) {
	d := xmltree.MustParse(fig1a)
	if got := Join(nil, d.NodesOfType("data.book")); got != nil {
		t.Error("join with empty left should be nil")
	}
	if got := Join(d.NodesOfType("data.book"), nil); got != nil {
		t.Error("join with empty right should be nil")
	}
}

// TestJoinPartner verifies the one-sided case: a node with no closest
// partner is simply absent from the join output.
func TestJoinMissingPartner(t *testing.T) {
	d := xmltree.MustParse(`<data>
	  <book><author/></book>
	  <book><author><name>V</name></author></book>
	</data>`)
	authors := d.NodesOfType("data.book.author")
	names := d.NodesOfType("data.book.author.name")
	ps := Join(authors, names)
	if len(ps) != 1 {
		t.Fatalf("pairs = %d, want 1", len(ps))
	}
	if ps[0].V.Dewey.String() != "1.2.1" {
		t.Errorf("paired author = %s, want 1.2.1", ps[0].V.Dewey)
	}
}

// nodeAt returns the node of d with Dewey number dw, or nil.
func nodeAt(d *xmltree.Document, dw xmltree.Dewey) *xmltree.Node {
	for _, n := range d.Nodes() {
		if n.Dewey.Compare(dw) == 0 {
			return n
		}
	}
	return nil
}

func TestIsClosest(t *testing.T) {
	d := xmltree.MustParse(fig1a)
	pub := nodeAt(d, xmltree.Dewey{1, 1, 3})
	t1 := nodeAt(d, xmltree.Dewey{1, 1, 1})
	t2 := nodeAt(d, xmltree.Dewey{1, 2, 1})
	if !IsClosest(pub, t1) {
		t.Error("1.1.3 should be closest to 1.1.1")
	}
	if IsClosest(pub, t2) {
		t.Error("1.1.3 should not be closest to 1.2.1")
	}
	if !IsClosest(pub, pub) {
		t.Error("a node is closest to itself")
	}
}

// randomDoc builds a random document over a small label alphabet so that
// type sequences have multiple members and varied nesting.
func randomDoc(r *rand.Rand) *xmltree.Document {
	labels := []string{"a", "b", "c"}
	b := xmltree.NewBuilder().Elem("root")
	depth := 0
	open := 1
	n := 3 + r.Intn(25)
	for i := 0; i < n; i++ {
		switch {
		case depth > 0 && r.Intn(3) == 0:
			b.End()
			depth--
			open--
		default:
			b.Elem(labels[r.Intn(len(labels))])
			depth++
			open++
			if r.Intn(2) == 0 {
				b.Text("t")
				b.End()
				depth--
				open--
			}
		}
	}
	for ; depth >= 0; depth-- {
		b.End()
	}
	return b.MustDocument()
}

// TestJoinEquivalentToNaive checks the merge join against the Definition 2
// closest relation computed naively, over random documents.
func TestJoinEquivalentToNaive(t *testing.T) {
	cfg := &quick.Config{MaxCount: 120, Values: func(vals []reflect.Value, r *rand.Rand) {
		vals[0] = reflect.ValueOf(randomDoc(r))
	}}
	err := quick.Check(func(d *xmltree.Document) bool {
		types := d.Types()
		for _, t1 := range types {
			for _, t2 := range types {
				vs, ws := d.NodesOfType(t1), d.NodesOfType(t2)
				got := map[[2]int]bool{}
				for _, p := range Join(vs, ws) {
					got[[2]int{p.V.Ord, p.W.Ord}] = true
				}
				want := map[[2]int]bool{}
				for _, v := range vs {
					for _, w := range ws {
						if IsClosest(v, w) {
							want[[2]int{v.Ord, w.Ord}] = true
						}
					}
				}
				if !reflect.DeepEqual(got, want) {
					return false
				}
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestBuildGraphFig4a(t *testing.T) {
	d := xmltree.MustParse(fig1a)
	g := Build(d)
	if g.NumVertices() != d.Size() {
		t.Errorf("vertices = %d, want %d", g.NumVertices(), d.Size())
	}
	pub := nodeAt(d, xmltree.Dewey{1, 1, 3})
	t1 := nodeAt(d, xmltree.Dewey{1, 1, 1})
	t2 := nodeAt(d, xmltree.Dewey{1, 2, 1})
	if !g.Closest(pub, t1) || g.Closest(pub, t2) {
		t.Error("graph edges disagree with closest relation")
	}
	if !g.Closest(pub, pub) {
		t.Error("Closest should be reflexive")
	}
}

// TestCompareIdentity: a "transformation" that re-renders the source
// unchanged (origin set on copies) is reversible.
func TestCompareIdentity(t *testing.T) {
	d := xmltree.MustParse(fig1a)
	g := Build(d)

	// Deep-copy the document with Src provenance.
	var cp func(n *xmltree.Node, b *xmltree.Builder)
	cp = func(n *xmltree.Node, b *xmltree.Builder) {
		b.Elem(n.Name)
		b.Text(n.Value)
		for _, c := range n.Children {
			if c.Attr {
				b.Attr(c.LocalName(), c.Value)
			} else {
				cp(c, b)
			}
		}
		b.End()
	}
	b := xmltree.NewBuilder()
	cp(d.Root(), b)
	out := b.MustDocument()
	// Attach provenance pairwise (identical structure, same walk order).
	src, dst := d.Nodes(), out.Nodes()
	if len(src) != len(dst) {
		t.Fatal("copy changed size")
	}
	for i := range dst {
		dst[i].Src = src[i]
	}

	r := Compare(g, Build(out))
	if !r.Reversible() || !r.NonAdditive || !r.Inclusive {
		t.Errorf("identity compare = %+v, want reversible", r)
	}
}

// TestCompareDropped: dropping vertices is non-inclusive but non-additive.
func TestCompareDropped(t *testing.T) {
	d := xmltree.MustParse(fig1a)
	g := Build(d)
	// Output: only the books, re-rooted.
	b := xmltree.NewBuilder().Elem("data")
	srcBooks := d.NodesOfType("data.book")
	b.Elem("book").End()
	b.Elem("book").End()
	out := b.End().MustDocument()
	books := out.NodesOfType("data.book")
	books[0].Src = srcBooks[0]
	books[1].Src = srcBooks[1]
	out.Nodes()[0].Src = d.Root()

	r := Compare(g, Build(out))
	if r.Inclusive {
		t.Error("dropping vertices should be non-inclusive")
	}
	if !r.NonAdditive {
		t.Error("dropping vertices should stay non-additive")
	}
}

// TestCompareManufactured: output containing an unrooted NEW vertex is
// additive.
func TestCompareManufactured(t *testing.T) {
	d := xmltree.MustParse(`<data><a>1</a></data>`)
	g := Build(d)
	out := xmltree.MustParse(`<data><wrapper><a>1</a></wrapper></data>`)
	out.Nodes()[0].Src = d.Nodes()[0]
	// wrapper has no Src: manufactured.
	out.Nodes()[2].Src = d.Nodes()[1]
	r := Compare(g, Build(out))
	if r.NonAdditive {
		t.Error("manufactured vertex should make the transform additive")
	}
}

func TestRecorderCountsJoins(t *testing.T) {
	d := xmltree.MustParse(fig1a)
	authors := d.NodesOfType("data.book.author")
	names := d.NodesOfType("data.book.author.name")

	rec := &Recorder{}
	pairs := 0
	JoinWithRec(authors, names, rec, func(v, w *xmltree.Node) { pairs++ })
	JoinWithRec(authors, names, rec, func(v, w *xmltree.Node) {})

	joins, cands, kept := rec.Snapshot()
	if joins != 2 {
		t.Errorf("joins = %d, want 2", joins)
	}
	wantCands := int64(2 * (len(authors) + len(names)))
	if cands != wantCands {
		t.Errorf("candidates = %d, want %d", cands, wantCands)
	}
	if kept != int64(2*pairs) {
		t.Errorf("pairs = %d, want %d", kept, 2*pairs)
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var rec *Recorder
	rec.record(1, 2, 3)
	if j, c, p := rec.Snapshot(); j != 0 || c != 0 || p != 0 {
		t.Errorf("nil recorder snapshot = %d %d %d", j, c, p)
	}
}

// TestJoinWithNilRecorderZeroAllocs guards the acceptance criterion that
// instrumentation adds no allocations to the closest-join hot path when
// tracing is off.
func TestJoinWithNilRecorderZeroAllocs(t *testing.T) {
	d := xmltree.MustParse(fig1a)
	books := d.NodesOfType("data.book")
	titles := d.NodesOfType("data.book.title")
	sink := 0
	fn := func(v, w *xmltree.Node) { sink++ }
	allocs := testing.AllocsPerRun(200, func() {
		JoinWithRec(books, titles, nil, fn)
	})
	if allocs != 0 {
		t.Errorf("JoinWithRec with nil recorder allocates %v per run, want 0", allocs)
	}
}

func BenchmarkJoinWithNilRecorder(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	d := randomDoc(r)
	var vs, ws []*xmltree.Node
	// Pick the two largest type sequences for a meaningful merge.
	for _, typ := range d.Types() {
		ns := d.NodesOfType(typ)
		if len(ns) > len(vs) {
			vs, ws = ns, vs
		} else if len(ns) > len(ws) {
			ws = ns
		}
	}
	fn := func(v, w *xmltree.Node) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JoinWithRec(vs, ws, nil, fn)
	}
}

func BenchmarkJoinWithRecorder(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	d := randomDoc(r)
	var vs, ws []*xmltree.Node
	for _, typ := range d.Types() {
		ns := d.NodesOfType(typ)
		if len(ns) > len(vs) {
			vs, ws = ns, vs
		} else if len(ns) > len(ws) {
			ws = ns
		}
	}
	fn := func(v, w *xmltree.Node) {}
	rec := &Recorder{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		JoinWithRec(vs, ws, rec, fn)
	}
}
